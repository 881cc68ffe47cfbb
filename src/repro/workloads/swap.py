"""The ``swap`` kernel (Table II).

"Perform pairwise swaps between random array elements" — each operation
reads two random elements and writes each one's value into the other, with
both writes undo-logged.
"""

from __future__ import annotations

from repro.nvmfw.framework import BuiltWorkload
from repro.workloads.base import Scale, make_rng, new_framework, register
from repro.workloads.update import ARRAY_ELEMENTS


@register("swap")
def build_swap(mode: str, scale: Scale) -> BuiltWorkload:
    fw = new_framework(mode)
    rng = make_rng(scale)

    base = fw.alloc(ARRAY_ELEMENTS * 8, align=64)
    fw.raw_store_words(base, range(ARRAY_ELEMENTS))

    fw.track_writes()

    for _ in range(scale.txns):
        fw.tx_begin()
        for _ in range(scale.ops_per_txn):
            first = rng.randrange(ARRAY_ELEMENTS)
            second = rng.randrange(ARRAY_ELEMENTS)
            addr_a = base + 8 * first
            addr_b = base + 8 * second
            value_a = fw.read(addr_a)
            value_b = fw.read(addr_b)
            fw.write(addr_a, value_b)
            fw.write(addr_b, value_a)
        fw.tx_commit()
    return fw.finish()
