"""The ``update`` kernel (Table II).

"Perform updates on random elements in an array" — a persistent array of
64-bit values; each operation picks a random element and assigns it a new
value through the framework's failure-atomic assignment (Figure 1), so the
framework performs undo logging and persists with the configuration's fence
discipline.
"""

from __future__ import annotations

from repro.nvmfw.framework import BuiltWorkload
from repro.workloads.base import Scale, make_rng, new_framework, register

#: Number of 64-bit elements in the persistent array (128 KB).
ARRAY_ELEMENTS = 16384


@register("update")
def build_update(mode: str, scale: Scale) -> BuiltWorkload:
    fw = new_framework(mode)
    rng = make_rng(scale)

    base = fw.alloc(ARRAY_ELEMENTS * 8, align=64)
    fw.raw_store_words(base, range(ARRAY_ELEMENTS))

    fw.track_writes()

    value = 1
    for _ in range(scale.txns):
        fw.tx_begin()
        for _ in range(scale.ops_per_txn):
            index = rng.randrange(ARRAY_ELEMENTS)
            fw.write(base + 8 * index, value)
            value += 1
        fw.tx_commit()
    return fw.finish()
