"""MPSC persistent queue (multi-producer, single-consumer, multi-core).

Core 0 is the consumer; every other core is a producer with its own
single-writer ring:

- **producer core p** (per transaction): failure-atomically writes
  ``ops_per_txn`` ring slots plus its head counter — all on lines only
  core p writes — commits, then *announces* the batch through a volatile
  DRAM flag using the paper's dependence idiom (``STR_EDE`` producing a
  per-producer EDK under EDE modes; ``DMB SY`` under fence modes).
- **consumer core 0** (per transaction): consumes the announcement
  (``LDR_EDE`` using the producer's key — a genuine *cross-core* EDK
  produce/consume edge under the shared EDM), reads whatever items the
  interleaver has made available (so the consumer's trace genuinely
  depends on the build interleaving), and failure-atomically advances
  that producer's tail counter — the tails live on consumer-owned lines.

At N=1 core 0 plays both roles, alternating produce and consume
transactions (the announcement round-trips through the core's own EDM).
The per-producer handshake EDKs are reserved out of the cores' undo-log
key partitions, the software discipline a machine-wide EDM demands.
"""

from __future__ import annotations

from repro.isa import instructions as ops
from repro.nvmfw import codegen
from repro.nvmfw.framework import BuiltWorkload
from repro.nvmfw.layout import DRAM_SCRATCH_BASE
from repro.workloads.base import Scale, register

#: Volatile per-producer announcement flags, one DRAM line each.
_FLAG_BASE = DRAM_SCRATCH_BASE + (2 << 20)

_R_FLAG = 22    # flag address
_R_FLAGV = 23   # flag value


def _flag_addr(producer_index: int) -> int:
    return _FLAG_BASE + 64 * producer_index


def _handshake_key(producer_index: int) -> int:
    """Per-producer reserved EDK, counting down from 15."""
    return 15 - producer_index


@register("mpsc", multicore=True)
def build_mpsc(mode: str, scale: Scale) -> BuiltWorkload:
    # Lazy for the same reason as the other multicore workloads: the
    # registry import must not pull the multicore package in early.
    from repro.multicore.build import MulticoreBuild

    cores = scale.cores
    producer_cores = list(range(1, cores)) if cores > 1 else [0]
    nproducers = len(producer_cores)
    reserved = tuple(_handshake_key(i) for i in range(nproducers))
    ctx = MulticoreBuild(mode, cores, scale, reserved_keys=reserved)

    base = codegen.base_mode(codegen.validate_mode(mode))
    use_ede = base == codegen.MODE_EDE
    use_fence = base in (codegen.MODE_DSB, codegen.MODE_DMB_ST)

    ring = scale.ops_per_txn
    consumer = ctx.frameworks[0]

    # Per-producer ring + head, on lines only that producer writes.
    slot_base = []
    head_addr = []
    for i, core in enumerate(producer_cores):
        fw = ctx.frameworks[core]
        bytes_needed = (ring + 1) * 8
        region = fw.alloc((bytes_needed + 63) & ~63, 64)
        slot_base.append(region)
        head_addr.append(region + ring * 8)
        fw.raw_store_words(region, [0] * (ring + 1))  # slots, then head
        fw.raw_store(_flag_addr(i), 0)
    # Per-producer tails, on consumer-owned lines.
    tails_region = consumer.alloc((nproducers * 8 + 63) & ~63, 64)
    tail_addr = [tails_region + 8 * i for i in range(nproducers)]
    for i in range(nproducers):
        consumer.raw_store(tail_addr[i], 0)
    ctx.freeze_baseline()
    ctx.track_writes()

    def produce_unit(i: int):
        core = producer_cores[i]
        fw = ctx.frameworks[core]
        flag = _flag_addr(i)
        key = _handshake_key(i)

        def unit() -> None:
            fw.tx_begin()
            head = fw.peek(head_addr[i])
            for j in range(ring):
                fw.write(slot_base[i] + 8 * ((head + j) % ring),
                         head + j + 1)
            fw.write(head_addr[i], head + ring)
            fw.tx_commit()
            # Announce the committed batch (volatile handshake).
            emit = fw.builder.emit
            emit(ops.mov_imm(_R_FLAG, flag))
            emit(ops.mov_imm(_R_FLAGV, head + ring))
            if use_ede:
                emit(ops.store_ede(_R_FLAGV, _R_FLAG, edk_def=key,
                                   edk_use=0, addr=flag, comment="announce"))
            else:
                emit(ops.store(_R_FLAGV, _R_FLAG, addr=flag,
                               comment="announce"))
                if use_fence:
                    emit(ops.dmb_sy())
            fw.raw_store(flag, head + ring)

        return unit

    def consume_unit(txn_index: int):
        i = txn_index % nproducers
        flag = _flag_addr(i)
        key = _handshake_key(i)
        fw = consumer

        def unit() -> None:
            # Consume the announcement: under EDE the load *uses* the
            # producer's key — on N>1 a cross-core EDM edge.
            emit = fw.builder.emit
            emit(ops.mov_imm(_R_FLAG, flag))
            if use_ede:
                emit(ops.ldr_ede(_R_FLAGV, _R_FLAG, edk_def=0, edk_use=key,
                                 addr=flag))
            else:
                emit(ops.ldr(_R_FLAGV, _R_FLAG, addr=flag))
                if use_fence:
                    emit(ops.dmb_sy())
            fw.tx_begin()
            tail = fw.peek(tail_addr[i])
            available = fw.peek(head_addr[i]) - tail
            take = min(available, ring)
            for j in range(take):
                fw.read(slot_base[i] + 8 * ((tail + j) % ring))
            fw.write(tail_addr[i], tail + take)
            fw.tx_commit()

        return unit

    if cores == 1:
        stream = []
        for txn in range(scale.txns):
            stream.append(produce_unit(0))
            stream.append(consume_unit(txn))
        streams = [stream]
    else:
        streams = [[consume_unit(txn) for txn in range(scale.txns)]]
        for i in range(nproducers):
            streams.append([produce_unit(i) for _ in range(scale.txns)])
    ctx.run(streams)
    return ctx.finish()
