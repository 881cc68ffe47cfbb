"""Shared Execution Dependence Map: cross-core EDK visibility.

The paper's EDM is per-core; its future-work section asks what happens
when execution dependences race across cores.  This bus models the
natural extension — the sixteen architectural EDKs name dependences
machine-wide:

- A producer (non-zero ``edk_def``) *publishes* its key(s) at dispatch.
  The bus remembers the globally latest producer per key and keeps the
  instruction in an in-flight set until it completes on its home core.
- A consumer (non-zero ``edk_use``) whose key's latest producer lives on
  a *remote* core picks up a remote-dependence token, cleared when that
  producer completes.  (Local producers are handled by the core's own
  EDM, exactly as on a single core.)
- ``WAIT_KEY``/``WAIT_ALL_KEYS`` drain *remote write buffers* too: a wait
  cannot retire while a matching remote producer published before it is
  still in flight.

Deadlock freedom comes from the ticket watermark: every publish gets a
monotonically increasing ticket, and a wait only drains producers whose
ticket precedes the wait's dispatch-time watermark.  Any blocking chain
therefore strictly decreases tickets and must be acyclic.

Everything here is plain deterministic bookkeeping — the lockstep driver
steps cores in id order, so publish/complete ordering (and thus every
ticket) is a pure function of (seed, core count).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.edk import NUM_KEYS
from repro.pipeline.dyninst import DynInst

#: A remote-dependence token, kept alongside local producer seqs in a
#: consumer's ``e_deps_outstanding`` set.  Tuples never collide with the
#: local ints, and the ``"r"`` marker keeps them self-describing in
#: stuck-pipeline dumps.
RemoteToken = Tuple[str, int, int]


def remote_token(core_id: int, seq: int) -> RemoteToken:
    return ("r", core_id, seq)


class SharedEdmBus:
    """Cross-core EDK produce/consume bookkeeping for N coherent cores."""

    def __init__(self) -> None:
        #: key -> (core_id, seq) of the globally latest producer.
        self.latest_producer: Dict[int, Tuple[int, int]] = {}
        #: (core_id, seq) -> (ticket, producer keys) for in-flight producers.
        self.inflight: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] = {}
        #: (core_id, seq) -> (core id, remote consumer) holding a token on it.
        self.waiters: Dict[Tuple[int, int], List[Tuple[int, DynInst]]] = {}
        #: Cores whose WAIT a remote in-flight producer holds.
        self.blocked_waits: Set[int] = set()
        #: Cores a completion may have unblocked (no other cross-core event
        #: can unblock an idle core); the driver steps them and clears it.
        self.woken: Set[int] = set()
        #: Monotonic publish counter (the wait watermark source).
        self.ticket = 0

    def publish(self, core_id: int, dyn: DynInst,
                keys: Tuple[int, ...]) -> None:
        """Record ``dyn`` (dispatching on ``core_id``) producing ``keys``."""
        ident = (core_id, dyn.seq)
        self.ticket += 1
        self.inflight[ident] = (self.ticket, keys)
        for key in keys:
            self.latest_producer[key] = ident

    def remote_producer(self, core_id: int, key: int):
        """The in-flight producer of ``key`` on another core, if any."""
        ident = self.latest_producer.get(key)
        if ident is None or ident[0] == core_id:
            return None
        return ident if ident in self.inflight else None

    def add_waiter(self, ident: Tuple[int, int], core_id: int,
                   dyn: DynInst) -> None:
        """Register ``dyn`` on ``core_id`` as holding a token on ``ident``."""
        self.waiters.setdefault(ident, []).append((core_id, dyn))

    def complete(self, core_id: int, dyn: DynInst) -> None:
        """A published producer completed on its home core."""
        ident = (core_id, dyn.seq)
        if self.inflight.pop(ident, None) is None:
            return
        token = remote_token(core_id, dyn.seq)
        for waiter_core, waiter in self.waiters.pop(ident, ()):
            deps = waiter.e_deps_outstanding
            if deps is not None:
                deps.discard(token)
            self.woken.add(waiter_core)
        if self.blocked_waits:
            self.woken.update(self.blocked_waits)

    def remote_inflight(self, core_id: int, key: int,
                        watermark: int) -> bool:
        """Any remote producer of ``key`` (0 = any key) still in flight,
        published before ``watermark``?"""
        for (owner, _seq), (ticket, keys) in self.inflight.items():
            if owner == core_id or ticket > watermark:
                continue
            if key == 0 or key in keys:
                return True
        return False


#: All fifteen real keys — what a WAIT_ALL_KEYS drains.
ALL_REAL_KEYS = tuple(range(1, NUM_KEYS))
