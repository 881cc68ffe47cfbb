"""Per-core pipeline wired to the shared-EDM bus.

:class:`CoherentCore` is an :class:`~repro.pipeline.core.OutOfOrderCore`
whose dispatch and retire hooks

- *publish* its EDE producers to the :class:`SharedEdmBus` at dispatch,
- pick up remote-dependence tokens for consumed keys whose globally
  latest producer is in flight on another core (enforced at issue — for
  the WB policy this is conservative relative to the local srcID CAM,
  which cannot hold cross-core identifiers, and strictly safe), and
- gate ``WAIT_KEY``/``WAIT_ALL_KEYS`` retirement on remote write-buffer
  draining via the bus's ticket watermark.

It runs under the shared clock of the lockstep driver in
:mod:`repro.multicore.system`, through
:meth:`~repro.pipeline.core.OutOfOrderCore.lockstep`; :meth:`run` would
simulate it in isolation and refuses to.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.multicore.edm_bus import SharedEdmBus, remote_token
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.dyninst import DynInst, RETIRE_WAIT_KEY
from repro.pipeline.stats import PipelineStats


class CoherentCore(OutOfOrderCore):
    """One core of an N-core shared-EDM machine."""

    def __init__(self, core_id: int, bus: SharedEdmBus, trace, hierarchy,
                 policy, params) -> None:
        super().__init__(trace, hierarchy, policy, params)
        self.core_id = core_id
        self.bus = bus
        #: WAIT seq -> bus ticket watermark captured at dispatch.  Only
        #: producers published before the watermark are drained, which
        #: keeps the cross-core blocking relation acyclic.
        self._wait_watermarks: Dict[int, int] = {}

    # -- bus plumbing: the pipeline's hooks, defined as methods --------

    def on_complete(self, dyn: DynInst) -> None:
        if dyn.is_ede:
            self.bus.complete(self.core_id, dyn)

    def on_ede_dispatch(self, dyn: DynInst) -> None:
        """Dispatch hook: after the local EDM decode of ``dyn``."""
        bus = self.bus
        if dyn.is_wait:
            self._wait_watermarks[dyn.seq] = bus.ticket
            return
        # Resolve remote producers against the bus state *before* this
        # instruction's own keys publish (read-then-define, like the local
        # EDM decode).
        remote = ()
        if self.policy.enforces_ede:
            remote = tuple(
                ident
                for ident in (bus.remote_producer(self.core_id, key)
                              for key in dyn.inst.consumer_keys())
                if ident is not None)
        keys = dyn.producer_keys
        if keys:
            bus.publish(self.core_id, dyn, tuple(keys))
        for ident in remote:
            deps = dyn.e_deps_outstanding
            if deps is None:
                deps = dyn.e_deps_outstanding = set()
            token = remote_token(*ident)
            if token not in deps:
                deps.add(token)
                bus.add_waiter(ident, self.core_id, dyn)

    def wait_blocked(self, dyn: DynInst) -> bool:
        """Retire hook: hold a WAIT while a matching remote producer
        published before its watermark is in flight (meanwhile every
        completion wakes this core)."""
        key = dyn.inst.edk_use if dyn.retire_class == RETIRE_WAIT_KEY else 0
        watermark = self._wait_watermarks.get(dyn.seq, 0)
        blocked_waits = self.bus.blocked_waits
        if self.bus.remote_inflight(self.core_id, key, watermark):
            blocked_waits.add(self.core_id)
            return True
        blocked_waits.discard(self.core_id)
        self._wait_watermarks.pop(dyn.seq, None)
        return False

    # -- driver contract ------------------------------------------------

    def run(self, max_cycles: int = 500_000_000,
            no_retire_limit: Optional[int] = None) -> PipelineStats:
        raise RuntimeError(
            "CoherentCore is driven cycle-by-cycle by "
            "repro.multicore.system (shared clock, shared EDM); "
            "run() would simulate it in isolation")
