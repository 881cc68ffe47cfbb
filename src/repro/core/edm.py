"""The Execution Dependence Map (EDM).

Section V-A of the paper: the EDM is a fifteen-entry map from EDK to the
in-flight instruction ID of the current dependence producer for that key.

* When an instruction with a consumer EDK is decoded, the EDM is queried:
  a hit means the instruction has an execution dependence on the recorded
  producer; a miss means it has none.
* When an instruction with a producer EDK is decoded, the EDM entry for the
  key is overwritten with the new instruction's ID.
* When a producer completes, its EDM entry is cleared — but only if the
  entry still holds that instruction's ID (a younger producer may have
  already overwritten it).

Squash recovery (Section V-A1) keeps two copies: a speculative EDM used by
the front end and a non-speculative EDM updated at retirement.  On a pipeline
squash the non-speculative copy is copied over the speculative one.
:class:`CheckpointedEdm` implements that pair, plus arbitrary named
checkpoints for multi-checkpoint designs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.edk import ZERO_KEY, validate_edk


class ExecutionDependenceMap:
    """A single EDM: fifteen EDK -> producer-instruction-ID entries."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, int] = {}

    # --- decode-time operations ------------------------------------------

    def lookup(self, edk: int) -> Optional[int]:
        """Return the producer ID for ``edk``, or None.

        The zero key always misses: it means "no dependence".
        """
        validate_edk(edk)
        if edk == ZERO_KEY:
            return None
        return self._entries.get(edk)

    def define(self, edk: int, producer_id: int) -> None:
        """Record ``producer_id`` as the current producer of ``edk``.

        Defining the zero key is a no-op (the field is unused).
        """
        validate_edk(edk)
        if edk == ZERO_KEY:
            return
        self._entries[edk] = producer_id

    # --- completion-time operations -----------------------------------------

    def clear_on_complete(self, edk: int, producer_id: int) -> bool:
        """Clear the entry for ``edk`` if it still names ``producer_id``.

        Returns True when the entry was cleared.  If a younger producer has
        overwritten the entry, it is left untouched (Section V-A).
        """
        validate_edk(edk)
        if edk == ZERO_KEY:
            return False
        if self._entries.get(edk) == producer_id:
            del self._entries[edk]
            return True
        return False

    def clear_id(self, producer_id: int) -> Tuple[int, ...]:
        """Clear every entry holding ``producer_id``; return the cleared keys."""
        cleared = tuple(
            key for key, value in self._entries.items() if value == producer_id
        )
        for key in cleared:
            del self._entries[key]
        return cleared

    # --- state management -----------------------------------------------------

    def snapshot(self) -> Dict[int, int]:
        """Return a copy of the current contents."""
        return dict(self._entries)

    def restore(self, snapshot: Dict[int, int]) -> None:
        """Replace the contents with ``snapshot``."""
        for key in snapshot:
            validate_edk(key)
            if key == ZERO_KEY:
                raise ValueError("snapshot may not contain the zero key")
        self._entries = dict(snapshot)

    def clear(self) -> None:
        self._entries.clear()

    # --- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, edk: int) -> bool:
        return self.lookup(edk) is not None

    def occupied_keys(self) -> Tuple[int, ...]:
        return tuple(sorted(self._entries))

    def __repr__(self) -> str:
        body = ", ".join(
            "EDK#%d->%d" % (k, v) for k, v in sorted(self._entries.items())
        )
        return "ExecutionDependenceMap({%s})" % body


class CheckpointedEdm:
    """Speculative / non-speculative EDM pair with named checkpoints.

    The front end reads and writes the *speculative* copy.  At retirement,
    the core replays the retiring instruction's EDM effects on the
    *non-speculative* copy.  On a squash, the non-speculative copy is copied
    into the speculative one before execution restarts.
    """

    def __init__(self) -> None:
        self.spec = ExecutionDependenceMap()
        self.non_spec = ExecutionDependenceMap()
        self._checkpoints: Dict[int, Dict[int, int]] = {}

    # --- front-end interface ------------------------------------------------

    def decode(self, edk_def: int, consumer_keys: Tuple[int, ...],
               inst_id: int) -> Tuple[int, ...]:
        """Apply decode-time EDM actions for one instruction.

        First the consumer keys are looked up (the instruction may be a
        sink), then the producer key is defined (the instruction may be a
        source).  Returns the IDs of the producers this instruction depends
        on (without duplicates, in operand order).
        """
        # Hot path: keys come from decoded instructions, which validated
        # their EDK operands at construction — operate on the maps
        # directly.  The zero key is never *stored* (define skips it), so
        # a zero-key lookup misses naturally.
        entries = self.spec._entries
        producers = []
        for key in consumer_keys:
            producer = entries.get(key)
            if producer is not None and producer not in producers:
                producers.append(producer)
        if edk_def:
            entries[edk_def] = inst_id
        return tuple(producers)

    # --- retirement interface -------------------------------------------------

    def retire(self, edk_def: int, inst_id: int) -> None:
        """Replay a retiring producer's definition on the non-spec copy."""
        if edk_def:
            self.non_spec._entries[edk_def] = inst_id

    def complete(self, edk_def: int, inst_id: int) -> None:
        """A producer finished: clear its entries from both copies."""
        entries = self.spec._entries
        if entries.get(edk_def) == inst_id:
            del entries[edk_def]
        entries = self.non_spec._entries
        if entries.get(edk_def) == inst_id:
            del entries[edk_def]

    # --- squash / checkpoint interface ------------------------------------------

    def squash(self) -> None:
        """Pipeline squash: restore the speculative copy from non-spec."""
        self.spec.restore(self.non_spec.snapshot())

    def take_checkpoint(self, tag: int) -> None:
        self._checkpoints[tag] = self.spec.snapshot()

    def restore_checkpoint(self, tag: int) -> None:
        self.spec.restore(self._checkpoints.pop(tag))

    def discard_checkpoint(self, tag: int) -> None:
        self._checkpoints.pop(tag, None)

    def clear(self) -> None:
        self.spec.clear()
        self.non_spec.clear()
        self._checkpoints.clear()
