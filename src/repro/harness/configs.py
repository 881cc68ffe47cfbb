"""Experimental configurations: Table I parameters and Table III setups.

:class:`A72Params` bundles the architectural parameters of Table I;
:data:`CONFIGURATIONS` defines the five architecture configurations of
Table III, each pairing a program-side fence mode (what the framework
emits) with a hardware-side enforcement policy.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.core.policies import (
    EnforcementPolicy,
    FENCE_POLICY,
    IQ_POLICY,
    WB_POLICY,
)
from repro.memory.controller import AddressMap
from repro.memory.dram import DramParams
from repro.memory.hierarchy import HierarchyParams
from repro.memory.nvm import NvmParams
from repro.nvmfw import codegen
from repro.pipeline.params import CoreParams


@dataclasses.dataclass(frozen=True)
class A72Params:
    """All Table I architectural parameters in one place."""

    core: CoreParams = CoreParams()
    hierarchy: HierarchyParams = HierarchyParams()
    dram: DramParams = DramParams()
    nvm: NvmParams = NvmParams()
    address_map: AddressMap = AddressMap()

    def table(self) -> Tuple[Tuple[str, str], ...]:
        """Rows of Table I, for the bench that regenerates it."""
        return (
            ("Processor", "OoO core, %d-instr decode width, 3GHz"
             % self.core.decode_width),
            ("Ld-St queue", "%d entries each" % self.core.load_queue_entries),
            ("Write buffer", "%d entries" % self.core.write_buffer_entries),
            ("L1 I-cache", "32KB, 2-way, 2-cycle access latency"),
            ("L1 D-cache", "%dKB, %d-way, %d-cycle access latency"
             % (self.hierarchy.l1d_size >> 10, self.hierarchy.l1d_assoc,
                self.hierarchy.l1d_latency)),
            ("L2 cache", "%dKB, %d-way, %d-cycle access latency"
             % (self.hierarchy.l2_size >> 10, self.hierarchy.l2_assoc,
                self.hierarchy.l2_latency)),
            ("L3 cache", "%dMB/core, %d-way, %d-cycle access latency"
             % (self.hierarchy.l3_size >> 20, self.hierarchy.l3_assoc,
                self.hierarchy.l3_latency)),
            ("Capacity", "DRAM: %dGB; NVM: %dGB"
             % (self.address_map.dram_bytes >> 30,
                self.address_map.nvm_bytes >> 30)),
            ("NVM latency", "%dns read; %dns write"
             % (self.nvm.read_cycles // 3, self.nvm.write_cycles // 3)),
            ("NVM line size", "%dB" % self.nvm.line_size),
            ("NVM on-DIMM buffer", "%d slots" % self.nvm.buffer_slots),
            ("DRAM type", "2400MHz DDR4"),
            ("DRAM ranks per channel", "%d" % self.dram.ranks),
            ("DRAM banks per rank", "%d" % self.dram.banks_per_rank),
        )


DEFAULT_PARAMS = A72Params()


@dataclasses.dataclass(frozen=True)
class Configuration:
    """One Table III architecture configuration.

    Attributes:
        name: Short name used throughout the paper (B, SU, IQ, WB, U).
        fence_mode: What ordering instructions the framework emits
            (:mod:`repro.nvmfw.codegen` modes).
        policy: The hardware enforcement policy.
        description: Table III description.
    """

    name: str
    fence_mode: str
    policy: EnforcementPolicy
    description: str

    @property
    def safe_by_spec(self) -> bool:
        """Whether the configuration architecturally guarantees
        crash-consistent ordering: its fence mode's Table III safety
        (:func:`repro.nvmfw.codegen.mode_safe_by_spec`).  SU is timed
        like an x86 SFENCE but AArch64's ``DMB ST`` does not order
        ``DC CVAP``, so it is unsafe by specification even when no
        violation is observed."""
        return codegen.mode_safe_by_spec(self.fence_mode)


CONFIGURATIONS: Tuple[Configuration, ...] = (
    Configuration(
        name="B",
        fence_mode=codegen.MODE_DSB,
        policy=FENCE_POLICY,
        description="Baseline: use DSBs to enforce ordering.",
    ),
    Configuration(
        name="SU",
        fence_mode=codegen.MODE_DMB_ST,
        policy=FENCE_POLICY,
        description="Store Barrier Unsafe: DMB ST only (SFENCE-like); "
                    "allows unsafe reordering by specification.",
    ),
    Configuration(
        name="IQ",
        fence_mode=codegen.MODE_EDE,
        policy=IQ_POLICY,
        description="EDE targeting the issue-queue hardware.",
    ),
    Configuration(
        name="WB",
        fence_mode=codegen.MODE_EDE,
        policy=WB_POLICY,
        description="EDE targeting the write-buffer hardware.",
    ),
    Configuration(
        name="U",
        fence_mode=codegen.MODE_NONE,
        policy=FENCE_POLICY,
        description="Unsafe: no fences at all.",
    ),
)

CONFIG_BY_NAME: Dict[str, Configuration] = {c.name: c for c in CONFIGURATIONS}


def configuration(name: str) -> Configuration:
    try:
        return CONFIG_BY_NAME[name.upper()]
    except KeyError:
        raise ValueError(
            "unknown configuration %r (expected one of %s)"
            % (name, ", ".join(CONFIG_BY_NAME))) from None
