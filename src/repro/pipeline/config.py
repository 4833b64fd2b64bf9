"""Machine configurations (paper section 4).

Two base machines:

- **8-wide** (NLQ and SSQ studies): 512-entry ROB, 128-entry LQ, 64-entry
  SQ, 200 issue-queue entries, 448 registers; issues 5 integer, 2 FP,
  2 load, 2 store, 1 branch per cycle.
- **4-wide** (RLE study): 128-entry ROB, 32-entry LQ, 16-entry SQ, 50
  issue-queue entries, 160 registers; issues 3 integer, 1 FP, 1 load,
  1 store, 1 branch per cycle.

Common: 15-stage base pipeline, hybrid predictor + BTB, store-sets, single
store-retirement port, 2-cycle L1s / 15-cycle L2 / 150-cycle memory.
Loads against a conventional associative SQ take 4 cycles ("CACTI
simulations show that at 90nm, an SQ of this size has 1.7x the access time
of an 8KB single-ported data cache bank"); the SSQ restores the 2-cycle
load.  Re-execution adds two pipeline stages (four under RLE, which must
read addresses and values from the register file); SVW adds one more.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, replace

from repro.core.svw import SVWConfig
from repro.fingerprint import stable_digest
from repro.memsys.hierarchy import HierarchyConfig


class RexMode(enum.Enum):
    """How marked loads are verified."""

    #: No re-execution machinery at all (pure conventional baseline).
    NONE = "none"
    #: In-order pre-commit re-execution through the shared D$ port.
    REEXECUTE = "reexecute"
    #: Ideal re-execution: zero latency, infinite bandwidth (the paper's
    #: ``+PERFECT`` configurations).
    PERFECT = "perfect"
    #: Section 6 future work: no re-execution at all; a positive SSBF test
    #: directly triggers a flush and trains the predictors.
    SVW_ONLY = "svw_only"


class LSUKind(enum.Enum):
    CONVENTIONAL = "conventional"
    NLQ = "nlq"
    SSQ = "ssq"


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Full description of one simulated machine."""

    name: str

    # -- widths and window sizes ---------------------------------------------
    width: int = 8
    rob_size: int = 512
    iq_size: int = 200
    lq_size: int = 128
    sq_size: int = 64
    num_regs: int = 448

    # -- per-cycle issue bandwidth ---------------------------------------------
    int_issue: int = 5
    fp_issue: int = 2
    load_issue: int = 2
    store_issue: int = 2
    branch_issue: int = 1

    # -- memory / front end -----------------------------------------------------
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    #: Effective load-to-use latency of the L1D path, *including* the SQ
    #: search where one exists (4 with a 64-entry associative SQ, 2 for SSQ).
    load_latency: int = 4
    store_retire_ports: int = 1
    #: Redirect penalty on a branch misprediction (front-end refill).
    mispredict_penalty: int = 12
    #: Penalty when a taken branch misses in the BTB (re-fetch from decode).
    btb_penalty: int = 3
    #: Flush penalty for memory-ordering squashes (same refill path).
    flush_penalty: int = 12

    # -- load-store unit variant -----------------------------------------------
    lsu: LSUKind = LSUKind.CONVENTIONAL
    fsq_size: int = 16
    fsq_ports: int = 1
    forward_buffer_entries: int = 8

    # -- optimizations ------------------------------------------------------------
    rle: bool = False
    it_entries: int = 512
    it_assoc: int = 2
    squash_reuse: bool = True

    # -- shared-memory traffic (NLQ-SM extension) -------------------------------------
    #: Cycles between synthetic coherence invalidations (0 = none).
    #: Invalidations mark all in-flight loads (the NLQ-SM natural filter:
    #: "loads that are in the window during a cache line invalidation")
    #: and write SSN_RENAME+1 into the SSBF banks for the line.
    invalidation_interval: int = 0

    # -- simulation limits -----------------------------------------------------------
    #: Abort the simulation if no instruction commits for this many cycles
    #: (deadlock detector).  Long traces with very large miss penalties or
    #: wide invalidation intervals may legitimately need a bigger window;
    #: the skip-ahead scheduler honours this bound exactly, so raising it
    #: never changes results short of an actual deadlock.
    watchdog_cycles: int = 100_000

    # -- verification ---------------------------------------------------------------
    rex_mode: RexMode = RexMode.NONE
    #: Extra re-execution pipeline stages beyond the base commit stage
    #: (2 for NLQ/SSQ, 4 for RLE; 0 when re-execution is absent/perfect).
    rex_stages: int = 0
    svw: SVWConfig | None = None

    # -- predictors -------------------------------------------------------------------
    store_sets: bool = True
    predictor_entries: int = 8192
    btb_entries: int = 2048

    def __post_init__(self) -> None:
        if self.rex_mode is RexMode.SVW_ONLY and self.svw is None:
            raise ValueError("svw_only verification requires an SVW config")
        if self.rex_mode is RexMode.NONE and self.lsu is not LSUKind.CONVENTIONAL:
            raise ValueError(f"{self.lsu} requires a re-execution mode")
        if self.rex_mode is RexMode.NONE and self.rle:
            raise ValueError("RLE requires a re-execution mode")

    @property
    def uses_rex(self) -> bool:
        return self.rex_mode in (RexMode.REEXECUTE, RexMode.PERFECT, RexMode.SVW_ONLY)

    @property
    def commit_depth(self) -> int:
        """Cycles between writeback and commit eligibility.

        The base commit stage is 1 cycle; real re-execution elongates the
        commit pipeline by ``rex_stages`` and SVW adds one more (section 4).
        """
        depth = 1
        if self.rex_mode is RexMode.REEXECUTE:
            depth += self.rex_stages
        if self.svw is not None and self.rex_mode in (RexMode.REEXECUTE, RexMode.SVW_ONLY):
            depth += 1
        return depth

    def derive(self, name: str, **overrides: object) -> "MachineConfig":
        """A copy with ``overrides`` applied (configs are immutable)."""
        return replace(self, name=name, **overrides)  # type: ignore[arg-type]

    # -- serialization / fingerprinting -----------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form; round-trips through :meth:`from_dict`."""
        payload = asdict(self)
        payload["lsu"] = self.lsu.value
        payload["rex_mode"] = self.rex_mode.value
        payload["hierarchy"] = self.hierarchy.to_dict()
        payload["svw"] = self.svw.to_dict() if self.svw is not None else None
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "MachineConfig":
        payload = dict(payload)
        payload["lsu"] = LSUKind(payload["lsu"])
        payload["rex_mode"] = RexMode(payload["rex_mode"])
        payload["hierarchy"] = HierarchyConfig.from_dict(payload["hierarchy"])  # type: ignore[arg-type]
        if payload["svw"] is not None:
            payload["svw"] = SVWConfig.from_dict(payload["svw"])  # type: ignore[arg-type]
        return cls(**payload)  # type: ignore[arg-type]

    def fingerprint(self) -> str:
        """Stable digest of everything that affects simulation results.

        ``name`` is display metadata (two differently-named but otherwise
        identical configs simulate identically), so it is excluded --
        this is what lets overlapping sweeps share result-cache entries.
        """
        payload = self.to_dict()
        del payload["name"]
        return stable_digest(payload)


def eight_wide(name: str = "8wide-base", **overrides: object) -> MachineConfig:
    """The paper's 8-way issue NLQ/SSQ machine."""
    return MachineConfig(name=name).derive(name, **overrides) if overrides else MachineConfig(name=name)


def four_wide(name: str = "4wide-base", **overrides: object) -> MachineConfig:
    """The paper's 4-way issue RLE machine."""
    base = MachineConfig(
        name=name,
        width=4,
        rob_size=128,
        iq_size=50,
        lq_size=32,
        sq_size=16,
        num_regs=160,
        int_issue=3,
        fp_issue=1,
        load_issue=1,
        store_issue=1,
        branch_issue=1,
        load_latency=2,
    )
    return base.derive(name, **overrides) if overrides else base
