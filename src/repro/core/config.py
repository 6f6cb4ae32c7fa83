"""Configuration for the pin access framework.

Defaults follow the paper's published constants: ``k = 3`` access
points per pin (Sec. III-A), ``alpha = 0.3`` pin-ordering weight
(Sec. III-B), up to 3 access patterns per unique instance (Sec. IV,
Experiment 2), boundary-conflict awareness and history-aware
optimization on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.coords import (
    NON_PREFERRED_TYPES,
    PREFERRED_TYPES,
)


@dataclass
class PaafConfig:
    """Tunable knobs of the framework (ablation benches sweep these)."""

    # Step 1 -- access point generation.
    k: int = 3
    check_planar: bool = True           # also record planar directions
    require_cut_on_pin: bool = False    # strict via-in-pin: the cut must
                                        # land fully on pin metal
    preferred_types: tuple = PREFERRED_TYPES
    non_preferred_types: tuple = NON_PREFERRED_TYPES

    # Step 2 -- access pattern generation.
    alpha: float = 0.3
    patterns_per_unique_instance: int = 3
    boundary_conflict_aware: bool = True
    history_aware: bool = True

    # Performance knobs (repro.perf).  These change how the flow
    # executes, never what it computes: results are bit-identical for
    # any ``paircheck_mode``, ``apcheck_mode`` and cache state, and
    # the AP cache fingerprint excludes them.
    cache_dir: str = None               # persistent AP/pattern cache root
    profile: bool = False               # collect hot-path counters
    paircheck_mode: str = "kernel"      # via-pair backend: "kernel"
                                        # (forbidden-displacement tables),
                                        # "engine" (DrcEngine oracle) or
                                        # "verify" (both; raise on any
                                        # divergence)
    apcheck_mode: str = "array"         # Step 1/3 candidate backend:
                                        # "array" (compiled per-cell
                                        # occupancy tables), "engine"
                                        # (DrcEngine verdicts) or
                                        # "verify" (both; raise on any
                                        # divergence)

    # Observability knobs (repro.obs).  Perf-only like the block
    # above: they add telemetry, never change results, and the AP
    # cache fingerprint excludes them.
    trace: bool = False                 # record spans into result.trace
    trace_out: str = None               # write Chrome-trace JSON here
                                        # (implies trace)
    metrics_out: str = None             # write Prometheus text here
                                        # (implies a metrics registry)
    explain: object = False             # collect decision events; a
                                        # string is a JSONL output path

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.patterns_per_unique_instance <= 0:
            raise ValueError("patterns_per_unique_instance must be positive")
        if self.paircheck_mode not in ("kernel", "engine", "verify"):
            raise ValueError(
                "paircheck_mode must be 'kernel', 'engine' or 'verify', "
                f"got {self.paircheck_mode!r}"
            )
        if self.apcheck_mode not in ("array", "engine", "verify"):
            raise ValueError(
                "apcheck_mode must be 'array', 'engine' or 'verify', "
                f"got {self.apcheck_mode!r}"
            )

    def without_bca(self) -> "PaafConfig":
        """Return a copy configured as the paper's "w/o BCA" setup.

        One access pattern per unique instance and no boundary-conflict
        penalty (Experiment 2's first PAAF column).
        """
        import dataclasses

        return dataclasses.replace(
            self,
            patterns_per_unique_instance=1,
            boundary_conflict_aware=False,
        )
