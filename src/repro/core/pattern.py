"""Access pattern records (paper Sec. II-B2)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class AccessPattern:
    """One access point per pin of a unique instance.

    ``aps`` maps pin name to the chosen :class:`AccessPoint` (in the
    representative instance's design coordinates).  ``cost`` is the DP
    path cost that produced the pattern; ``violations`` records any
    DRCs found by the post-generation full validation (a clean pattern
    has none).
    """

    aps: dict
    cost: int = 0
    violations: list = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        """Return True if the full validation found no DRCs."""
        return not self.violations

    def pin_names(self) -> list:
        """Return covered pin names in insertion (pin ordering) order."""
        return list(self.aps)

    def signature(self) -> tuple:
        """Return a hashable identity (pin -> AP location/via) tuple.

        Two DP iterations can converge to the same pattern; the
        generator uses this to drop duplicates.
        """
        return tuple(
            (name, ap.x, ap.y, ap.primary_via) for name, ap in self.aps.items()
        )

    def __str__(self) -> str:
        return (
            f"AccessPattern({len(self.aps)} pins, cost={self.cost}, "
            f"{'clean' if self.is_clean else f'{len(self.violations)} DRCs'})"
        )
