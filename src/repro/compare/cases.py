"""Case matrix for the router-in-the-loop comparator.

A *case* is a benchmark design at a scale (plus an optional net cap
for smoke runs); the comparator routes every case through each access
flow.  The committed matrices mirror the repo's golden corpus -- the
scaled ISPD-2018 cases the qa goldens pin, the 14 nm AES design of
the paper's Figure 9 preliminary study, and the adversarial pin-zoo
families -- so Figure 8's ordering is measured on both friendly and
hostile inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Access flows the comparator knows how to run.
FLOWS = ("pao", "serve", "legacy")


@dataclass(frozen=True)
class CaseSpec:
    """One comparator case: a named design at a scale."""

    testcase: str
    scale: float
    max_nets: int = None

    @property
    def case_id(self) -> str:
        return f"{self.testcase}@{self.scale:g}"

    def build(self):
        """Materialize the design."""
        from repro.bench import build_case

        return build_case(self.testcase, scale=self.scale)


def parse_case(text: str) -> CaseSpec:
    """Parse ``name@scale`` (scale defaults to 1, as the zoo uses).

    Raises ValueError for a name :func:`repro.bench.build_case` cannot
    build or a scale that is not a finite number > 0.
    """
    from repro.bench import CASE_NAMES, check_scale

    name, at, scale = text.partition("@")
    if name not in CASE_NAMES:
        raise ValueError(
            f"unknown case {name!r} (known: {', '.join(CASE_NAMES)})"
        )
    return CaseSpec(testcase=name, scale=check_scale(scale) if at else 1.0)


#: The committed golden corpus: what `goldens/compare/` pins and CI
#: gates.  Scales match the qa golden corpus where one exists.
GOLDEN_MATRIX = (
    CaseSpec("ispd18_test1", 0.004),
    CaseSpec("ispd18_test5", 0.002),
    CaseSpec("ispd18_test8", 0.002),
    CaseSpec("aes_14nm", 0.01),
    CaseSpec("pinzoo_sram", 1.0),
    CaseSpec("pinzoo_io", 1.0),
    CaseSpec("pinzoo_hostile", 1.0),
)

#: The CI smoke matrix: one friendly case plus the whole zoo.
SMOKE_MATRIX = (
    CaseSpec("ispd18_test1", 0.004),
    CaseSpec("pinzoo_sram", 1.0),
    CaseSpec("pinzoo_io", 1.0),
    CaseSpec("pinzoo_hostile", 1.0),
)
