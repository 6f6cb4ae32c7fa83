"""Unit tests for access pattern generation (Algorithms 2-3)."""

import pytest

from repro.core.apgen import AccessPoint
from repro.core.arraykernel import ArrayKernel
from repro.core.config import PaafConfig
from repro.core.coords import CoordType
from repro.core.patterngen import AccessPatternGenerator, order_pins
from repro.drc.engine import DrcEngine
from repro.drc.pairkernel import PairKernel

from tests.conftest import make_simple_design


def ap(x, y, cost_types=(0, 0), vias=("V12_P",)):
    return AccessPoint(
        x=x,
        y=y,
        layer_name="M1",
        pref_type=CoordType(cost_types[0]),
        nonpref_type=CoordType(cost_types[1]),
        valid_vias=list(vias),
        planar_dirs=[],
    )


class TestOrderPins:
    def test_orders_by_x_when_alpha_zero(self):
        aps = {
            "Z": [ap(900, 0)],
            "A": [ap(100, 0)],
            "B": [ap(500, 0)],
        }
        assert order_pins(aps, 0.0) == ["A", "B", "Z"]

    def test_alpha_weights_y(self):
        aps = {
            "A": [ap(100, 1000)],
            "B": [ap(150, 0)],
        }
        assert order_pins(aps, 0.0) == ["A", "B"]
        assert order_pins(aps, 0.3) == ["B", "A"]

    def test_averages_over_aps(self):
        aps = {
            "A": [ap(0, 0), ap(1000, 0)],  # avg 500
            "B": [ap(400, 0)],
        }
        assert order_pins(aps, 0.0) == ["B", "A"]

    def test_pins_without_aps_excluded(self):
        aps = {"A": [ap(0, 0)], "B": []}
        assert order_pins(aps, 0.3) == ["A"]


def make_generator(tech, config=None):
    engine = DrcEngine(tech)
    return AccessPatternGenerator(
        tech, engine, config,
        kernel=PairKernel(tech, engine=engine),
        akernel=ArrayKernel(make_simple_design(tech), engine=engine),
    )


@pytest.fixture
def generator(n45):
    return make_generator(n45)


class TestPatternGeneration:
    def test_empty_input(self, generator):
        assert generator.generate({}) == []

    def test_single_pin_pattern(self, generator):
        patterns = generator.generate({"A": [ap(70, 210)]})
        assert len(patterns) == 1
        assert patterns[0].aps["A"].x == 70

    def test_conflicting_neighbors_avoided(self, generator):
        # Two pins whose closest AP pair conflicts (140 apart); each has
        # one safe alternative.  The best pattern must choose a
        # compatible combination.
        aps = {
            "A": [ap(0, 0), ap(-280, 0, cost_types=(1, 0))],
            "B": [ap(140, 0), ap(420, 0, cost_types=(1, 0))],
        }
        patterns = generator.generate(aps)
        best = patterns[0]
        dx = abs(best.aps["A"].x - best.aps["B"].x)
        assert dx >= 280
        assert best.is_clean

    def test_bca_diversifies_boundary_aps(self, n45):
        config = PaafConfig(patterns_per_unique_instance=3)
        generator = make_generator(n45, config)
        aps = {
            "A": [ap(0, 0), ap(0, 280), ap(0, 560)],
            "B": [ap(700, 0), ap(700, 280), ap(700, 560)],
        }
        patterns = generator.generate(aps)
        assert len(patterns) == 3
        boundary_choices = {
            (p.aps["A"].x, p.aps["A"].y) for p in patterns
        }
        assert len(boundary_choices) == 3  # all different

    def test_without_bca_single_pattern(self, n45):
        generator = make_generator(n45, PaafConfig().without_bca())
        aps = {
            "A": [ap(0, 0), ap(0, 280)],
            "B": [ap(700, 0), ap(700, 280)],
        }
        patterns = generator.generate(aps)
        assert len(patterns) == 1

    def test_duplicate_patterns_dropped(self, n45):
        # A single AP per pin: every iteration converges to the same
        # pattern, which must be emitted once.
        config = PaafConfig(patterns_per_unique_instance=3)
        generator = make_generator(n45, config)
        aps = {"A": [ap(0, 0)], "B": [ap(700, 0)]}
        patterns = generator.generate(aps)
        assert len(patterns) == 1

    def test_low_cost_aps_preferred(self, generator):
        aps = {
            "A": [ap(0, 0, cost_types=(2, 1)), ap(0, 280, cost_types=(0, 0))],
            "B": [ap(700, 0, cost_types=(0, 0))],
        }
        best = generator.generate(aps)[0]
        assert (best.aps["A"].x, best.aps["A"].y) == (0, 280)

    def test_validation_reports_nonneighbor_conflicts(self, n45):
        # Three pins ordered A, B, C where A and C conflict: the chain
        # DP with history should avoid it, but if it cannot (single
        # APs), validation must record the violation.
        generator = make_generator(n45)
        aps = {
            "A": [ap(0, 0)],
            "B": [ap(300, 600)],  # far in y: clean with both
            "C": [ap(140, 0)],  # conflicts with A
        }
        patterns = generator.generate(aps)
        assert patterns
        assert any(not p.is_clean for p in patterns)
        dirty = [p for p in patterns if not p.is_clean][0]
        pins_in_violations = {
            name for pa, pb, _ in dirty.violations for name in (pa, pb)
        }
        assert pins_in_violations == {"A", "C"}

    def test_planar_only_aps_always_compatible(self, generator):
        a = ap(0, 0, vias=())
        b = ap(10, 0, vias=())
        assert generator.aps_compatible(a, b)

    def test_pair_cache_symmetry(self, generator):
        a, b = ap(0, 0), ap(1000, 0)
        assert generator.aps_compatible(a, b)
        assert generator.aps_compatible(b, a)

    def test_pattern_signature(self, generator):
        patterns = generator.generate({"A": [ap(70, 210)]})
        sig = patterns[0].signature()
        assert sig == (("A", 70, 210, "V12_P"),)
