"""Hostile-input equivalence tests for the compiled array kernel.

A hand-written LEF/DEF stresses the corners Algorithm 1 meets in real
libraries -- an obstruction strip forcing a spacing rejection, a pin
buried entirely under an obstruction, a sliver pin with a single
candidate, and an instance placed off the routing grid -- and asserts
the array backend reproduces the engine backend's access map bit for
bit on every one of them.  The compiled-table building blocks are
exercised directly as well: min-step verdicts against the engine's
polygon walk, one compile per (cell, via) shared by Steps 1 and 3, and
the ``verify`` mode's :class:`ApCheckMismatch` alarm on a corrupted
table.
"""

import pytest

from repro.core import PinAccessFramework, arraykernel
from repro.core.apgen import AccessPointGenerator
from repro.core.arraykernel import (
    ApCheckMismatch,
    ArrayKernel,
    MinStepTable,
    VerifiedSite,
    build_cell_tables,
)
from repro.core.config import PaafConfig
from repro.drc.disptable import BOX, DisplacementTable, VerifiedTable
from repro.drc.minstep import check_min_step
from repro.geom.rect import Rect
from repro.lefdef import parse_def, parse_lef
from repro.obs.metrics import collecting
from tests.conftest import make_simple_design

# Three macros, one per hostile shape:
#  * AND2    -- the test_obs_explain cell: an OBS strip one track above
#    pin A kills exactly one on-track via candidate via metal spacing;
#  * BURIED  -- pin B sits entirely under a same-layer obstruction, so
#    every candidate fails and the pin ends up without access;
#  * SLIVER  -- pin S is one track wide and one candidate tall.
HOSTILE_LEF = """
VERSION 5.8 ;
UNITS
  DATABASE MICRONS 2000 ;
END UNITS
MANUFACTURINGGRID 0.005 ;

SITE core
  CLASS CORE ;
  SIZE 0.2 BY 1.8 ;
END core

LAYER metal1
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
  PITCH 0.2 ;
  OFFSET 0.1 ;
  WIDTH 0.1 ;
  MINSTEP 0.08 ;
  SPACINGTABLE
    PARALLELRUNLENGTH 0 0.5
    WIDTH 0 0.1 0.1
    WIDTH 0.3 0.1 0.2 ;
END metal1

LAYER cut1
  TYPE CUT ;
  SPACING 0.1 ;
END cut1

LAYER metal2
  TYPE ROUTING ;
  DIRECTION VERTICAL ;
  PITCH 0.2 ;
  OFFSET 0.1 ;
  WIDTH 0.1 ;
END metal2

VIA cutvia DEFAULT
  LAYER metal1 ;
    RECT -0.1 -0.05 0.1 0.05 ;
  LAYER cut1 ;
    RECT -0.05 -0.05 0.05 0.05 ;
  LAYER metal2 ;
    RECT -0.05 -0.1 0.05 0.1 ;
END cutvia

MACRO AND2
  CLASS CORE ;
  ORIGIN 0 0 ;
  SIZE 0.6 BY 1.8 ;
  SITE core ;
  PIN A
    DIRECTION INPUT ;
    USE SIGNAL ;
    PORT
      LAYER metal1 ;
        RECT 0.1 0.5 0.2 0.9 ;
        RECT 0.1 0.5 0.35 0.6 ;
    END
  END A
  OBS
    LAYER metal1 ;
      RECT 0.0 1.0 0.6 1.1 ;
  END
END AND2

MACRO BURIED
  CLASS CORE ;
  ORIGIN 0 0 ;
  SIZE 0.6 BY 1.8 ;
  SITE core ;
  PIN B
    DIRECTION INPUT ;
    USE SIGNAL ;
    PORT
      LAYER metal1 ;
        RECT 0.1 0.5 0.3 0.9 ;
    END
  END B
  OBS
    LAYER metal1 ;
      RECT 0.05 0.45 0.35 0.95 ;
  END
END BURIED

MACRO SLIVER
  CLASS CORE ;
  ORIGIN 0 0 ;
  SIZE 0.6 BY 1.8 ;
  SITE core ;
  PIN S
    DIRECTION INPUT ;
    USE SIGNAL ;
    PORT
      LAYER metal1 ;
        RECT 0.25 0.95 0.35 1.05 ;
    END
  END S
END SLIVER

END LIBRARY
"""

# u3 is deliberately placed 30 DBU off the 400-DBU component grid, so
# its pin shapes sit off-track and the candidate ladder must fall back
# past the on-track coordinate types.
HOSTILE_DEF = """
VERSION 5.8 ;
DESIGN hostile ;
UNITS DISTANCE MICRONS 2000 ;
DIEAREA ( 0 0 ) ( 10000 10000 ) ;

ROW r0 core 0 0 N DO 25 BY 1 STEP 400 0 ;

TRACKS Y 200 DO 25 STEP 400 LAYER metal1 ;
TRACKS X 200 DO 25 STEP 400 LAYER metal2 ;

COMPONENTS 4 ;
- u1 AND2 + PLACED ( 400 0 ) N ;
- u2 BURIED + PLACED ( 2000 0 ) N ;
- u3 SLIVER + PLACED ( 3230 0 ) N ;
- u4 AND2 + PLACED ( 4400 0 ) FS ;
END COMPONENTS

NETS 4 ;
- n1 ( u1 A ) ;
- n2 ( u2 B ) ;
- n3 ( u3 S ) ;
- n4 ( u4 A ) ;
END NETS

END DESIGN
"""


@pytest.fixture(scope="module")
def design():
    tech, masters = parse_lef(HOSTILE_LEF, name="hostile")
    return parse_def(HOSTILE_DEF, tech, masters)


def _run(design, mode):
    return PinAccessFramework(
        design, PaafConfig(apcheck_mode=mode)
    ).run(use_cache=False)


def _fingerprint(result):
    return sorted(
        (inst, pin, ap.x, ap.y, ap.primary_via, tuple(ap.planar_dirs))
        for (inst, pin), ap in result.access_map().items()
    )


class TestHostileEquivalence:
    def test_array_matches_engine_exactly(self, design):
        engine = _run(design, "engine")
        array = _run(design, "array")
        assert _fingerprint(array) == _fingerprint(engine)
        assert array.stats["arraykernel.mode"] == "array"
        assert array.stats["arraykernel.built"] > 0

    def test_verify_mode_runs_clean(self, design):
        # verify recomputes every verdict through the engine and
        # raises on the first divergence; completing is the assertion.
        verify = _run(design, "verify")
        assert verify.stats["arraykernel.verify_mismatches"] == 0
        assert _fingerprint(verify) == _fingerprint(_run(design, "engine"))

    def test_buried_pin_gets_no_access_either_way(self, design):
        engine = _run(design, "engine")
        array = _run(design, "array")
        for result in (engine, array):
            accessed = {pin for (_inst, pin) in result.access_map()}
            assert "B" not in accessed

    def test_per_pin_candidates_match(self, design):
        # Same selected point is necessary but not sufficient; the
        # whole surviving candidate set must agree per pin.
        engine = _run(design, "engine")
        array = _run(design, "array")

        def candidates(result):
            out = {}
            for ua in result.unique_accesses:
                rep = ua.unique_instance.representative.name
                for pin_name, aps in ua.aps_by_pin.items():
                    out[(rep, pin_name)] = sorted(
                        (
                            ap.x,
                            ap.y,
                            tuple(ap.valid_vias),
                            tuple(ap.planar_dirs),
                        )
                        for ap in aps
                    )
            return out

        assert candidates(array) == candidates(engine)


class TestMinStepTable:
    def test_exact_path_matches_engine_walk(self, design):
        # Sweep an enclosure over an L-shaped pin: the closed-form
        # _dirty_exact must agree with the engine's boundary-edge walk
        # at every displacement, including the no-overlap fringes.
        layer = design.tech.layer("metal1")
        rule = layer.min_step
        assert rule is not None and rule.max_edges == 0
        own = [Rect(0, 0, 400, 120), Rect(280, 0, 400, 600)]
        enc = Rect(-200, -100, 200, 100)
        table = MinStepTable(rule.min_step_length, rule.max_edges, enc, own)
        for dx in range(-300, 701, 50):
            for dy in range(-200, 801, 50):
                moved = enc.translated(dx, dy)
                reference = bool(check_min_step(
                    layer,
                    [moved] + [r for r in own if r.intersects(moved)],
                ))
                assert table.dirty(dx, dy, layer) == reference, (dx, dy)


class TestSignalPinsOnly:
    def test_power_pins_get_no_step1_tables(self, n45):
        design = make_simple_design(n45)
        inst = next(iter(design.instances.values()))
        tables = build_cell_tables(n45, inst)
        assert {pin for pin, _via in tables.site} == {"A", "Z"}
        assert {pin for pin, _via in tables.minstep} == {"A", "Z"}
        assert {pin for pin, _layer in tables.planar} == {"A", "Z"}
        # The rails stay fixed shapes: a via dropped on the VSS rail
        # (origin-relative 0..700 x 0..140) is dirty for pin A and for
        # the Step 3 table alike.
        assert not tables.site[("A", "V12_P")].clean(350, 70)
        step3 = ArrayKernel(design).instance_table("V12_P", inst)
        assert not step3.clean(350, 70)


class TestCompileOnce:
    def test_cold_run_compiles_each_cell_via_once(
        self, design, monkeypatch
    ):
        # Step 1's site tables and Step 3's table of one (cell, via)
        # assemble from a single compile of the via against the cell.
        compiled = []
        real = arraykernel.via_entries

        def counted(tech, by_layer, via, memo):
            compiled.append((id(by_layer), via.name))
            return real(tech, by_layer, via, memo)

        monkeypatch.setattr(arraykernel, "via_entries", counted)
        framework = PinAccessFramework(design, PaafConfig())
        framework.run(use_cache=False)
        kernel = framework.akernel
        step1 = {
            (cell, via)
            for cell, tables in kernel.tables.items()
            for _pin, via in tables.site
        }
        step3 = {(key[:2], key[2]) for key in kernel.instance_tables}
        assert step1 & step3  # the shared compile is exercised
        assert len(compiled) == len(set(compiled))
        assert set(compiled) == {
            (id(kernel._cells[cell].by_layer), via)
            for cell, via in step1 | step3
        }


def _everything_dirty() -> DisplacementTable:
    """A table no engine cross-check can agree with: all dirty."""
    big = 10 ** 9
    return DisplacementTable(
        (-big, big, -big, big),
        ((BOX, -big, big, -big, big),),
        ((-big, big, -big, big),),
    )


class TestVerifyAlarm:
    def test_corrupted_table_raises_mismatch(self, design):
        kernel = ArrayKernel(design, mode="verify")
        inst = next(
            i for i in design.instances.values()
            if i.master.name == "AND2"
        )
        # Poison the compiled Step-3 table the verdict wraps.
        verdict = kernel.instance_table("cutvia", inst)
        assert isinstance(verdict, VerifiedTable)
        verdict.table = _everything_dirty()
        with pytest.raises(ApCheckMismatch, match="diverged"):
            kernel.via_vs_instance_clean(
                "cutvia",
                inst.location.x - 400,
                inst.location.y + 400,
                inst,
            )
        assert kernel.verify_mismatches == 1
        assert isinstance(ApCheckMismatch("x"), RuntimeError)

    @pytest.mark.parametrize("mode", ["array", "verify"])
    def test_poisoned_step1_site_table_counts_a_mismatch(self, design, mode):
        # Verify mode's row check finds the engine clean where the
        # table is dirty; in array mode the probe that names the
        # rejection to the active registry does.
        kernel = ArrayKernel(design, mode=mode)
        inst = next(
            i for i in design.instances.values()
            if i.master.name == "AND2"
        )
        tables = kernel.cell_tables(inst)
        if mode == "verify":
            assert isinstance(tables.site[("A", "cutvia")], VerifiedSite)
            tables.site[("A", "cutvia")].table = _everything_dirty()
        else:
            tables.site[("A", "cutvia")] = _everything_dirty()
        generator = AccessPointGenerator(design, akernel=kernel)
        with collecting() as registry:
            with pytest.raises(ApCheckMismatch, match="diverged"):
                generator.generate_for_pin(inst, inst.master.pin("A"))
        assert kernel.verify_mismatches == 1
        assert registry.counters["arraykernel.verify.mismatch"] == 1
