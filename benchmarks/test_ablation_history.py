"""Ablation: history-aware optimization (paper Algorithm 3, lines 9-10).

The history cost lets the DP price conflicts with the pin *two* groups
back.  On the generated suite the cell generator keeps pin slots wide
enough that next-nearest-neighbor conflicts are rare, so the ablation
adds a *dense-pin* stress population: three-pin chains where the outer
pins conflict unless the DP's history cost steers them apart.  Without
history the DP is blind to the A-C interaction and emits dirty
patterns (caught only by post-validation); with history it avoids
them.
"""

import random

from repro.core import PaafConfig
from repro.core.apgen import AccessPoint
from repro.core.arraykernel import ArrayKernel
from repro.core.coords import CoordType
from repro.core.patterngen import AccessPatternGenerator
from repro.db.design import Design
from repro.drc.engine import DrcEngine
from repro.drc.pairkernel import PairKernel
from repro.report import format_table
from repro.tech import make_n45

from benchmarks.conftest import publish


def dense_three_pin_instances(count, seed=3):
    """Synthetic dense unique instances: A-B-C chains, A/C can clash.

    Pin B sits far away in y (never conflicts); A and C each offer two
    x positions 140 apart -- the near pair conflicts (enclosure gap 0),
    the far pair is clean.  Only the history cost sees A from C.
    """
    rng = random.Random(seed)

    def ap(x, y, cost=0):
        return AccessPoint(
            x=x,
            y=y,
            layer_name="M1",
            pref_type=CoordType(cost),
            nonpref_type=CoordType.ON_TRACK,
            valid_vias=["V12_P"],
            planar_dirs=[],
        )

    population = []
    for _ in range(count):
        base = rng.randrange(0, 2000, 10)
        y = rng.randrange(0, 1000, 10)
        aps_by_pin = {
            # A prefers its right AP (cost 0), C prefers its left AP:
            # the preferred pair is 140 apart -> conflict.
            "A": [ap(base + 140, y, cost=0), ap(base, y, cost=1)],
            "B": [ap(base + 140, y + 600, cost=0)],
            "C": [ap(base + 280, y, cost=0), ap(base + 420, y, cost=1)],
        }
        population.append(aps_by_pin)
    return population


def run(population, history):
    tech = make_n45()
    config = PaafConfig(
        history_aware=history, patterns_per_unique_instance=1
    )
    engine = DrcEngine(tech)
    generator = AccessPatternGenerator(
        tech, engine, config,
        kernel=PairKernel(tech, mode=config.paircheck_mode, engine=engine),
        akernel=ArrayKernel(Design("ablation", tech), engine=engine),
    )
    dirty = 0
    for aps_by_pin in population:
        patterns = generator.generate(aps_by_pin)
        dirty += sum(1 for p in patterns if not p.is_clean)
    return dirty


def test_ablation_history(once):
    population = dense_three_pin_instances(60)
    dirty_on = once(run, population, True)
    dirty_off = run(population, False)
    text = format_table(
        ["History-aware", "#Dirty patterns (of 60 dense instances)"],
        [["on (paper)", dirty_on], ["off", dirty_off]],
        title=(
            "Ablation: history-aware edge cost (Algorithm 3 lines 9-10) "
            "on dense three-pin chains"
        ),
    )
    publish("ablation_history", text)

    assert dirty_on == 0
    assert dirty_off > 0
