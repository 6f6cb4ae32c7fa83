"""Tests for the persistent AP/pattern cache.

Contract: a warm run loads Step 1/2 output from disk and produces a
result identical to the cold run; any change to the tech or to an
algorithmic config knob lands in a different fingerprint directory and
misses cleanly; a corrupt entry degrades to a miss, never to a wrong
answer.
"""

import dataclasses
import glob
import os
import pickle

import pytest

from repro.bench import build_testcase
from repro.core import PaafConfig, PinAccessFramework
from repro.perf.apcache import (
    PERF_ONLY_FIELDS,
    AccessCache,
    paaf_fingerprint,
)

from tests.test_perf_parallel import _fingerprint


@pytest.fixture(scope="module")
def design():
    return build_testcase("ispd18_test1", scale=0.004)


def _run(design, cache_dir, use_cache=True, **config_kwargs):
    config = PaafConfig(cache_dir=str(cache_dir), **config_kwargs)
    return PinAccessFramework(design, config).run(use_cache=use_cache)


class TestWarmRuns:
    def test_warm_run_identical_and_skips_step12(self, design, tmp_path):
        cold = _run(design, tmp_path)
        n_uniques = cold.stats["paaf.unique_instances"]
        assert cold.stats["apcache.hit"] == 0
        assert cold.stats["apcache.store"] == n_uniques
        assert cold.stats["paaf.step12_tasks"] == n_uniques

        warm = _run(design, tmp_path)
        assert warm.stats["apcache.hit"] == n_uniques
        assert warm.stats["apcache.miss"] == 0
        assert warm.stats["paaf.step12_tasks"] == 0  # Step 1/2 fully skipped
        assert _fingerprint(warm) == _fingerprint(cold)
        # The cache directory holds the per-signature entries only.
        (root,) = glob.glob(str(tmp_path / "*"))
        assert len(os.listdir(root)) == n_uniques

    def test_cold_warm_tables_build_lazily(self, design, tmp_path):
        cold = _run(design, tmp_path)
        # Kernel tables compile on first use: far fewer than every
        # (via, via, same_net) combination.
        pair_tables = 2 * len(design.tech.vias) ** 2
        assert 0 < cold.stats["pairkernel.built"] < pair_tables
        assert cold.stats["arraykernel.built"] > 0
        framework = PinAccessFramework(
            design, PaafConfig(cache_dir=str(tmp_path))
        )
        warm = framework.run()
        assert warm.stats["paaf.step12_tasks"] == 0
        assert warm.stats["apcache.miss"] == 0
        # Step 1 ran nowhere, so no cell compiled its Step 1 tables;
        # Step 3 compiled only the per-via tables it probed.
        assert framework.akernel.tables == {}
        assert warm.stats["arraykernel.built"] == 0
        assert framework.akernel.instance_tables
        assert _fingerprint(warm) == _fingerprint(cold)

    def test_use_cache_false_bypasses(self, design, tmp_path):
        _run(design, tmp_path)
        bypass = _run(design, tmp_path, use_cache=False)
        assert "apcache.hit" not in bypass.stats
        assert bypass.stats["paaf.step12_tasks"] == bypass.stats["paaf.unique_instances"]


class TestInvalidation:
    def test_config_change_misses(self, design, tmp_path):
        cold = _run(design, tmp_path)
        assert cold.stats["apcache.store"] > 0
        changed = _run(design, tmp_path, alpha=PaafConfig().alpha + 1)
        # Different fingerprint directory: all misses, no stale hits.
        assert changed.stats["apcache.hit"] == 0
        assert changed.stats["apcache.miss"] > 0

    def test_perf_only_knobs_share_fingerprint(self, design):
        base = PaafConfig()
        for field in PERF_ONLY_FIELDS:
            assert hasattr(base, field)
        tweaked = dataclasses.replace(
            base,
            cache_dir="/somewhere/else",
            profile=True,
            paircheck_mode="engine",
            apcheck_mode="engine",
        )
        assert paaf_fingerprint(design, base) == paaf_fingerprint(
            design, tweaked
        )

    def test_algorithmic_knobs_change_fingerprint(self, design):
        base = PaafConfig()
        assert paaf_fingerprint(design, base) != paaf_fingerprint(
            design, base.without_bca()
        )

    def test_corrupt_entry_is_a_miss(self, design, tmp_path):
        _run(design, tmp_path)
        entries = glob.glob(str(tmp_path / "*" / "*.pkl"))
        assert entries
        # Alternate payloads: one raises UnpicklingError outright, the
        # other starts with a valid opcode and fails deeper inside
        # pickle with a different exception type.
        for i, path in enumerate(entries):
            with open(path, "wb") as handle:
                handle.write(b"not a pickle" if i % 2 else b"garbage\n")
        recovered = _run(design, tmp_path)
        assert recovered.stats["apcache.hit"] == 0
        assert recovered.stats["apcache.miss"] > 0
        # And it re-stores good entries over the corrupt ones.
        warm = _run(design, tmp_path)
        assert warm.stats["apcache.hit"] > 0


def _entry_paths(cache_dir):
    return sorted(glob.glob(str(cache_dir / "*" / "*.pkl")))


class TestStaleDetection:
    """Entries that unpickle fine but hold wrong content are flagged.

    The recorded content digest catches bit rot and tampering; the
    recorded fingerprint catches files copied between generations.
    Both degrade to a miss -- the flow recomputes and the result stays
    bit-identical to a cold run.
    """

    def test_tampered_entry_degrades_to_miss(self, design, tmp_path):
        cold = _run(design, tmp_path)
        path = _entry_paths(tmp_path)[0]
        with open(path, "rb") as handle:
            entry = pickle.load(handle)
        pin = sorted(entry["aps_by_pin"])[0]
        entry["aps_by_pin"][pin][0].x += 5  # digest no longer matches
        with open(path, "wb") as handle:
            pickle.dump(entry, handle, protocol=4)

        warm = _run(design, tmp_path)
        stats = warm.stats
        assert stats["apcache.stale"] == 1
        assert stats["apcache.miss"] == 1
        assert stats["apcache.hit"] == warm.stats["paaf.unique_instances"] - 1
        assert _fingerprint(warm) == _fingerprint(cold)

        # The recomputed entry was re-stored over the tampered one.
        again = _run(design, tmp_path)
        assert again.stats["apcache.stale"] == 0
        assert again.stats["apcache.miss"] == 0

    def test_cross_fingerprint_copy_is_stale(self, design, tmp_path):
        _run(design, tmp_path)
        path = _entry_paths(tmp_path)[0]
        with open(path, "rb") as handle:
            entry = pickle.load(handle)
        entry["fingerprint"] = "0" * 64
        with open(path, "wb") as handle:
            pickle.dump(entry, handle, protocol=4)
        warm = _run(design, tmp_path)
        assert warm.stats["apcache.stale"] == 1

    def test_clean_warm_run_reports_zero_stale(self, design, tmp_path):
        _run(design, tmp_path)
        warm = _run(design, tmp_path)
        assert warm.stats["apcache.stale"] == 0


class TestCacheUnit:
    def test_load_missing_is_miss(self, tmp_path):
        cache = AccessCache(str(tmp_path), "deadbeef" * 8)
        class FakeUi:
            signature = ("M", "N", (0, 0))
            class representative:
                class location:
                    x = 0
                    y = 0
        assert cache.load(FakeUi) is None
        assert cache.misses == 1

    def test_store_is_atomic(self, design, tmp_path):
        """No partial entry files are left behind after a run."""
        _run(design, tmp_path)
        stray = [
            name
            for name in os.listdir(next(iter(glob.glob(str(tmp_path / "*")))))
            if not name.endswith(".pkl")
        ]
        assert stray == []
