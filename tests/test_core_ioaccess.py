"""Tests for IO pin access analysis."""

import hashlib
import json

import pytest

from repro.bench import build_case, build_testcase
from repro.core.ioaccess import IoPinAccess
from repro.drc import DrcEngine, ShapeContext


@pytest.fixture(scope="module")
def env():
    design = build_testcase("ispd18_test2", scale=0.005)
    assert design.io_pins
    access = IoPinAccess(design).run()
    return design, access


class TestIoAccess:
    def test_every_io_pin_covered(self, env):
        design, access = env
        assert set(access) == set(design.io_pins)

    def test_every_io_pin_gets_points(self, env):
        design, access = env
        for name, aps in access.items():
            assert aps, f"IO pin {name} has no access points"

    def test_points_on_pin_shape(self, env):
        design, access = env
        for name, aps in access.items():
            rect = design.io_pins[name].rect
            for ap in aps:
                assert rect.xlo <= ap.x <= rect.xhi
                assert rect.ylo <= ap.y <= rect.yhi
                assert ap.layer_name == design.io_pins[name].layer_name

    def test_points_are_drc_clean(self, env):
        design, access = env
        engine = DrcEngine(design.tech)
        context = ShapeContext.from_design(design)
        for name, aps in access.items():
            io_pin = design.io_pins[name]
            net_key = next(
                (
                    net.name
                    for net in design.nets.values()
                    if name in net.io_pins
                ),
                name,
            )
            for ap in aps:
                via = design.tech.via(ap.primary_via)
                assert (
                    engine.check_via_placement(
                        via, ap.x, ap.y, net_key, context
                    )
                    == []
                )

    def test_quota_respected(self, env):
        design, access = env
        for aps in access.values():
            assert len(aps) <= 8  # k=3 with group completion

    def test_design_without_io_pins(self, n45, monkeypatch):
        from tests.conftest import make_simple_design

        def no_context(design):
            raise AssertionError("built a design context for no IO pins")

        # No IO pin to check, so no full-design context is built.
        monkeypatch.setattr(
            ShapeContext, "from_design", staticmethod(no_context)
        )
        design = make_simple_design(n45)
        assert not design.io_pins
        assert IoPinAccess(design).run() == {}


def io_digest(access) -> str:
    """sha256 of every IO access point, in pin and generation order."""
    points = {
        name: [
            [ap.x, ap.y, ap.layer_name, ap.valid_vias, ap.planar_dirs,
             int(ap.pref_type), int(ap.nonpref_type)]
            for ap in aps
        ]
        for name, aps in access.items()
    }
    text = json.dumps(points, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 digests of the IO access points of two fixed designs.
IO_DIGESTS = {
    ("pinzoo_io", 1): (
        "ad5c95b1c09952a8865394d5699a20a1"
        "7a83522a8ab79d2140d3b4499ed10219"
    ),
    ("ispd18_test5", 0.002): (
        "e2e53d3602a2061e7fd2e631b9359cd1"
        "e5bd67a94a227cb8d476942c28a834ea"
    ),
}


class TestPinnedIoAccess:
    @pytest.mark.parametrize("case", sorted(IO_DIGESTS))
    def test_io_access_points_match_pinned_digest(self, case):
        access = IoPinAccess(build_case(*case)).run()
        assert access
        assert io_digest(access) == IO_DIGESTS[case]
