"""Tests for IO pin access analysis."""

import pytest

from repro.bench import build_testcase
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
