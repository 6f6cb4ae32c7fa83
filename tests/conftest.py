"""Shared fixtures for the test suite."""

import pytest

from repro import (
    CellMaster,
    Design,
    Instance,
    MasterPin,
    Orientation,
    Point,
    Rect,
    make_node,
)
from repro.db.master import PinUse
from repro.db.net import Net
from repro.db.tracks import TrackPattern
from repro.tech.layer import RoutingDirection


@pytest.fixture(scope="session")
def n45():
    """The 45 nm node preset (session-scoped: it is immutable)."""
    return make_node("N45")


@pytest.fixture(scope="session")
def n32():
    return make_node("N32")


@pytest.fixture(scope="session")
def n14():
    return make_node("N14")


def make_simple_master(name="CELL_X1", width=700, height=1400) -> CellMaster:
    """A small cell with rails and two well-shaped signal pins."""
    master = CellMaster(name=name, width=width, height=height)
    vss = MasterPin(name="VSS", use=PinUse.GROUND)
    vss.add_shape("M1", Rect(0, 0, width, 140))
    master.add_pin(vss)
    vdd = MasterPin(name="VDD", use=PinUse.POWER)
    vdd.add_shape("M1", Rect(0, height - 140, width, height))
    master.add_pin(vdd)
    a = MasterPin(name="A")
    a.add_shape("M1", Rect(140, 560, 420, 700))
    master.add_pin(a)
    z = MasterPin(name="Z")
    z.add_shape("M1", Rect(420, 840, 630, 980))
    master.add_pin(z)
    return master


def make_simple_design(tech, num_instances=2) -> Design:
    """A one-row design with abutting simple cells and full tracks."""
    design = Design("simple", tech)
    master = make_simple_master()
    design.add_master(master)
    design.die_area = Rect(0, 0, 14000, 5600)
    for layer in tech.routing_layers():
        direction = layer.direction
        design.add_track_pattern(
            TrackPattern(
                layer_name=layer.name,
                direction=direction,
                start=layer.offset,
                step=layer.pitch,
                count=(
                    14000 // layer.pitch
                    if direction is RoutingDirection.VERTICAL
                    else 5600 // layer.pitch
                ),
            )
        )
    for k in range(num_instances):
        inst = Instance(
            name=f"u{k}",
            master=master,
            location=Point(1400 + k * master.width, 1400),
            orient=Orientation.R0,
        )
        design.add_instance(inst)
        for pin_name in ("A", "Z"):
            net = Net(name=f"net_{k}_{pin_name}")
            net.add_term(inst.name, pin_name)
            design.add_net(net)
    return design


@pytest.fixture
def simple_design(n45):
    return make_simple_design(n45)


def one_site_moves(design) -> list:
    """One-site moves of cells that share a row with a double-height cell.

    Returns ``(instance, target)`` pairs in row/x order: every
    single-height standard cell in a row some double-height cell
    covers, shifted one site right, or left when the right site is
    taken.  Cells boxed in on both sides are skipped.
    """
    site_w = design.tech.site_width
    site_h = design.tech.site_height
    shared_rows = {
        y
        for inst in design.instances.values()
        if inst.bbox.height > site_h
        for y in design.rows_of(inst)
    }
    moves = []
    for inst in sorted(
        design.instances.values(),
        key=lambda i: (i.location.y, i.location.x),
    ):
        if inst.master.is_macro or inst.bbox.height != site_h:
            continue
        if inst.location.y not in shared_rows:
            continue
        for dx in (site_w, -site_w):
            box = Rect(
                inst.bbox.xlo + dx, inst.bbox.ylo,
                inst.bbox.xhi + dx, inst.bbox.yhi,
            )
            if not any(
                other is not inst and box.overlaps(other.bbox)
                for other in design.instances.values()
            ):
                target = Point(inst.location.x + dx, inst.location.y)
                moves.append((inst, target))
                break
    return moves
