"""The design container (DEF DESIGN)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.inst import Instance
from repro.db.master import CellMaster
from repro.db.net import IOPin, Net
from repro.db.tracks import TrackPattern
from repro.geom.point import Point
from repro.geom.rect import Rect
from repro.geom.transform import Orientation
from repro.tech.technology import Technology


@dataclass
class Row:
    """A DEF ROW: ``count`` sites starting at ``origin``.

    ``orient`` applies to every component placed in the row (standard
    row flipping alternates R0 / MX).
    """

    name: str
    origin: Point
    orient: Orientation
    count: int
    site_width: int
    site_height: int

    @property
    def bbox(self) -> Rect:
        """Return the row's bounding box."""
        return Rect(
            self.origin.x,
            self.origin.y,
            self.origin.x + self.count * self.site_width,
            self.origin.y + self.site_height,
        )

    def site_x(self, site_index: int) -> int:
        """Return the x coordinate of site ``site_index``."""
        if not 0 <= site_index < self.count:
            raise IndexError(f"site {site_index} outside row {self.name}")
        return self.origin.x + site_index * self.site_width


class Design:
    """A placed design: technology, masters, instances, rows, tracks, nets.

    The fixed shapes that DRC checks run against (pin shapes and
    obstructions of all placed instances, plus IO pins) are indexed by
    :meth:`repro.drc.context.ShapeContext.from_design`.
    """

    def __init__(self, name: str, tech: Technology):
        self.name = name
        self.tech = tech
        self.die_area = Rect(0, 0, 0, 0)
        self.core_origin = Point(0, 0)
        self.masters = {}
        self.instances = {}
        self.rows = []
        self.track_patterns = []
        self.nets = {}
        self.io_pins = {}
        self._net_of_term = None

    # -- construction ------------------------------------------------------

    def add_master(self, master: CellMaster) -> CellMaster:
        """Register a cell master."""
        if master.name in self.masters:
            raise ValueError(f"duplicate master {master.name}")
        self.masters[master.name] = master
        return master

    def add_instance(self, inst: Instance) -> Instance:
        """Place an instance."""
        if inst.name in self.instances:
            raise ValueError(f"duplicate instance {inst.name}")
        if inst.master.name not in self.masters:
            self.add_master(inst.master)
        self.instances[inst.name] = inst
        return inst

    def add_row(self, row: Row) -> Row:
        """Register a placement row."""
        self.rows.append(row)
        return row

    def add_track_pattern(self, pattern: TrackPattern) -> TrackPattern:
        """Register a track pattern."""
        if not self.tech.has_layer(pattern.layer_name):
            raise ValueError(
                f"track pattern on unknown layer {pattern.layer_name}"
            )
        self.track_patterns.append(pattern)
        return pattern

    def add_net(self, net: Net) -> Net:
        """Register a net."""
        if net.name in self.nets:
            raise ValueError(f"duplicate net {net.name}")
        self.nets[net.name] = net
        self._net_of_term = None
        return net

    def add_io_pin(self, pin: IOPin) -> IOPin:
        """Register a top-level IO pin."""
        if pin.name in self.io_pins:
            raise ValueError(f"duplicate IO pin {pin.name}")
        self.io_pins[pin.name] = pin
        return pin

    # -- queries -----------------------------------------------------------

    def instance(self, name: str) -> Instance:
        """Return the instance named ``name``."""
        try:
            return self.instances[name]
        except KeyError:
            raise KeyError(f"no instance named {name!r}") from None

    def track_patterns_on(self, layer_name: str) -> list:
        """Return the track patterns on ``layer_name``."""
        return [p for p in self.track_patterns if p.layer_name == layer_name]

    def net_of(self, instance_name: str, pin_name: str) -> Net:
        """Return the net attached to an instance pin, or None."""
        if self._net_of_term is None:
            self._net_of_term = {}
            for net in self.nets.values():
                for term in net.terms:
                    self._net_of_term[term] = net
        return self._net_of_term.get((instance_name, pin_name))

    def connected_pins(self) -> list:
        """Return all net-attached instance pins as (inst, pin) pairs.

        This is the population that Table III counts as "Total #Pins":
        every instance pin with a net attached must receive a DRC-clean
        access point.
        """
        out = []
        for net in self.nets.values():
            for inst_name, pin_name in net.terms:
                inst = self.instances.get(inst_name)
                if inst is not None:
                    out.append((inst, inst.master.pin(pin_name)))
        return out

    def rows_of(self, inst) -> list:
        """Return the y of every row whose clusters ``inst`` joins.

        A multi-height instance joins every row its bounding box
        covers; a macro joins none (it forms a singleton cluster).
        """
        if inst.master.is_macro:
            return []
        site_h = self.tech.site_height or 0
        if site_h <= 0:
            return [inst.location.y]
        covered = max(1, inst.bbox.height // site_h)
        return [inst.location.y + k * site_h for k in range(covered)]

    def row_clusters(self) -> list:
        """Group instances into per-row contiguous clusters.

        Returns a list of clusters; each cluster is a list of
        :class:`Instance` sorted left-to-right with no empty site
        between consecutive members (paper Sec. III-C: "each continuous
        chunk of instances (no empty site in between) forms a
        cluster").  Macros and unplaced-row instances form singleton
        clusters.

        A multi-height instance is a member of *every* row its bounding
        box covers, so its boundary conflicts against neighbors in the
        upper rows are seen too; the pattern selector keeps its choice
        consistent across those clusters.
        """
        by_row_y = {}
        singletons = []
        for inst in self.instances.values():
            rows = self.rows_of(inst)
            if not rows:
                singletons.append([inst])
                continue
            for y in rows:
                by_row_y.setdefault(y, []).append(inst)
        clusters = []
        for y in sorted(by_row_y):
            insts = sorted(by_row_y[y], key=lambda i: i.location.x)
            current = [insts[0]]
            for inst in insts[1:]:
                prev = current[-1]
                if inst.location.x <= prev.location.x + prev.bbox.width:
                    current.append(inst)
                else:
                    clusters.append(current)
                    current = [inst]
            clusters.append(current)
        clusters.extend(singletons)
        return clusters

    # -- statistics ----------------------------------------------------------

    def stats(self) -> dict:
        """Return the Table I-style summary of this design."""
        std = sum(
            1 for i in self.instances.values() if not i.master.is_macro
        )
        macro = sum(1 for i in self.instances.values() if i.master.is_macro)
        die = self.die_area
        return {
            "name": self.name,
            "num_std_cells": std,
            "num_macros": macro,
            "num_nets": len(self.nets),
            "num_io_pins": len(self.io_pins),
            "num_layers": len(self.tech.routing_layers()),
            "die_mm": (
                self.tech.microns(die.width) / 1000.0,
                self.tech.microns(die.height) / 1000.0,
            ),
            "node": self.tech.name,
        }

    def __str__(self) -> str:
        return (
            f"Design({self.name}, {len(self.instances)} instances, "
            f"{len(self.nets)} nets)"
        )
