"""Legacy pin access baseline (TritonRoute v0.0.6.0 style).

The pre-PAO strategy the paper compares against in Experiments 1 and 2:

* Access points are the on-track crossing points inside the pin shape
  (preferred-direction tracks x upper-layer tracks), truncated at the
  per-pin quota.  Cell pins and IO pins enumerate them through one
  helper over Algorithm 1's own on-track coordinates
  (:func:`~repro.core.coords.candidate_coords`), but there is no
  coordinate-type fallback ladder, so narrow or off-grid pins get few
  or no points.
* No DRC validation at generation time: the via is assumed legal, so a
  fraction of the emitted access points is *dirty* (Table II's "#Dirty
  APs" column).
* Legality screening is a naive linear scan, per pin, over the *whole
  design's* shape list (the legacy flow had no spatial index or
  region-query DRC engine -- the scalability gap the paper calls out),
  checking only shape containment at the candidate point -- blind to
  min-step, EOL and spacing, which is why the legacy flow is
  simultaneously slower and dirtier.
* Instance-level selection just takes the first access point per pin;
  there is no intra-cell pattern DP and no inter-cell cluster
  selection, so neighboring pins routinely receive conflicting vias
  (Table III's "#Failed Pins").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice

from repro.core.apgen import AccessPoint
from repro.core.coords import CoordType, candidate_coords
from repro.core.framework import PinAccessResult, UniqueInstanceAccess
from repro.core.signature import unique_instances
from repro.db.design import Design
from repro.geom.maxrect import maximal_rectangles
from repro.geom.polygon import RectilinearPolygon


@dataclass
class LegacyPinAccess:
    """The legacy baseline flow."""

    design: Design
    k: int = 3

    def run(self) -> PinAccessResult:
        """Run the baseline and return a PAAF-shaped result.

        The result has per-unique-instance access points (Experiment 1
        metrics apply directly) and a trivial first-AP-per-pin
        selection exposed through :meth:`access_map_of`.
        """
        result = PinAccessResult(design=self.design, config=None)
        t0 = time.perf_counter()
        design_shapes = self._flat_design_shapes()
        for ui in unique_instances(self.design):
            rep = ui.representative
            ua = UniqueInstanceAccess(unique_instance=ui)
            for pin in rep.master.signal_pins():
                # The legacy flow gathers the pin's neighborhood with a
                # full linear pass over the design -- no spatial index.
                neighborhood = self._scan_neighborhood(
                    design_shapes, rep, pin
                )
                ua.aps_by_pin[pin.name] = self._generate_for_pin(
                    rep, pin, neighborhood
                )
            result.unique_accesses.append(ua)
        result.timings["step1"] = time.perf_counter() - t0
        result.timings["total"] = result.timings["step1"]
        return result

    def _flat_design_shapes(self) -> list:
        """Every M1-class shape in the design, as one flat list."""
        shapes = []
        for inst in self.design.instances.values():
            for _, layer, rect in inst.all_pin_shapes():
                shapes.append((layer, rect))
            for layer, rect in inst.obstruction_rects():
                shapes.append((layer, rect))
        return shapes

    def _scan_neighborhood(self, design_shapes, inst, pin) -> list:
        """Linear scan for shapes near the pin (the legacy hot loop)."""
        window = pin.bbox()
        xf = inst.transform
        window = xf.apply_rect(window).bloated(4 * self.design.tech.site_width)
        return [
            rect
            for _, rect in design_shapes
            if rect.intersects(window)
        ]

    def access_map(self, result: PinAccessResult) -> dict:
        """Return the baseline's per-instance-pin selection.

        First access point per pin, translated to each member instance
        -- no compatibility consideration whatsoever.
        """
        return {
            (name, pin_name): aps[0].translated(dx, dy)
            for name, (ua, (dx, dy)) in result.placements().items()
            for pin_name, aps in ua.aps_by_pin.items()
            if aps
        }

    # -- internals ---------------------------------------------------------

    def _generate_for_pin(self, inst, pin, cell_shapes) -> list:
        tech = self.design.tech
        aps = []
        shapes = inst.pin_rects(pin.name)
        for layer_name in sorted(shapes):
            layer = tech.layer(layer_name)
            if not layer.is_routing:
                continue
            polygon = RectilinearPolygon(shapes[layer_name])
            for rect in maximal_rectangles(polygon):
                for ap in _on_track_aps(self.design, layer, rect):
                    if len(aps) >= self.k:
                        return aps
                    if self._naive_screen(ap.x, ap.y, rect, cell_shapes):
                        aps.append(ap)
        return aps

    def _naive_screen(self, x, y, pin_rect, cell_shapes) -> bool:
        """The legacy legality screen: containment-only, linear scan.

        Accepts the point if it sits inside the pin rectangle and no
        *obstruction-or-pin* shape strictly contains the exact via
        center other than the pin itself -- a deliberately weak test
        (and an O(#shapes) one, run per candidate) that misses
        min-step, EOL and spacing interactions entirely.
        """
        if not (
            pin_rect.xlo <= x <= pin_rect.xhi
            and pin_rect.ylo <= y <= pin_rect.yhi
        ):
            return False
        overlapping = 0
        for shape in cell_shapes:
            if shape.xlo <= x <= shape.xhi and shape.ylo <= y <= shape.yhi:
                overlapping += 1
        # The pin's own rect always matches; more than a handful of
        # stacked foreign shapes suggests a blocked location.
        return overlapping <= 2


def _on_track_aps(design: Design, layer, rect):
    """Yield the unvalidated on-track access points inside ``rect``.

    The legacy candidate set: the crossings of Algorithm 1's on-track
    coordinates on both axes (:func:`~repro.core.coords.
    candidate_coords`), preferred-axis coordinate outer, both
    ascending, each carrying the layer's primary via -- no fallback
    coordinate types and no DRC check.
    """
    vias = design.tech.vias_from(layer.name)
    horizontal = layer.is_horizontal
    pref, nonpref = (
        candidate_coords(
            axis, CoordType.ON_TRACK, rect, layer, design, design.tech
        )
        for axis in (("y", "x") if horizontal else ("x", "y"))
    )
    for pc in pref:
        for nc in nonpref:
            x, y = (nc, pc) if horizontal else (pc, nc)
            yield AccessPoint(
                x=x,
                y=y,
                layer_name=layer.name,
                pref_type=CoordType.ON_TRACK,
                nonpref_type=CoordType.ON_TRACK,
                valid_vias=[vias[0].name] if vias else [],
                planar_dirs=[],
            )


def legacy_io_access(design: Design, k: int = 3) -> dict:
    """Naive on-track access for top-level IO pins (legacy style).

    The same strategy the legacy flow applies to cell pins, extended
    to the die boundary: on-track crossing points inside the IO pin
    shape, no coordinate ladder and no DRC validation.  Off-grid IO
    pins -- whose shapes straddle no track intersection -- come back
    with an empty list, i.e. the legacy flow simply cannot reach them.
    Returns ``{io_pin_name: [AccessPoint, ...]}``.
    """
    out = {}
    for io_pin in design.io_pins.values():
        layer = design.tech.layer(io_pin.layer_name)
        out[io_pin.name] = (
            list(islice(_on_track_aps(design, layer, io_pin.rect), k))
            if layer.is_routing
            else []
        )
    return out
