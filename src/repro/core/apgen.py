"""Pin-based access point generation (paper Algorithm 1).

For each pin, candidate points are enumerated coordinate-type ladder
first: all combinations of (non-preferred type ``t1``, preferred type
``t0``) in ascending cost order.  Every candidate is validated by
dropping each via definition of the layer through the DRC engine; the
procedure early-terminates once ``k`` valid access points exist, but
only after finishing the current type combination -- so large pins can
yield slightly more than ``k`` points (Sec. III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.arraykernel import ApCheckMismatch
from repro.core.config import PaafConfig
from repro.core.coords import CoordType, candidate_coords
from repro.db.design import Design
from repro.db.inst import Instance
from repro.db.master import MasterPin
from repro.drc.engine import DrcEngine
from repro.geom.maxrect import maximal_rectangles
from repro.geom.point import Point
from repro.geom.polygon import RectilinearPolygon
from repro.geom.rect import Rect
from repro.obs.events import active_log
from repro.obs.metrics import active_registry
from repro.obs.trace import span


PLANAR_DIRECTIONS = ("E", "W", "N", "S")


@dataclass
class AccessPoint:
    """A validated access point (paper Sec. II-B1).

    ``valid_vias`` lists the names of via definitions that drop
    DRC-clean at this point; the first is the *primary* via.
    ``planar_dirs`` holds the planar escape directions that check
    clean.  ``cost`` is the coordinate-type cost used by the DP
    (preferred + non-preferred type values).
    """

    x: int
    y: int
    layer_name: str
    pref_type: CoordType
    nonpref_type: CoordType
    valid_vias: list = field(default_factory=list)
    planar_dirs: list = field(default_factory=list)

    @property
    def point(self) -> Point:
        """Return the access point location."""
        return Point(self.x, self.y)

    @property
    def primary_via(self) -> str:
        """Return the primary via name, or None without via access."""
        return self.valid_vias[0] if self.valid_vias else None

    @property
    def has_via_access(self) -> bool:
        """Return True if an up-via is valid here."""
        return bool(self.valid_vias)

    @property
    def cost(self) -> int:
        """Return the coordinate-type cost (lower is better)."""
        return int(self.pref_type) + int(self.nonpref_type)

    def translated(self, dx: int, dy: int) -> "AccessPoint":
        """Return a copy moved by ``(dx, dy)`` (unique-instance mapping)."""
        return AccessPoint(
            x=self.x + dx,
            y=self.y + dy,
            layer_name=self.layer_name,
            pref_type=self.pref_type,
            nonpref_type=self.nonpref_type,
            valid_vias=list(self.valid_vias),
            planar_dirs=list(self.planar_dirs),
        )

    def __str__(self) -> str:
        return (
            f"AP({self.x}, {self.y}, {self.layer_name}, "
            f"t0={int(self.pref_type)}, t1={int(self.nonpref_type)}, "
            f"via={self.primary_via})"
        )


class AccessPointGenerator:
    """Implements Algorithm 1 for one design.

    With an :class:`~repro.core.arraykernel.ArrayKernel` attached (and
    not in ``engine`` mode), candidate validation runs on the kernel's
    compiled per-cell tables: each candidate row is answered by one
    occupancy bitmask instead of per-candidate engine probes, with the
    engine consulted only to name the violated rule when telemetry
    sinks are active, or on every candidate in ``verify`` mode.
    """

    def __init__(
        self,
        design: Design,
        engine: DrcEngine,
        config: PaafConfig = None,
        akernel=None,
    ):
        self.design = design
        self.tech = design.tech
        self.engine = engine
        self.config = config or PaafConfig()
        self.akernel = akernel

    def generate_for_pin(
        self, inst: Instance, pin: MasterPin, context
    ) -> list:
        """Generate up to ~k valid access points for one instance pin.

        ``context`` is the :class:`~repro.drc.ShapeContext` the vias
        are validated against (intra-cell context in Step 1).  Returns
        access points in generation (cost) order.
        """
        aps = []
        seen_points = set()
        shapes = inst.pin_rects(pin.name)
        net_key = (inst.name, pin.name)
        akernel = self.akernel
        tables = None
        if akernel is not None and akernel.mode != "engine":
            tables = akernel.cell_tables(inst)
        with span("step1.pin", inst=inst.name, pin=pin.name) as record:
            for layer_name in sorted(shapes):
                layer = self.tech.layer(layer_name)
                if not layer.is_routing:
                    continue
                polygon = RectilinearPolygon(shapes[layer_name])
                rects = maximal_rectangles(polygon)
                done = self._generate_on_layer(
                    layer, rects, net_key, context, aps, seen_points,
                    is_macro=inst.master.is_macro, polygon=polygon,
                    inst=inst, tables=tables,
                )
                if done:
                    break
            if record is not None:
                record["attrs"]["aps"] = len(aps)
        registry = active_registry()
        if registry is not None:
            registry.observe("apgen.aps_per_pin", float(len(aps)))
        return aps

    # -- internals ---------------------------------------------------------

    def _generate_on_layer(
        self, layer, rects, net_key, context, aps, seen_points, is_macro,
        polygon=None, inst=None, tables=None,
    ) -> bool:
        """Run the Algorithm 1 double loop on one layer.

        Returns True if the early-termination quota was reached.
        """
        cfg = self.config
        pref_axis = "y" if layer.is_horizontal else "x"
        try:
            primary_viadef = self.tech.primary_via_from(layer.name)
        except KeyError:
            primary_viadef = None
        if tables is not None:
            return self._generate_on_layer_array(
                layer, rects, net_key, context, aps, seen_points,
                is_macro, polygon, inst, tables, pref_axis, primary_viadef,
            )
        for t1 in cfg.non_preferred_types:
            for t0 in cfg.preferred_types:
                for rect in rects:
                    for point in self._points_of_type(
                        layer, rect, pref_axis, t0, t1, primary_viadef
                    ):
                        if point in seen_points:
                            continue
                        seen_points.add(point)
                        ap = self._validate(
                            layer, point, t0, t1, net_key, context,
                            is_macro, polygon,
                        )
                        if ap is not None:
                            aps.append(ap)
                if len(aps) >= cfg.k:
                    return True
        return False

    def _generate_on_layer_array(
        self, layer, rects, net_key, context, aps, seen_points, is_macro,
        polygon, inst, tables, pref_axis, primary_viadef,
    ) -> bool:
        """Algorithm 1 double loop served by compiled occupancy masks.

        Candidate enumeration comes from the kernel's memoized
        coordinate tables; validation computes, lazily per candidate
        row, one dirty bitmask per via (and per planar direction) over
        the whole row of moving-axis displacements.  Loop structure,
        dedupe and the per-type early-termination check are identical
        to the engine path, so the AP list is bit-identical.
        """
        cfg = self.config
        akernel = self.akernel
        coords = akernel.coords
        vias = self.tech.vias_from(layer.name)
        pin_name = net_key[1]
        ox, oy = inst.location.x, inst.location.y
        fixed_is_y = pref_axis == "y"
        nonpref_axis = "x" if fixed_is_y else "y"
        registry = active_registry()
        log = active_log()
        # Per-layer constants of the point loop, resolved once: the
        # (via, site table, min-step table) triples and the planar
        # stub tables of this pin/layer.
        via_info = [
            (
                viadef,
                tables.site[(pin_name, viadef.name)],
                tables.minstep[(pin_name, viadef.name)],
            )
            for viadef in vias
        ]
        stubs = (
            tables.planar[(pin_name, layer.name)]
            if cfg.check_planar
            else None
        )
        # With no verify oracle and via access required, a point that
        # is dirty for *every* via can never be accepted -- the ANDed
        # via masks reject it without entering the per-via validation
        # at all.  Counters advance by arithmetic so stats match the
        # per-point path exactly; sinks then get each via's rule named
        # by the engine, as the per-point path reports a dirty via.
        nvias = len(vias)
        fast_reject = (
            nvias > 0
            and akernel.mode != "verify"
            and cfg.require_via_access
            and not is_macro
            and not cfg.require_cut_on_pin
        )
        # The coordinate cache returns the *same* list object for
        # equal (type, span, via) queries, so a repeated (pref,
        # nonpref) list pair can only re-enumerate already-seen points
        # -- skip the whole batch.
        done_pairs = set()
        for t1 in cfg.non_preferred_types:
            for t0 in cfg.preferred_types:
                for rect in rects:
                    pref_coords = coords.candidate(
                        pref_axis, t0, rect, layer, primary_viadef
                    )
                    if not pref_coords:
                        continue
                    nonpref_coords = coords.candidate(
                        nonpref_axis, t1, rect, layer, primary_viadef
                    )
                    if not nonpref_coords:
                        continue
                    pair = (id(pref_coords), id(nonpref_coords))
                    if pair in done_pairs:
                        continue
                    done_pairs.add(pair)
                    moving = [
                        c - (ox if fixed_is_y else oy)
                        for c in nonpref_coords
                    ]
                    for pc in pref_coords:
                        fixed = pc - (oy if fixed_is_y else ox)
                        row = None
                        all_dirty = 0
                        for ni, nc in enumerate(nonpref_coords):
                            x, y = (nc, pc) if fixed_is_y else (pc, nc)
                            if (x, y) in seen_points:
                                continue
                            seen_points.add((x, y))
                            if row is None:
                                # One dirty bitmask per via over the
                                # whole row.  Planar stub verdicts are
                                # deliberately pointwise: a row rarely
                                # contributes more than a point or two
                                # after the cross-type dedupe, so four
                                # whole-row stub masks would cost more
                                # than probing the tiny stub tables.
                                row = [
                                    site.row_mask(
                                        fixed_is_y, fixed, moving
                                    )
                                    for _, site, _ms in via_info
                                ]
                                if fast_reject:
                                    all_dirty = -1
                                    for mask in row:
                                        all_dirty &= mask
                            if fast_reject and all_dirty >> ni & 1:
                                akernel.candidates += nvias
                                akernel.filtered += nvias
                                if registry is not None or log is not None:
                                    for viadef, _site, _ms in via_info:
                                        self._name_rejection(
                                            layer, x, y, t0, t1, net_key,
                                            context, viadef, registry, log,
                                        )
                                continue
                            ap = self._validate_array(
                                layer, x, y, t0, t1, net_key, context,
                                is_macro, polygon, via_info, stubs,
                                row, ni, x - ox, y - oy,
                                registry, log,
                            )
                            if ap is not None:
                                aps.append(ap)
                if len(aps) >= cfg.k:
                    return True
        return False

    def _validate_array(
        self, layer, x, y, t0, t1, net_key, context, is_macro, polygon,
        via_info, stubs, row, ni, dx, dy, registry, log,
    ):
        """Table-served twin of :meth:`_validate`.

        The tables decide; the engine runs only to name the violated
        rule for telemetry (dirty candidates, when sinks are active)
        or to cross-check every verdict in ``verify`` mode.  A dirty
        table verdict the engine cannot reproduce raises
        :class:`~repro.core.arraykernel.ApCheckMismatch` even outside
        verify mode -- it is a proven divergence, never noise.
        """
        akernel = self.akernel
        verify = akernel.mode == "verify"
        valid_vias = []
        for vi, (viadef, _site, minstep) in enumerate(via_info):
            if (
                self.config.require_cut_on_pin
                and polygon is not None
                and not polygon.contains_rect(
                    viadef.cut_at(x, y)
                )
            ):
                self._note_rejection(
                    registry, log, net_key, layer, Point(x, y), t0, t1,
                    viadef.name, "cut-not-on-pin", viadef.cut_layer,
                )
                continue
            akernel.candidates += 1
            dirty = bool(row[vi] >> ni & 1)
            if not dirty:
                if minstep is not None:
                    if minstep.max_edges:
                        akernel.minstep_engine += 1
                    dirty = minstep.dirty(dx, dy, layer)
            violations = None
            if verify:
                violations = self.engine.check_via_placement(
                    viadef, x, y, net_key, context
                )
                if bool(violations) != dirty:
                    akernel.verify_mismatches += 1
                    raise ApCheckMismatch(
                        f"array kernel diverged from DrcEngine for via "
                        f"{viadef.name} at ({x}, {y}) on "
                        f"{layer.name} (net {net_key}): "
                        f"kernel={'dirty' if dirty else 'clean'}, "
                        f"engine={'dirty' if violations else 'clean'}"
                    )
            if not dirty:
                valid_vias.append(viadef.name)
                continue
            akernel.filtered += 1
            if registry is not None or log is not None:
                self._name_rejection(
                    layer, x, y, t0, t1, net_key, context, viadef,
                    registry, log, violations,
                )
        planar_dirs = []
        if stubs is not None:
            planar_dirs = [
                d
                for d, stub in zip(PLANAR_DIRECTIONS, stubs)
                if stub.clean(dx, dy)
            ]
            if verify:
                oracle = self._planar_directions(
                    layer, Point(x, y), net_key, context
                )
                if oracle != planar_dirs:
                    akernel.verify_mismatches += 1
                    raise ApCheckMismatch(
                        f"array kernel planar verdict diverged at "
                        f"({x}, {y}) on {layer.name} "
                        f"(net {net_key}): kernel={planar_dirs}, "
                        f"engine={oracle}"
                    )
        ap = AccessPoint(
            x=x,
            y=y,
            layer_name=layer.name,
            pref_type=t0,
            nonpref_type=t1,
            valid_vias=valid_vias,
            planar_dirs=planar_dirs,
        )
        accepted = ap.has_via_access or (
            (not self.config.require_via_access or is_macro)
            and bool(planar_dirs)
        )
        if not accepted:
            return None
        if registry is not None:
            registry.incr("apgen.accept")
        if log is not None:
            log.emit(
                "ap.accept",
                inst=net_key[0],
                pin=net_key[1],
                x=x,
                y=y,
                layer=layer.name,
                vias=list(valid_vias),
                planar=list(planar_dirs),
                t0=t0.name.lower(),
                t1=t1.name.lower(),
            )
        return ap

    def _name_rejection(
        self, layer, x, y, t0, t1, net_key, context, viadef, registry,
        log, violations=None,
    ) -> None:
        """Report a table-rejected via under the engine's rule name.

        Runs only when a sink is active, after the tables decided;
        ``violations`` reuses a verify-mode engine result.  Raises
        :class:`~repro.core.arraykernel.ApCheckMismatch` when the
        engine finds the via clean (see :meth:`_validate_array`).
        """
        if violations is None:
            violations = self.engine.check_via_placement(
                viadef, x, y, net_key, context
            )
        if not violations:
            self.akernel.verify_mismatches += 1
            raise ApCheckMismatch(
                f"array kernel rejected via {viadef.name} at "
                f"({x}, {y}) on {layer.name} "
                f"(net {net_key}) but the engine found no "
                f"violation"
            )
        self._note_rejection(
            registry, log, net_key, layer, Point(x, y), t0, t1,
            viadef.name, violations[0].rule, violations[0].layer_name,
        )

    def _points_of_type(
        self, layer, rect, pref_axis, t0, t1, viadef
    ) -> list:
        """Cross the coordinate candidates of (t0, t1) over one rect."""
        pref_coords = candidate_coords(
            pref_axis, t0, rect, layer, self.design, self.tech, viadef
        )
        nonpref_axis = "x" if pref_axis == "y" else "y"
        nonpref_coords = candidate_coords(
            nonpref_axis, t1, rect, layer, self.design, self.tech, viadef
        )
        points = []
        for pc in pref_coords:
            for nc in nonpref_coords:
                x, y = (nc, pc) if pref_axis == "y" else (pc, nc)
                points.append(Point(x, y))
        return points

    def _validate(
        self, layer, point, t0, t1, net_key, context, is_macro, polygon=None
    ):
        """Return a validated AccessPoint, or None if nothing is legal.

        An access point is valid if a via can be dropped DRC-free
        (Sec. III-A); for macro pins planar-only access also counts,
        since the footnote's via-only restriction applies to standard
        cells.  With ``require_cut_on_pin`` set, a via additionally
        needs its cut fully landed on pin metal (the strict via-in-pin
        reading for advanced nodes).
        """
        registry = active_registry()
        log = active_log()
        valid_vias = []
        for viadef in self.tech.vias_from(layer.name):
            if (
                self.config.require_cut_on_pin
                and polygon is not None
                and not polygon.contains_rect(
                    viadef.cut_at(point.x, point.y)
                )
            ):
                self._note_rejection(
                    registry, log, net_key, layer, point, t0, t1,
                    viadef.name, "cut-not-on-pin", viadef.cut_layer,
                )
                continue
            violations = self.engine.check_via_placement(
                viadef, point.x, point.y, net_key, context
            )
            if not violations:
                valid_vias.append(viadef.name)
            else:
                self._note_rejection(
                    registry, log, net_key, layer, point, t0, t1,
                    viadef.name, violations[0].rule,
                    violations[0].layer_name,
                )
        planar_dirs = []
        if self.config.check_planar:
            planar_dirs = self._planar_directions(
                layer, point, net_key, context
            )
        ap = AccessPoint(
            x=point.x,
            y=point.y,
            layer_name=layer.name,
            pref_type=t0,
            nonpref_type=t1,
            valid_vias=valid_vias,
            planar_dirs=planar_dirs,
        )
        accepted = ap.has_via_access or (
            (not self.config.require_via_access or is_macro)
            and bool(planar_dirs)
        )
        if not accepted:
            return None
        if registry is not None:
            registry.incr("apgen.accept")
        if log is not None:
            log.emit(
                "ap.accept",
                inst=net_key[0],
                pin=net_key[1],
                x=point.x,
                y=point.y,
                layer=layer.name,
                vias=list(valid_vias),
                planar=list(planar_dirs),
                t0=t0.name.lower(),
                t1=t1.name.lower(),
            )
        return ap

    def _note_rejection(
        self, registry, log, net_key, layer, point, t0, t1, via_name,
        rule, rule_layer,
    ) -> None:
        """Record one rejected (candidate point, via) combination.

        Counters key the rejection by DRC rule and by the candidate's
        coordinate-type pair; the event stream keeps the full story
        (which via, which rule, where) for ``repro explain``.
        """
        if registry is not None:
            registry.incr("apgen.reject." + rule.replace("-", "_"))
            registry.incr(
                "apgen.reject.coord."
                + t0.name.lower() + "." + t1.name.lower()
            )
        if log is not None:
            log.emit(
                "ap.reject",
                inst=net_key[0],
                pin=net_key[1],
                x=point.x,
                y=point.y,
                layer=layer.name,
                via=via_name,
                rule=rule,
                rule_layer=rule_layer,
                t0=t0.name.lower(),
                t1=t1.name.lower(),
            )

    def _planar_directions(self, layer, point, net_key, context) -> list:
        """Return planar escape directions that check DRC-clean.

        The stub is one pitch of wire at the layer's default width
        leaving the access point; a clean stub means the router can end
        routing here in that direction.
        """
        half = layer.width // 2
        length = layer.pitch
        x, y = point.x, point.y
        stubs = {
            "E": Rect(x, y - half, x + length, y + half),
            "W": Rect(x - length, y - half, x, y + half),
            "N": Rect(x - half, y, x + half, y + length),
            "S": Rect(x - half, y - length, x + half, y),
        }
        clean = []
        for direction in PLANAR_DIRECTIONS:
            stub = stubs[direction]
            violations = self.engine.check_metal_rect(
                layer.name, stub, net_key, context, label="planar-stub"
            )
            if not violations:
                clean.append(direction)
        return clean
