"""Pin-based access point generation (paper Algorithm 1).

For each pin, candidate points are enumerated coordinate-type ladder
first: all combinations of (non-preferred type ``t1``, preferred type
``t0``) in ascending cost order.  Every candidate is validated by
dropping each via definition of the layer; the procedure
early-terminates once ``k`` valid access points exist, but only after
finishing the current type combination -- so large pins can yield
slightly more than ``k`` points (Sec. III-A).

The ladder is one loop (:meth:`AccessPointGenerator._generate_on_layer`)
with one validator (:meth:`AccessPointGenerator._validate`) that every
caller runs: cell pins in each check backend and top-level IO pins
(:mod:`repro.core.ioaccess`).  The backends differ only in who gives
the verdicts the validator reads -- the cell's compiled tables, the DRC
engine, or both cross-checked -- and the array kernel chose that once
per cell class (:meth:`~repro.core.arraykernel.ArrayKernel.cell_tables`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.arraykernel import ArrayKernel
from repro.core.config import PaafConfig
from repro.core.coords import CoordType
from repro.db.design import Design
from repro.db.inst import Instance
from repro.db.master import MasterPin
from repro.geom.maxrect import maximal_rectangles
from repro.geom.point import Point
from repro.geom.polygon import RectilinearPolygon
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
        """Return a copy moved by ``(dx, dy)`` (unique-instance mapping).

        The copy shares this point's via and direction lists: no caller
        edits them once a point is built.
        """
        return AccessPoint(
            self.x + dx, self.y + dy, self.layer_name, self.pref_type,
            self.nonpref_type, self.valid_vias, self.planar_dirs,
        )

    def __str__(self) -> str:
        return (
            f"AP({self.x}, {self.y}, {self.layer_name}, "
            f"t0={int(self.pref_type)}, t1={int(self.nonpref_type)}, "
            f"via={self.primary_via})"
        )


class AccessPointGenerator:
    """Implements Algorithm 1 for one design.

    One per-layer ladder loop (:meth:`_generate_on_layer`) enumerates
    the candidates of every caller -- cell pins and top-level IO pins
    -- from the shared :class:`~repro.core.arraykernel.ArrayKernel`
    ``akernel``'s coordinate cache, and one validator
    (:meth:`_validate`) decides them from the caller's
    :class:`~repro.core.arraykernel.CellTables`: a whole candidate row
    is answered by one occupancy bitmask per via.  The kernel chose
    once per cell class whether those verdicts are compiled tables,
    the DRC engine's or both; the generator reads no mode.
    """

    def __init__(
        self, design: Design, config: PaafConfig = None, *,
        akernel: ArrayKernel,
    ):
        self.design = design
        self.tech = design.tech
        self.config = config or PaafConfig()
        self.akernel = akernel

    def generate_for_pin(self, inst: Instance, pin: MasterPin) -> list:
        """Generate up to ~k valid access points for one instance pin.

        Candidates come from the maximal rectangles of the instance's
        cell-class record and are validated against the kernel's
        verdicts on that class.  Returns access points in generation
        (cost) order.
        """
        tables = self.akernel.cell_tables(inst)
        with span("step1.pin", inst=inst.name, pin=pin.name) as record:
            aps = self.generate(
                inst.master.cell_class(inst.orient).pin_rects[pin.name],
                (inst.name, pin.name), pin.name, tables,
                is_macro=inst.master.is_macro, inst=inst,
            )
            if record is not None:
                record["attrs"]["aps"] = len(aps)
        registry = active_registry()
        if registry is not None:
            registry.observe("apgen.aps_per_pin", float(len(aps)))
        return aps

    def generate(
        self, shapes: dict, net_key, pin_name: str, tables, *,
        is_macro: bool = False, inst: Instance = None,
    ) -> list:
        """Run Algorithm 1 over one pin's ``shapes`` (layer -> rects).

        Layers are visited in name order; ``(x, y)`` is deduplicated
        across them and the quota, once reached on a layer, ends the
        pin.  ``tables`` hold the verdicts on ``pin_name``'s vias and
        stubs by displacement.  With ``inst`` given, ``shapes`` are the
        instance's pin rects relative to its origin, the maximal
        rectangles come from its cell-class record and displacements
        are taken from its origin; otherwise (IO pins) ``shapes`` and
        displacements are in design coordinates.
        """
        ox = oy = 0
        if inst is not None:
            cell = inst.master.cell_class(inst.orient)
            ox, oy = inst.location.x, inst.location.y
        aps = []
        seen = set()
        for layer_name in sorted(shapes):
            layer = self.tech.layer(layer_name)
            if not layer.is_routing:
                continue
            if inst is None:
                rects = maximal_rectangles(
                    RectilinearPolygon(shapes[layer_name])
                )
            else:
                rects = [
                    r.translated(ox, oy)
                    for r in cell.maximal_rectangles(pin_name, layer_name)
                ]
            cut_pin = None
            if self.config.require_cut_on_pin:
                cut_pin = RectilinearPolygon(
                    [r.translated(ox, oy) for r in shapes[layer_name]]
                )
            if self._generate_on_layer(
                layer, rects, cut_pin, net_key, pin_name, tables, aps, seen,
                is_macro, ox, oy,
            ):
                break
        return aps

    # -- internals ---------------------------------------------------------

    def _generate_on_layer(
        self, layer, rects, cut_pin, net_key, pin_name, tables, aps, seen,
        is_macro, ox, oy,
    ) -> bool:
        """Run the Algorithm 1 double loop on one layer.

        Crosses non-preferred type ``t1`` with preferred type ``t0`` in
        ascending cost order over every maximal rectangle in ``rects``
        (``cut_pin`` is the pin polygon under ``require_cut_on_pin``,
        else None); returns True
        once the quota is reached, checked after each type pair.  The
        coordinate cache returns the *same* list object for equal
        (type, span, via) queries, so a repeated (pref, nonpref) list
        pair can only re-enumerate already-seen points and is skipped.
        """
        cfg = self.config
        akernel = self.akernel
        coords = akernel.coords
        fixed_is_y = layer.is_horizontal
        pref_axis, nonpref_axis = ("y", "x") if fixed_is_y else ("x", "y")
        try:
            primary_viadef = self.tech.primary_via_from(layer.name)
        except KeyError:
            primary_viadef = None
        registry = active_registry()
        log = active_log()
        via_info, stubs, fast_reject = self._layer_tables(
            layer, pin_name, tables, is_macro
        )
        nvias = len(via_info)
        name = partial(tables.probe, pin_name)
        # The vias a fast-rejected point names to the sinks.
        named = via_info if registry is not None or log is not None else ()
        fixed_origin, moving_origin = (oy, ox) if fixed_is_y else (ox, oy)
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
                    moving = [c - moving_origin for c in nonpref_coords]
                    for pc in pref_coords:
                        row = None
                        for ni, nc in enumerate(nonpref_coords):
                            x, y = (nc, pc) if fixed_is_y else (pc, nc)
                            if (x, y) in seen:
                                continue
                            seen.add((x, y))
                            if row is None:
                                # One dirty bitmask per via over the
                                # whole row.  Planar stubs stay
                                # pointwise: after the cross-type
                                # dedupe a row rarely yields more than
                                # a point or two, so whole-row stub
                                # masks would cost more than probing
                                # the tiny stub tables.
                                row = [
                                    site.row_mask(
                                        fixed_is_y, pc - fixed_origin, moving
                                    )
                                    for _, site, _ms in via_info
                                ]
                                all_dirty = 0
                                if fast_reject:
                                    all_dirty = -1
                                    for mask in row:
                                        all_dirty &= mask
                            if all_dirty >> ni & 1:
                                # Counters advance by arithmetic so
                                # stats match the per-via path, and
                                # sinks get each via's rule named.
                                akernel.candidates += nvias
                                akernel.filtered += nvias
                                for viadef, _s, _m in named:
                                    violation = name(
                                        viadef.name, x - ox, y - oy
                                    )
                                    self._note_rejection(
                                        registry, log, net_key, layer, x, y,
                                        t0, t1, viadef.name, violation.rule,
                                        violation.layer_name,
                                    )
                                continue
                            ap = self._validate(
                                layer, x, y, t0, t1, net_key, is_macro,
                                cut_pin, via_info, stubs, name, row, ni,
                                x - ox, y - oy, registry, log,
                            )
                            if ap is not None:
                                aps.append(ap)
                if len(aps) >= cfg.k:
                    return True
        return False

    def _layer_tables(self, layer, pin_name, tables, is_macro) -> tuple:
        """Resolve one pin/layer's verdicts for the point loop.

        Returns the ``(via, site verdict, min-step table)`` triples,
        the planar stub verdicts (None without planar checks) and
        whether the fast reject applies: a standard-cell point dirty
        for *every* via can never be accepted, so the ANDed via masks
        reject it without per-via validation.
        """
        cfg = self.config
        vias = self.tech.vias_from(layer.name)
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
        fast_reject = (
            bool(vias) and not is_macro and not cfg.require_cut_on_pin
        )
        return via_info, stubs, fast_reject

    def _validate(
        self, layer, x, y, t0, t1, net_key, is_macro, cut_pin, via_info,
        stubs, name, row, ni, dx, dy, registry, log,
    ):
        """Validate one candidate from its verdicts: an AccessPoint or None.

        Bit ``ni`` of ``row[i]`` is via ``i``'s site verdict at this
        point, which sits at ``(dx, dy)`` from the verdicts' origin; a
        via clean there must pass its min-step table too.  With
        ``cut_pin`` (the pin polygon under ``require_cut_on_pin``) a
        via additionally needs its cut fully landed on pin metal (the
        strict via-in-pin reading for advanced nodes).  Active sinks
        get each rejection named: a min-step one from its table, with
        no engine call (the site is clean, so spacing, EOL and cut
        are, and min-step on the bottom layer is the engine's first
        violation), the others by ``name(via, dx, dy)``.
        """
        akernel = self.akernel
        valid_vias = []
        for vi, (viadef, _site, minstep) in enumerate(via_info):
            if cut_pin is not None and self._cut_off_pin(
                cut_pin, viadef, layer, x, y, t0, t1, net_key, registry, log
            ):
                continue
            akernel.candidates += 1
            if row[vi] >> ni & 1:
                akernel.filtered += 1
                if registry is not None or log is not None:
                    violation = name(viadef.name, dx, dy)
                    self._note_rejection(
                        registry, log, net_key, layer, x, y, t0, t1,
                        viadef.name, violation.rule, violation.layer_name,
                    )
                continue
            if minstep is not None:
                if minstep.max_edges:
                    akernel.minstep_engine += 1
                if minstep.dirty(dx, dy, layer):
                    akernel.filtered += 1
                    self._note_rejection(
                        registry, log, net_key, layer, x, y, t0, t1,
                        viadef.name, "min-step", viadef.bottom_layer,
                    )
                    continue
            valid_vias.append(viadef.name)
        planar_dirs = []
        # Without a clean via the stubs matter only where planar-only
        # access is allowed.
        if stubs is not None and (valid_vias or is_macro):
            planar_dirs = [
                d
                for d, stub in zip(PLANAR_DIRECTIONS, stubs)
                if stub.clean(dx, dy)
            ]
        return self._accept(
            layer, x, y, t0, t1, net_key, is_macro, valid_vias,
            planar_dirs, registry, log,
        )

    def _accept(
        self, layer, x, y, t0, t1, net_key, is_macro, valid_vias,
        planar_dirs, registry, log,
    ):
        """Return the candidate's AccessPoint if it is valid, else None.

        An access point is valid if a via can be dropped DRC-free
        (Sec. III-A); planar-only access also counts for macro pins,
        since the footnote's via-only restriction applies to standard
        cells.
        """
        if not valid_vias and not (planar_dirs and is_macro):
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
        return AccessPoint(
            x=x,
            y=y,
            layer_name=layer.name,
            pref_type=t0,
            nonpref_type=t1,
            valid_vias=valid_vias,
            planar_dirs=planar_dirs,
        )

    def _cut_off_pin(
        self, cut_pin, viadef, layer, x, y, t0, t1, net_key, registry, log,
    ) -> bool:
        """Return True, noting the rejection, if the cut leaves pin metal."""
        if cut_pin.contains_rect(viadef.cut_at(x, y)):
            return False
        self._note_rejection(
            registry, log, net_key, layer, x, y, t0, t1, viadef.name,
            "cut-not-on-pin", viadef.cut_layer,
        )
        return True

    def _note_rejection(
        self, registry, log, net_key, layer, x, y, t0, t1, via_name,
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
                x=x,
                y=y,
                layer=layer.name,
                via=via_name,
                rule=rule,
                rule_layer=rule_layer,
                t0=t0.name.lower(),
                t1=t1.name.lower(),
            )
