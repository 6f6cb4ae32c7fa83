"""Cluster-based access pattern selection (paper Sec. III-C).

Instances are grouped into per-row contiguous clusters; within each
cluster a DP (the same layered-graph machinery as Step 2, with
instances as groups and their candidate access patterns as vertices,
Figure 7) picks one pattern per instance minimizing inter-cell
boundary-pin conflicts.  Only the up-vias of boundary access points
are DRC-checked, which is the paper's acceleration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.arraykernel import ArrayKernel
from repro.core.config import PaafConfig
from repro.core.dpgraph import DRC_COST, LayeredDpGraph
from repro.core.pattern import AccessPattern
from repro.db.design import Design
from repro.drc.pairkernel import PairKernel
from repro.obs.events import active_log
from repro.obs.trace import span


@dataclass
class SelectedAccess:
    """The pattern selected for one concrete instance.

    ``dx``/``dy`` translate the pattern's access points (stored in the
    unique-instance representative's coordinates) into this instance's
    design coordinates.  ``unique_access`` is the Step 1/2 result the
    pattern came from, in the same coordinates: its ``aps_by_pin`` are
    each pin's alternatives.  An instance whose unique access has no
    pattern is selected with ``pattern`` None, and still carries both.
    """

    inst: object
    pattern: AccessPattern
    dx: int
    dy: int
    overrides: dict = field(default_factory=dict)
    # ``(signature, ordinal)``: the pattern named by value, as the
    # ``ordinal``-th pattern of the unique instance with that
    # signature.  Step 3's boundary verdicts and boundary via records
    # are keyed by it; a selection without one is rescanned on every
    # check.
    key: tuple = field(default=None, repr=False, compare=False)
    unique_access: object = field(default=None, repr=False, compare=False)

    def access_points(self) -> dict:
        """Return pin name -> translated access point.

        ``overrides`` (already in design coordinates) replace the
        pattern's choice for individual pins; the repair post-pass uses
        them to resolve residual conflicts without mutating the shared
        pattern object.
        """
        if self.pattern is None:
            return {}
        out = {
            pin_name: ap.translated(self.dx, self.dy)
            for pin_name, ap in self.pattern.aps.items()
        }
        out.update(self.overrides)
        return out

    def ap_of(self, pin_name: str):
        """Return the effective (translated) AP of one pin."""
        override = self.overrides.get(pin_name)
        if override is not None:
            return override
        return self.pattern.aps[pin_name].translated(self.dx, self.dy)


def boundary_records(sel: SelectedAccess, window: int) -> tuple:
    """Return ``sel``'s boundary up-vias as ``(pin, via, x, y)`` records.

    ``(x, y)`` is the access point relative to the instance's origin
    and ``via`` its primary via; pins without via access are left out.
    The boundary pins are the first and last pins of the pattern's pin
    order (the paper's boundary pins), plus any pin whose access point
    lies within ``window`` DBU of the instance's left or right edge --
    the robust superset needed when the alpha-weighted pin order does
    not end on the geometrically extreme pins.  Repair overrides (in
    design coordinates) replace the pattern's points.
    """
    pattern = sel.pattern
    if pattern is None or not pattern.aps:
        return ()
    inst = sel.inst
    loc = inst.location
    tx, ty = sel.dx - loc.x, sel.dy - loc.y
    overrides = sel.overrides
    points = {}
    for pin_name, ap in pattern.aps.items():
        override = overrides.get(pin_name)
        if override is None:
            points[pin_name] = (ap, ap.x + tx, ap.y + ty)
        else:
            points[pin_name] = (
                override, override.x - loc.x, override.y - loc.y
            )
    names = list(pattern.aps)
    boundary = {names[0], names[-1]}
    width = inst.master.cell_class(inst.orient).width
    for pin_name, (_, x, _) in points.items():
        if x <= window or width - x <= window:
            boundary.add(pin_name)
    records = []
    for pin_name in boundary:
        ap, x, y = points[pin_name]
        if ap.has_via_access:
            records.append((pin_name, ap.valid_vias[0], x, y))
    return tuple(records)


@dataclass
class ClusterSelectionResult:
    """Step 3 output: per-instance selection plus residual conflicts."""

    selection: dict = field(default_factory=dict)
    conflicts: list = field(default_factory=list)

    def access_map(self) -> dict:
        """Return (inst name, pin name) -> selected AP in design coords."""
        return {
            (inst_name, pin_name): ap
            for inst_name, selected in self.selection.items()
            for pin_name, ap in selected.access_points().items()
        }

    def conflicting_pins(self) -> set:
        """Return the set of (instance name, pin name) in any conflict."""
        pins = set()
        for inst_a, pin_a, inst_b, pin_b in self.conflicts:
            pins.add((inst_a, pin_a))
            pins.add((inst_b, pin_b))
        return pins


def interaction_window(tech) -> int:
    """Return how far (in x) a via can interact across a cell edge.

    The reach of the widest enclosure of the lowest up-via plus the
    largest rule distance of the layers it touches.  Access points
    farther than this from the cell edge cannot conflict with the
    neighboring instance.
    """
    window = 0
    for via in tech.vias:
        bottom = tech.layer(via.bottom_layer)
        top = tech.layer(via.top_layer)
        reach = max(
            -via.bottom_enc.xlo,
            via.bottom_enc.xhi,
            -via.top_enc.xlo,
            via.top_enc.xhi,
        )
        rule = max(bottom.max_rule_distance, top.max_rule_distance)
        window = max(window, reach + rule)
    return window


class ClusterPatternSelector:
    """Runs the Step 3 DP over the clusters of a design.

    Every DRC verdict comes from the two shared kernels, each of which
    decided its mode when it built the verdict: via pairs from
    ``kernel`` (a :class:`~repro.drc.pairkernel.PairKernel`), vias
    against a neighbor's shapes from ``akernel`` (an
    :class:`~repro.core.arraykernel.ArrayKernel`).

    One selector serves every pass of a framework, because everything
    it keeps is keyed by value and holds for any placement:

    * ``records`` holds each pattern's :func:`boundary_records` once
      per :attr:`SelectedAccess.key`, relative to the instance origin,
      so a check adds the two origins and builds no translated access
      point;
    * ``verdicts`` memoises the boundary scan of two neighbors, keyed
      ``(left key, right key, dx, dy)``: the two selections'
      :attr:`SelectedAccess.key` and the displacement between the two
      instances' origins.  Every check behind a verdict is translation
      invariant and the pattern's geometry relative to its instance is
      fixed by its key, so no placement edit invalidates an entry.  It
      memoises the kernels' verdicts in every mode, so ``verify`` mode
      cross-checks a verdict only the first time the table sees it;
    * ``window`` is the technology's :func:`interaction_window`, a walk
      over every via, computed once.
    """

    def __init__(
        self,
        design: Design,
        config: PaafConfig = None,
        *,
        kernel: PairKernel,
        akernel: ArrayKernel,
    ):
        self.design = design
        self.tech = design.tech
        self.config = config or PaafConfig()
        self.kernel = kernel
        self.akernel = akernel
        self.verdicts = {}
        self.records = {}
        self.window = interaction_window(design.tech)

    def select(
        self, clusters: list, candidates_by_inst: dict, alternatives_fn=None
    ) -> ClusterSelectionResult:
        """Select one pattern per instance over ``clusters``, in order.

        ``clusters`` are row clusters (instances left to right, as
        :meth:`~repro.db.design.Design.row_clusters` returns them) in
        row order: a multi-height instance selected in a lower row's
        cluster keeps its choice in every cluster above.  The boundary
        verdicts it reads and extends hold for any placement (see the
        class docstring), so one selector serves every pass.

        ``candidates_by_inst`` maps instance name to a list of
        ``SelectedAccess`` candidates (one per pattern of the unique
        instance, already carrying the member translation).  Instances
        missing from the mapping, or mapped to an empty list, are
        treated as having no selectable pattern.

        ``alternatives_fn(inst_name, pin_name)``, when given, returns
        the pin's full Step 1 access point list (representative
        coordinates); it powers the conflict-repair post-pass (the
        paper's corner-case post-processing): pins left in conflict by
        the DP are retried with their alternative access points.
        """
        result = ClusterSelectionResult()
        for cluster in clusters:
            with span(
                "step3.cluster",
                first=cluster[0].name if cluster else None,
                insts=len(cluster),
            ):
                self._solve_cluster(
                    cluster, candidates_by_inst, result, alternatives_fn
                )
        return result

    # -- internals ---------------------------------------------------------

    def _solve_cluster(
        self, cluster, candidates_by_inst, result, alternatives_fn
    ) -> None:
        """Run the DP for one cluster, accumulating into ``result``."""
        groups = []
        members = []
        pinned = set()
        for inst in cluster:
            already = result.selection.get(inst.name)
            if already is not None:
                # A multi-height instance selected in a lower row's
                # cluster keeps its choice: it joins this cluster's DP
                # as a single fixed vertex.
                groups.append([already])
                pinned.add(inst.name)
            else:
                candidates = candidates_by_inst.get(inst.name) or [
                    SelectedAccess(inst=inst, pattern=None, dx=0, dy=0)
                ]
                groups.append(candidates)
            members.append(inst)
        graph = LayeredDpGraph(groups)
        chosen, _ = graph.solve(self._edge_cost)
        # The DP reuses SelectedAccess objects across members of a
        # unique instance; give each member its own copy so repair
        # overrides stay per-instance (pinned selections are kept).
        chosen = [
            sel
            if member.name in pinned
            else SelectedAccess(
                inst=member,
                pattern=sel.pattern,
                dx=sel.dx,
                dy=sel.dy,
                overrides=dict(sel.overrides),
                key=sel.key,
                unique_access=sel.unique_access,
            )
            for member, sel in zip(members, chosen)
        ]
        if alternatives_fn is not None:
            self._repair_cluster(chosen, alternatives_fn)
        log = active_log()
        for inst, selected in zip(members, chosen):
            result.selection[inst.name] = selected
            if log is not None and inst.name not in pinned:
                pattern = selected.pattern
                log.emit(
                    "cluster.selected",
                    inst=inst.name,
                    cost=pattern.cost if pattern is not None else None,
                    pins=len(pattern.aps) if pattern is not None else 0,
                )
        self._record_conflicts(chosen, result)

    def _repair_cluster(self, chosen, alternatives_fn) -> None:
        """Resolve residual conflicts by retrying alternative APs."""
        for idx in range(len(chosen) - 1):
            left, right = chosen[idx], chosen[idx + 1]
            for il, pin_l, ir, pin_r in self._boundary_conflicts(left, right):
                for position, pin_name in ((idx + 1, pin_r), (idx, pin_l)):
                    if pin_name == "<shapes>":
                        continue
                    if self._try_override(
                        chosen, position, pin_name, alternatives_fn
                    ):
                        break

    def _try_override(
        self, chosen, position, pin_name, alternatives_fn
    ) -> bool:
        """Try the pin's alternative APs; keep the first clean one."""
        selected = chosen[position]
        if selected.pattern is None or pin_name not in selected.pattern.aps:
            return False
        current = selected.ap_of(pin_name)
        alternatives = alternatives_fn(selected.inst.name, pin_name)
        for ap in alternatives:
            candidate = ap.translated(selected.dx, selected.dy)
            if (candidate.x, candidate.y) == (current.x, current.y):
                continue
            if not candidate.has_via_access:
                continue
            if not self._override_is_clean(
                chosen, position, pin_name, candidate
            ):
                continue
            log = active_log()
            if log is not None:
                log.emit(
                    "cluster.repair",
                    inst=selected.inst.name,
                    pin=pin_name,
                    from_x=current.x,
                    from_y=current.y,
                    to_x=candidate.x,
                    to_y=candidate.y,
                )
            selected.overrides[pin_name] = candidate
            return True
        return False

    def _override_is_clean(
        self, chosen, position, pin_name, candidate
    ) -> bool:
        """Check a tentative AP against neighbors and its own pattern.

        The override is accepted when the pin drops out of every
        neighbor conflict and no *new* conflicts appear -- pre-existing
        conflicts between other pins neither block nor excuse it.
        """
        selected = chosen[position]
        # Intra-pattern compatibility with the instance's other pins.
        for other_pin in selected.pattern.aps:
            if other_pin == pin_name:
                continue
            other_ap = selected.ap_of(other_pin)
            if other_ap.has_via_access and not self.kernel.pair_clean(
                candidate.primary_via, candidate.x, candidate.y,
                other_ap.primary_via, other_ap.x, other_ap.y,
            ):
                return False
        before = self._neighbor_conflicts(chosen, position)
        old = selected.overrides.get(pin_name)
        selected.overrides[pin_name] = candidate
        try:
            after = self._neighbor_conflicts(chosen, position)
        finally:
            if old is None:
                selected.overrides.pop(pin_name, None)
            else:
                selected.overrides[pin_name] = old
        inst_name = selected.inst.name
        still_conflicting = any(
            (a == inst_name and pa == pin_name)
            or (b == inst_name and pb == pin_name)
            for a, pa, b, pb in after
        )
        return not still_conflicting and set(after) <= set(before)

    def _neighbor_conflicts(self, chosen, position) -> list:
        """Conflicts of the instance at ``position`` with its neighbors."""
        conflicts = []
        if position > 0:
            conflicts.extend(
                self._boundary_conflicts(
                    chosen[position - 1], chosen[position]
                )
            )
        if position < len(chosen) - 1:
            conflicts.extend(
                self._boundary_conflicts(
                    chosen[position], chosen[position + 1]
                )
            )
        return conflicts

    def _edge_cost(self, prev, curr, prev_prev) -> float:
        cost = self._vertex_cost(curr)
        if prev is not None and self._boundary_conflicts(prev, curr):
            cost += DRC_COST
        return cost

    def _vertex_cost(self, selected: SelectedAccess) -> float:
        if selected.pattern is None:
            return 0
        cost = selected.pattern.cost
        if not selected.pattern.is_clean:
            cost += DRC_COST * len(selected.pattern.violations)
        return cost

    def _boundary_conflicts(
        self, left: SelectedAccess, right: SelectedAccess
    ) -> list:
        """Return conflicting boundary AP pairs between two neighbors.

        Two interactions are checked, mirroring TritonRoute's cluster
        DRC worker: the boundary up-vias of the two patterns against
        each other, and each boundary up-via against the *static*
        shapes (pins, obstructions) of the neighboring instance.
        """
        lloc = left.inst.location
        rloc = right.inst.location
        lox, loy = lloc.x, lloc.y
        rox, roy = rloc.x, rloc.y
        rel_key = None
        if (
            not left.overrides
            and not right.overrides
            and left.key is not None
            and right.key is not None
        ):
            # Each key pins down its pattern's geometry relative to the
            # instance origin; the origins' displacement pins the
            # members' relative placement.  Every conflict check (pair
            # kernel, via-vs-instance table) is translation invariant,
            # so the pin-pair verdicts transfer.  Repair overrides
            # mutate a selection in place, so a side carrying any is
            # rescanned.
            rel_key = (left.key, right.key, rox - lox, roy - loy)
            hit = self.verdicts.get(rel_key)
            if hit is not None:
                lname = left.inst.name
                rname = right.inst.name
                return [
                    (lname, pin_a, rname, pin_b) for pin_a, pin_b in hit
                ]
        conflicts = []
        left_vias = self._boundary_records(left)
        right_vias = self._boundary_records(right)
        lname = left.inst.name
        rname = right.inst.name
        kernel = self.kernel
        tables = kernel.tables
        # Records are origin-relative: the right side's points sit at
        # (x + shift_x, y + shift_y) in the left instance's frame.
        shift_x = rox - lox
        shift_y = roy - loy
        for pin_a, via_a, ax, ay in left_vias:
            for pin_b, via_b, bx, by in right_vias:
                # A held verdict (or a first-use build) probed by
                # displacement, uncounted by ``pairkernel.query``.
                verdict = tables.get((via_a, via_b, False))
                if verdict is None:
                    verdict = kernel.table(via_a, via_b, False)
                if not verdict.clean(bx + shift_x - ax, by + shift_y - ay):
                    conflicts.append((lname, pin_a, rname, pin_b))
        via_vs_instance_clean = self.akernel.via_vs_instance_clean
        for pin_a, via_a, ax, ay in left_vias:
            if not via_vs_instance_clean(
                via_a, ax + lox, ay + loy, right.inst
            ):
                conflicts.append((lname, pin_a, rname, "<shapes>"))
        for pin_b, via_b, bx, by in right_vias:
            if not via_vs_instance_clean(
                via_b, bx + rox, by + roy, left.inst
            ):
                conflicts.append((lname, "<shapes>", rname, pin_b))
        if rel_key is not None:
            # A tuple: the entry is shared by every later pass.
            self.verdicts[rel_key] = tuple(
                (pin_a, pin_b) for _, pin_a, _, pin_b in conflicts
            )
        return conflicts

    def _boundary_records(self, sel: SelectedAccess) -> tuple:
        """Return :func:`boundary_records` of ``sel``, held per key.

        A selection carrying repair overrides, or no key, is computed
        afresh on every call.
        """
        key = sel.key
        if key is None or sel.overrides:
            return boundary_records(sel, self.window)
        records = self.records.get(key)
        if records is None:
            records = self.records[key] = boundary_records(sel, self.window)
        return records

    def _record_conflicts(self, chosen, result) -> None:
        """Re-check the selected neighbors and log residual conflicts."""
        log = active_log()
        for left, right in zip(chosen, chosen[1:]):
            conflicts = self._boundary_conflicts(left, right)
            result.conflicts.extend(conflicts)
            if log is not None:
                for inst_a, pin_a, inst_b, pin_b in conflicts:
                    log.emit(
                        "cluster.conflict",
                        inst_a=inst_a,
                        pin_a=pin_a,
                        inst_b=inst_b,
                        pin_b=pin_b,
                    )
