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

from repro.core.config import PaafConfig
from repro.core.dpgraph import LayeredDpGraph
from repro.core.pattern import AccessPattern
from repro.db.design import Design
from repro.drc.context import ShapeContext
from repro.drc.engine import DrcEngine
from repro.drc.pairkernel import PairKernel
from repro.obs.events import active_log
from repro.obs.metrics import tick
from repro.obs.trace import span


@dataclass
class SelectedAccess:
    """The pattern selected for one concrete instance.

    ``dx``/``dy`` translate the pattern's access points (stored in the
    unique-instance representative's coordinates) into this instance's
    design coordinates.
    """

    inst: object
    pattern: AccessPattern
    dx: int
    dy: int
    overrides: dict = field(default_factory=dict)
    _boundary_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

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

    def boundary_aps(self, window: int = None) -> list:
        """Return the (pin name, translated AP) of the boundary pins.

        By default these are the first and last pins of the pattern's
        pin order (the paper's boundary pins).  With ``window`` set,
        any pin whose access point lies within ``window`` DBU of the
        instance's left or right edge is included too -- this is the
        robust superset needed when the alpha-weighted pin order does
        not end on the geometrically extreme pins.
        """
        if self.pattern is None or not self.pattern.aps:
            return []
        # The Step 3 DP prices each candidate against every neighbor
        # candidate, re-asking for the same boundary set; memoize while
        # no repair override is in play (overrides mutate in place, so
        # a cached translation would go stale).
        cacheable = not self.overrides
        if cacheable:
            cached = self._boundary_cache.get(window)
            if cached is not None:
                return cached
        names = list(self.pattern.aps)
        boundary = {names[0], names[-1]}
        if window is not None:
            bbox = self.inst.bbox
            for pin_name in self.pattern.aps:
                x = self.ap_of(pin_name).x
                if x - bbox.xlo <= window or bbox.xhi - x <= window:
                    boundary.add(pin_name)
        out = [(pin_name, self.ap_of(pin_name)) for pin_name in boundary]
        if cacheable:
            self._boundary_cache[window] = out
        return out


@dataclass
class ClusterSelectionResult:
    """Step 3 output: per-instance selection plus residual conflicts."""

    selection: dict = field(default_factory=dict)
    conflicts: list = field(default_factory=list)

    def conflicting_pins(self) -> set:
        """Return the set of (instance name, pin name) in any conflict."""
        pins = set()
        for inst_a, pin_a, inst_b, pin_b in self.conflicts:
            pins.add((inst_a, pin_a))
            pins.add((inst_b, pin_b))
        return pins


class ClusterPatternSelector:
    """Runs the Step 3 DP over every cluster of a design."""

    def __init__(
        self,
        design: Design,
        engine: DrcEngine,
        config: PaafConfig = None,
        kernel: PairKernel = None,
        akernel=None,
    ):
        self.design = design
        self.tech = design.tech
        self.engine = engine
        self.config = config or PaafConfig()
        if kernel is None:
            kernel = PairKernel(
                design.tech, mode=self.config.paircheck_mode, engine=engine
            )
        self.kernel = kernel
        self.akernel = akernel
        self._shape_ctx_cache = {}
        self._via_vs_inst_cache = {}
        # (id(left), id(right)) -> conflict list, valid only while
        # neither side has repair overrides (the candidate objects are
        # kept alive by the caller for the whole select() run, so ids
        # are stable).  The cluster DP re-prices the same neighbor
        # pair once per predecessor state; the memo collapses those
        # repeats to one boundary scan.
        self._conflict_cache = {}
        # Translation-invariant twin of the identity memo: the verdict
        # for a (pattern, pattern) pair depends only on the relative
        # displacement of the two members, so rows of identically
        # pitched instances share one boundary scan per pattern pair.
        self._conflict_rel_cache = {}
        self._via_aps_cache = {}
        self._boundary_window = self._interaction_window()

    def _interaction_window(self) -> int:
        """Return how far (in x) a via can interact across a cell edge.

        The reach of the widest enclosure of the lowest up-via plus the
        largest rule distance of the layers it touches.  Access points
        farther than this from the cell edge cannot conflict with the
        neighboring instance.
        """
        window = 0
        for via in self.tech.vias:
            bottom = self.tech.layer(via.bottom_layer)
            top = self.tech.layer(via.top_layer)
            reach = max(
                -via.bottom_enc.xlo,
                via.bottom_enc.xhi,
                -via.top_enc.xlo,
                via.top_enc.xhi,
            )
            rule = max(bottom.max_rule_distance, top.max_rule_distance)
            window = max(window, reach + rule)
        return window

    def select(
        self, candidates_by_inst: dict, alternatives_fn=None, clusters=None
    ) -> ClusterSelectionResult:
        """Select one pattern per instance.

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

        ``clusters`` restricts the selection to an explicit cluster
        list (the incremental-analysis path); by default every cluster
        of the design is processed.
        """
        result = ClusterSelectionResult()
        if clusters is None:
            clusters = self.design.row_clusters()
        for cluster in clusters:
            self._select_in_cluster(
                cluster, candidates_by_inst, result, alternatives_fn
            )
        return result

    def select_cluster(
        self, cluster, candidates_by_inst, result, alternatives_fn=None
    ) -> None:
        """Run the DP for one cluster, accumulating into ``result``.

        The per-cluster entry point the parallel Step 3 workers drive:
        it lets a caller interleave clusters with its own bookkeeping
        (per-cluster conflict slices) while sharing ``result`` so
        multi-height pinning works across the caller's cluster
        sequence.
        """
        self._select_in_cluster(
            cluster, candidates_by_inst, result, alternatives_fn
        )

    # -- internals ---------------------------------------------------------

    def _select_in_cluster(
        self, cluster, candidates_by_inst, result, alternatives_fn
    ) -> None:
        with span(
            "step3.cluster",
            first=cluster[0].name if cluster else None,
            insts=len(cluster),
        ):
            self._select_in_cluster_impl(
                cluster, candidates_by_inst, result, alternatives_fn
            )

    def _select_in_cluster_impl(
        self, cluster, candidates_by_inst, result, alternatives_fn
    ) -> None:
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
            if other_ap.has_via_access and not self._pair_clean(
                candidate, other_ap
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
            cost += self.config.drc_cost
        return cost

    def _vertex_cost(self, selected: SelectedAccess) -> float:
        if selected.pattern is None:
            return 0
        cost = selected.pattern.cost
        if not selected.pattern.is_clean:
            cost += self.config.drc_cost * len(selected.pattern.violations)
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
        cacheable = not left.overrides and not right.overrides
        rel_key = None
        if cacheable:
            cached = self._conflict_cache.get((id(left), id(right)))
            if cached is not None:
                return cached
            if left.pattern is not None and right.pattern is not None:
                # Patterns are owned by one unique instance each, so
                # the pattern ids pin down both representatives'
                # absolute geometry; the dx/dy delta pins the members'
                # relative placement.  Every conflict check (pair
                # kernel, via-vs-instance table) is translation
                # invariant, so the pin-pair verdicts transfer.
                rel_key = (
                    id(left.pattern),
                    id(right.pattern),
                    right.dx - left.dx,
                    right.dy - left.dy,
                )
                hit = self._conflict_rel_cache.get(rel_key)
                if hit is not None:
                    lname = left.inst.name
                    rname = right.inst.name
                    conflicts = [
                        (lname, pin_a, rname, pin_b)
                        for pin_a, pin_b in hit
                    ]
                    self._conflict_cache[(id(left), id(right))] = conflicts
                    return conflicts
        conflicts = []
        left_aps = self._boundary_via_aps(left, cacheable)
        right_aps = self._boundary_via_aps(right, cacheable)
        lname = left.inst.name
        rname = right.inst.name
        kernel = self.kernel
        tables = kernel.tables if kernel.mode == "kernel" else None
        pair_clean = kernel.pair_clean
        for pin_a, _ap_a, via_a, ax, ay in left_aps:
            for pin_b, _ap_b, via_b, bx, by in right_aps:
                if tables is not None:
                    # Inlined kernel-mode fast path: build_all has
                    # precompiled every via combination, so the dict
                    # hit plus the table probe is the whole verdict
                    # (uncounted by ``pairkernel.query``).
                    table = tables.get((via_a, via_b, False))
                    clean = (
                        table.clean(bx - ax, by - ay)
                        if table is not None
                        else pair_clean(via_a, ax, ay, via_b, bx, by)
                    )
                else:
                    clean = pair_clean(via_a, ax, ay, via_b, bx, by)
                if not clean:
                    conflicts.append((lname, pin_a, rname, pin_b))
        for pin_a, ap_a, _via, _ax, _ay in left_aps:
            if not self._via_vs_instance_clean(ap_a, right.inst):
                conflicts.append((lname, pin_a, rname, "<shapes>"))
        for pin_b, ap_b, _via, _bx, _by in right_aps:
            if not self._via_vs_instance_clean(ap_b, left.inst):
                conflicts.append((lname, "<shapes>", rname, pin_b))
        if cacheable:
            self._conflict_cache[(id(left), id(right))] = conflicts
            if rel_key is not None:
                self._conflict_rel_cache[rel_key] = [
                    (pin_a, pin_b) for _, pin_a, _, pin_b in conflicts
                ]
        return conflicts

    def _boundary_via_aps(self, sel: SelectedAccess, cacheable: bool) -> list:
        """Boundary APs with via access, unpacked for the conflict scan.

        Entries are ``(pin, ap, primary_via, x, y)``; memoized per
        selection object while it carries no repair overrides (same
        staleness rule as the conflict memos).
        """
        if cacheable:
            hit = self._via_aps_cache.get(id(sel))
            if hit is not None:
                return hit
        out = [
            (pin, ap, ap.valid_vias[0], ap.x, ap.y)
            for pin, ap in sel.boundary_aps(self._boundary_window)
            if ap.has_via_access
        ]
        if cacheable:
            self._via_aps_cache[id(sel)] = out
        return out

    def _via_vs_instance_clean(self, ap, neighbor_inst) -> bool:
        """Check an up-via against a neighboring instance's shapes.

        With an array kernel attached this is one compiled-table lookup
        keyed by the via's displacement from the neighbor's origin (the
        ``net_key=None`` site table, shared across every instance of
        the neighbor's master/orientation); the kernel's verify mode
        cross-checks the engine internally.
        """
        key = (ap.primary_via, ap.x, ap.y, neighbor_inst.name)
        cached = self._via_vs_inst_cache.get(key)
        if cached is not None:
            tick("cluster.via_vs_inst_cache.hit")
            return cached
        tick("cluster.via_vs_inst_cache.miss")
        akernel = self.akernel
        if akernel is not None and akernel.mode != "engine":
            clean = akernel.via_vs_instance_clean(
                ap.primary_via, ap.x, ap.y, neighbor_inst
            )
            self._via_vs_inst_cache[key] = clean
            return clean
        context = self._shape_ctx_cache.get(neighbor_inst.name)
        if context is None:
            context = ShapeContext.from_instance(neighbor_inst)
            self._shape_ctx_cache[neighbor_inst.name] = context
        via = self.tech.via(ap.primary_via)
        clean = not self.engine.check_via_placement(
            via, ap.x, ap.y, None, context, with_min_step=False
        )
        self._via_vs_inst_cache[key] = clean
        return clean

    def _pair_clean(self, ap_a, ap_b) -> bool:
        """Boundary pair verdict via the shared translation-invariant
        kernel -- the same value-keyed backend Step 2 uses, so verdicts
        are shared across clusters, selectors and worker processes
        instead of living in a per-selector position-keyed dict."""
        return self.kernel.pair_clean(
            ap_a.primary_via, ap_a.x, ap_a.y,
            ap_b.primary_via, ap_b.x, ap_b.y,
        )

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
