"""The pin access framework orchestrator and its result object.

``PinAccessFramework.run()`` performs the paper's three-step,
multi-level flow: Step 1 (pin-based access point generation) and
Step 2 (access pattern generation) per unique instance, then Step 3
(cluster-based pattern selection) per concrete instance.  The result
carries everything the paper's experiments report: AP counts per
unique instance (Table II), selected access per instance pin and
failed-pin accounting (Table III), and per-step runtimes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.cluster import (
    ClusterPatternSelector,
    ClusterSelectionResult,
    SelectedAccess,
)
from repro.core.config import PaafConfig
from repro.core.signature import UniqueInstance, unique_instances
from repro.db.design import Design
from repro.drc.context import ShapeContext
from repro.drc.engine import DrcEngine


@dataclass
class UniqueInstanceAccess:
    """Step 1 + Step 2 output for one unique instance.

    ``wire`` holds each pin's access points rendered for the wire
    protocol, filled on a pin's first query
    (:func:`repro.serve.protocol.render_answer`): the fields are the
    same for every member, which only offsets ``x`` and ``y``.
    """

    unique_instance: UniqueInstance
    aps_by_pin: dict = field(default_factory=dict)
    patterns: list = field(default_factory=list)
    wire: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def total_aps(self) -> int:
        """Return the number of access points over all pins."""
        return sum(len(aps) for aps in self.aps_by_pin.values())


@dataclass
class PinAccessResult:
    """Aggregated output of the framework.

    ``timings`` keeps the paper's per-step wall clocks (``step1``,
    ``step2``, ``step3``, ``total``); ``stats`` carries the
    observability payload -- cache hit/miss counters, kernel table
    and work counters and (when profiling or tracing is on) the
    ``metrics.*`` / ``obs.*`` summaries -- and is what
    ``--stats-json`` dumps.  Every stats key follows the
    ``domain.sub.name`` contract of
    :func:`repro.obs.metrics.stats_name_violations`.

    ``metrics`` / ``trace`` / ``events`` hold the live observability
    sinks of the run (a
    :class:`~repro.obs.metrics.MetricsRegistry`, a
    :class:`~repro.obs.trace.Tracer` and an
    :class:`~repro.obs.events.EventLog`) when the matching
    ``PaafConfig`` knobs are set, else None.
    """

    design: Design
    config: PaafConfig
    unique_accesses: list = field(default_factory=list)
    selection: ClusterSelectionResult = None
    timings: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    metrics: object = None
    trace: object = None
    events: object = None

    # -- identity hooks (repro.qa) ------------------------------------------
    #
    # Result ordering is stable by construction: ``unique_accesses``
    # follows ``unique_instances(design)`` order, Step 3 takes the
    # clusters in design cluster order, and ``failed_pins`` walks
    # ``design.connected_pins()``.  The qa layer leans on that to
    # canonicalize and digest results.

    def canonical(self) -> dict:
        """Return the sorted plain-JSON form of this result.

        See :func:`repro.qa.fingerprint.canonical_result`; this is the
        payload golden records store and ``repro qa diff`` walks.
        """
        from repro.qa.fingerprint import canonical_result

        return canonical_result(self)

    def fingerprint(self):
        """Digest this result (combined + per-step sub-digests).

        The digest is invariant under every perf knob
        (``paircheck_mode``, ``apcheck_mode``, cache state) -- the
        identity contract ``repro qa check`` enforces against the
        golden corpus.
        """
        from repro.qa.fingerprint import result_fingerprint

        return result_fingerprint(self)

    # -- Experiment 1 metrics (unique-instance level) -----------------------

    @property
    def num_unique_instances(self) -> int:
        """Return the number of unique instances analyzed."""
        return len(self.unique_accesses)

    @property
    def total_access_points(self) -> int:
        """Return the total #APs over all unique instance pins."""
        return sum(ua.total_aps for ua in self.unique_accesses)

    def count_dirty_aps(self, engine: DrcEngine = None) -> int:
        """Re-validate every AP and count the dirty ones.

        This is the Table II "#Dirty APs" metric: an access point is
        dirty when its primary via placement has DRCs in the owning
        unique instance's intra-cell context.  PAAF validates during
        generation, so this returns 0 by construction; the method
        exists to *prove* it with an independent pass (and to score the
        baseline, which skips validation).
        """
        engine = engine or DrcEngine(self.design.tech)
        dirty = 0
        for ua in self.unique_accesses:
            rep = ua.unique_instance.representative
            context = ShapeContext.from_instance(rep)
            for pin_name, aps in ua.aps_by_pin.items():
                net_key = (rep.name, pin_name)
                for ap in aps:
                    if not ap.has_via_access:
                        continue
                    via = self.design.tech.via(ap.primary_via)
                    if engine.check_via_placement(
                        via, ap.x, ap.y, net_key, context
                    ):
                        dirty += 1
        return dirty

    # -- Experiment 2 metrics (instance level) -------------------------------

    def access_map(self) -> dict:
        """Return (inst name, pin name) -> selected AP in design coords."""
        if self.selection is None:
            return {}
        return self.selection.access_map()

    def placements(self) -> dict:
        """Return instance name -> ``(unique access, (dx, dy))``.

        ``(dx, dy)`` maps the unique access's coordinates onto the
        instance where it stood when this map was built: the one map
        from an instance to its Step 1/2 results that Step 3,
        :meth:`failed_pins` and the baseline read.  Step 3 hands each
        instance's entry on in its selection
        (:class:`~repro.core.cluster.SelectedAccess`), which is where
        the oracle reads it.
        """
        return {
            member.name: (ua, ua.unique_instance.translation_to(member))
            for ua in self.unique_accesses
            for member in ua.unique_instance.members
        }

    def failed_pins(self) -> list:
        """Return connected pins without a DRC-clean access point.

        A pin fails when it has no access point at all, is not covered
        by the selected pattern, sits in a dirty pattern pair, or is
        party to a residual inter-cell boundary conflict.
        """
        failed = []
        conflict_pins = (
            self.selection.conflicting_pins() if self.selection else set()
        )
        placements = self.placements()
        for inst, pin in self.design.connected_pins():
            key = (inst.name, pin.name)
            ua, _ = placements.get(inst.name, (None, None))
            if ua is None or not ua.aps_by_pin.get(pin.name):
                failed.append(key)
                continue
            selected = (
                self.selection.selection.get(inst.name)
                if self.selection
                else None
            )
            if selected is None or selected.pattern is None:
                failed.append(key)
                continue
            if pin.name not in selected.pattern.aps:
                failed.append(key)
                continue
            if any(
                pin.name in (pin_a, pin_b)
                for pin_a, pin_b, _ in selected.pattern.violations
            ):
                failed.append(key)
                continue
            if key in conflict_pins:
                failed.append(key)
        return failed


class PinAccessFramework:
    """The paper's complete pin access analysis framework (PAAF).

    ``run()`` calls Steps 1 + 2 as one fused unit per unique instance
    and Step 3 as one pass over the design's row clusters, in this
    process, on the framework's own kernels.  With
    ``config.cache_dir`` set, per-unique-instance results persist
    across runs keyed by signature + tech/config fingerprint.
    """

    def __init__(
        self, design: Design, config: PaafConfig = None, cache=None
    ):
        from repro.drc.pairkernel import PairKernel

        self.design = design
        self.config = config or PaafConfig()
        self.engine = DrcEngine(design.tech)
        if cache is None and self.config.cache_dir:
            from repro.perf.apcache import AccessCache, paaf_fingerprint

            cache = AccessCache(
                self.config.cache_dir,
                paaf_fingerprint(design, self.config),
            )
        self.cache = cache
        # One translation-invariant pair kernel for the whole flow:
        # Step 2 compatibility, Step 3 boundary conflicts and the
        # oracle's placement moves share its forbidden-displacement
        # tables.
        self.kernel = PairKernel(
            design.tech,
            mode=self.config.paircheck_mode,
            engine=self.engine,
        )
        # And one array kernel for the per-cell workloads: Step 1
        # candidate validation and Step 3 via-vs-instance checks
        # compile their tables from its one shape index per cell class.
        from repro.core.arraykernel import ArrayKernel

        self.akernel = ArrayKernel(
            design,
            mode=self.config.apcheck_mode,
            engine=self.engine,
        )
        # And one Step 3 selector for every pass: its boundary verdicts
        # (two pattern keys and a displacement), its per-pattern
        # boundary via records and the technology's interaction window
        # are keyed by value and hold for any placement, so a move
        # re-checks only pairs never seen before.
        self.selector = ClusterPatternSelector(
            design, self.config, kernel=self.kernel, akernel=self.akernel
        )

    def run(self, use_cache: bool = True) -> PinAccessResult:
        """Run all three steps and return the populated result.

        ``use_cache=False`` bypasses the persistent cache for both
        lookup and store (the CLI's ``--no-cache``).

        Observability (all perf-only -- results are bit-identical with
        any combination enabled): ``config.profile``/``metrics_out``
        collect the metrics registry, ``trace``/``trace_out`` record
        the span tree, ``explain`` the decision-event stream;
        :meth:`repro.obs.collect.Collector.finish` attaches them to
        the result and writes the configured output files.
        """
        from repro.obs import trace as obs_trace
        from repro.obs.collect import Collector

        result = PinAccessResult(design=self.design, config=self.config)
        collector = Collector.from_config(self.config)
        before = self.akernel.work_counts()
        with collector:
            t0 = time.perf_counter()
            with obs_trace.span("paaf.run", design=self.design.name):
                with obs_trace.span("paaf.step12"):
                    uis = unique_instances(self.design)
                    result.stats["paaf.unique_instances"] = len(uis)
                    result.unique_accesses = self.analyze_uniques(
                        uis, use_cache, result
                    )
                t2 = time.perf_counter()
                with obs_trace.span("paaf.step3"):
                    self._run_step3(result)
                t3 = time.perf_counter()
        work = {
            name: count - before[name]
            for name, count in self.akernel.work_counts().items()
        }
        result.stats.update(self.kernel.stats())
        result.stats.update(self.akernel.stats())
        result.stats.update(work)
        result.timings["step3"] = t3 - t2
        result.timings["total"] = t3 - t0
        if self.cache is not None and use_cache:
            result.stats.update(self.cache.stats())
        if collector.registry is not None:
            registry = collector.registry
            for name in ("arraykernel.candidates", "arraykernel.filtered"):
                if work[name]:
                    registry.incr(name, work[name])
            for name in (
                "paaf.unique_instances",
                "paaf.step12_tasks",
                "paaf.clusters",
            ):
                if name in result.stats:
                    registry.set_gauge(name, result.stats[name])
        collector.finish(result, self.config)
        return result

    def run_step1(self, result: PinAccessResult = None) -> PinAccessResult:
        """Step 1: pin-based access point generation per unique instance."""
        from repro.perf.workers import step1_unique

        own = result is None
        if own:
            result = PinAccessResult(design=self.design, config=self.config)
        t0 = time.perf_counter()
        for ui in unique_instances(self.design):
            aps_by_pin = step1_unique(
                self.design, self.config, self.akernel, ui.representative
            )
            result.unique_accesses.append(
                UniqueInstanceAccess(unique_instance=ui, aps_by_pin=aps_by_pin)
            )
        if own:
            result.timings["step1"] = time.perf_counter() - t0
            result.timings["total"] = result.timings["step1"]
        return result

    def analyze_uniques(
        self, uis: list, use_cache: bool = True,
        result: PinAccessResult = None,
    ) -> list:
        """Fused Step 1 + 2 for ``uis``: one access per unique instance.

        The one Step 1/2 path: ``run()`` passes every unique instance
        of the design, :meth:`~repro.core.oracle.PinAccessOracle.
        move_instance` a signature class first seen after a move.  A
        cache hit skips the unit; a miss runs
        :func:`repro.perf.workers.step12_unique` and is stored back.
        When given, ``result`` receives the ``step1``/``step2`` seconds
        and ``paaf.step12_tasks``, the number of units run.
        """
        from repro.perf.workers import step12_unique

        cache = self.cache if use_cache else None
        accesses = []
        step1_s = step2_s = 0.0
        tasks = 0
        for index, ui in enumerate(uis):
            entry = cache.load(ui) if cache is not None else None
            if entry is None:
                aps_by_pin, patterns, s1, s2 = step12_unique(
                    self.design, self.config, self.engine, self.kernel,
                    self.akernel, ui, index,
                )
                step1_s += s1
                step2_s += s2
                tasks += 1
                if cache is not None:
                    cache.store(ui, aps_by_pin, patterns)
                entry = (aps_by_pin, patterns)
            accesses.append(
                UniqueInstanceAccess(
                    unique_instance=ui, aps_by_pin=entry[0], patterns=entry[1]
                )
            )
        if result is not None:
            result.timings["step1"] = step1_s
            result.timings["step2"] = step2_s
            result.stats["paaf.step12_tasks"] = tasks
        return accesses

    def select_patterns(
        self, clusters: list, placements: dict
    ) -> ClusterSelectionResult:
        """Step 3: one cluster-DP pass over ``clusters``, in order.

        The one Step 3 path: ``run()`` passes every row cluster of the
        design, :meth:`~repro.core.oracle.PinAccessOracle.move_instance`
        the clusters of the components a move touched, in
        cluster-index order.  ``placements`` maps every member's name
        to its ``(unique access, (dx, dy))``, as
        :meth:`PinAccessResult.placements` does, and each selection
        carries its member's entry on; a member whose unique access
        has no pattern is selected with ``pattern`` None.  Every pass
        runs on the framework's one :attr:`selector`, whose boundary
        verdicts and via records, keyed by value, live for the
        framework's lifetime.
        """
        candidates_by_inst = {}
        for cluster in clusters:
            for inst in cluster:
                ua, (dx, dy) = placements[inst.name]
                signature = ua.unique_instance.signature
                candidates_by_inst[inst.name] = [
                    SelectedAccess(
                        inst=inst, pattern=p, dx=dx, dy=dy,
                        key=(signature, ordinal), unique_access=ua,
                    )
                    for ordinal, p in enumerate(ua.patterns)
                ] or [
                    SelectedAccess(
                        inst=inst, pattern=None, dx=dx, dy=dy,
                        unique_access=ua,
                    )
                ]
        alternatives_fn = None
        if self.config.boundary_conflict_aware:

            def alternatives_fn(inst_name, pin_name):
                return placements[inst_name][0].aps_by_pin.get(pin_name, [])

        return self.selector.select(
            clusters, candidates_by_inst, alternatives_fn
        )

    # -- internals ---------------------------------------------------------

    def _run_step3(self, result: PinAccessResult) -> None:
        """Step 3 over every row cluster of the design."""
        clusters = self.design.row_clusters()
        result.selection = self.select_patterns(clusters, result.placements())
        result.stats["paaf.clusters"] = len(clusters)


def evaluate_failed_pins(design: Design, access_map: dict) -> list:
    """Independent scorer: pins whose selected access is not DRC-clean.

    ``access_map`` maps (instance name, pin name) to the selected
    :class:`AccessPoint` in design coordinates.  The scorer builds the
    full-design context *plus every selected via's shapes*, then
    re-checks each pin's via placement; any violation -- a dirty AP,
    an intra-cell conflict or an inter-cell conflict -- fails the pin.
    Connected pins missing from the map fail outright.

    This is the fair Table III metric applied identically to PAAF and
    to the legacy baseline.
    """
    engine = DrcEngine(design.tech)
    context = ShapeContext.from_design(design)
    net_keys = {}
    for (inst_name, pin_name), ap in access_map.items():
        net = design.net_of(inst_name, pin_name)
        net_key = net.name if net is not None else (inst_name, pin_name)
        net_keys[(inst_name, pin_name)] = net_key
        if not ap.has_via_access:
            continue
        via = design.tech.via(ap.primary_via)
        context.add(via.bottom_layer, via.bottom_at(ap.x, ap.y), net_key)
        context.add(via.cut_layer, via.cut_at(ap.x, ap.y), net_key)
        context.add(via.top_layer, via.top_at(ap.x, ap.y), net_key)
    failed = []
    for inst, pin in design.connected_pins():
        key = (inst.name, pin.name)
        ap = access_map.get(key)
        if ap is None:
            failed.append(key)
            continue
        if not ap.has_via_access:
            # Planar-only access: accessible iff a planar direction
            # validated (macro pins); otherwise the pin fails.
            if not ap.planar_dirs:
                failed.append(key)
            continue
        via = design.tech.via(ap.primary_via)
        # Scope the min-step merge to the accessed pin's own shapes:
        # same-net metal of *other* cells merging into the polygon is a
        # router-stage concern, not a pin-access defect.
        own_rects = [
            r
            for rects in inst.pin_rects(pin.name).values()
            for r in rects
        ]
        violations = engine.check_via_placement(
            via,
            ap.x,
            ap.y,
            net_keys[key],
            context,
            min_step_rects=own_rects,
        )
        if violations:
            failed.append(key)
    return failed
