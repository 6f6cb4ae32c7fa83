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
from collections import Counter
from dataclasses import dataclass, field

from repro.core.apgen import AccessPointGenerator
from repro.core.cluster import ClusterSelectionResult, SelectedAccess
from repro.core.config import PaafConfig
from repro.core.signature import UniqueInstance, unique_instances
from repro.db.design import Design
from repro.drc.context import ShapeContext
from repro.drc.engine import DrcEngine


@dataclass
class UniqueInstanceAccess:
    """Step 1 + Step 2 output for one unique instance."""

    unique_instance: UniqueInstance
    aps_by_pin: dict = field(default_factory=dict)
    patterns: list = field(default_factory=list)

    @property
    def total_aps(self) -> int:
        """Return the number of access points over all pins."""
        return sum(len(aps) for aps in self.aps_by_pin.values())


@dataclass
class PinAccessResult:
    """Aggregated output of the framework.

    ``timings`` keeps the paper's per-step wall clocks (``step1``,
    ``step2``, ``step3``, ``total``); ``stats`` carries the
    observability payload -- cache hit/miss counters, parallel
    fan-out info, pair-kernel table counters and (when profiling or
    tracing is on) the merged ``metrics.*`` / ``obs.*`` summaries --
    and is what ``--stats-json`` dumps.  Every stats key follows the
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
    # follows ``unique_instances(design)`` order, Step 3 merges
    # per-cluster outputs back in design cluster order, and
    # ``failed_pins`` walks ``design.connected_pins()``.  The qa layer
    # leans on that to canonicalize and digest results.

    def canonical(self) -> dict:
        """Return the sorted plain-JSON form of this result.

        See :func:`repro.qa.fingerprint.canonical_result`; this is the
        payload golden records store and ``repro qa diff`` walks.
        """
        from repro.qa.fingerprint import canonical_result

        return canonical_result(self)

    def fingerprint(self):
        """Digest this result (combined + per-step sub-digests).

        The digest is invariant under every perf knob (``jobs``,
        ``paircheck_mode``, cache state) -- the identity contract
        ``repro qa check`` enforces against the golden corpus.
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
        out = {}
        if self.selection is None:
            return out
        for inst_name, selected in self.selection.selection.items():
            for pin_name, ap in selected.access_points().items():
                out[(inst_name, pin_name)] = ap
        return out

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
        ua_of_inst = self._unique_access_by_instance()
        for inst, pin in self.design.connected_pins():
            key = (inst.name, pin.name)
            ua = ua_of_inst.get(inst.name)
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

    def _unique_access_by_instance(self) -> dict:
        out = {}
        for ua in self.unique_accesses:
            for member in ua.unique_instance.members:
                out[member.name] = ua
        return out


class PinAccessFramework:
    """The paper's complete pin access analysis framework (PAAF).

    ``run()`` fans Steps 1 + 2 out as one fused task per unique
    instance and Step 3 as one task per row-cluster *component*
    (clusters linked by shared multi-height instances), over
    ``config.jobs`` worker processes.  ``jobs=1`` executes the very
    same task functions in-process, so parallel results are
    bit-identical to serial ones by construction.  With
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
        # Step 2 compatibility, Step 3 boundary conflicts, the
        # incremental analyzer and every worker process share its
        # forbidden-displacement tables.
        self.kernel = PairKernel(
            design.tech,
            mode=self.config.paircheck_mode,
            engine=self.engine,
        )
        # And one array kernel for the per-cell workloads: Step 1
        # candidate validation and Step 3 via-vs-instance checks share
        # its compiled occupancy tables the same way.
        from repro.core.arraykernel import ArrayKernel

        self.akernel = ArrayKernel(
            design,
            mode=self.config.apcheck_mode,
            engine=self.engine,
        )

    def run(self, jobs: int = None, use_cache: bool = True) -> PinAccessResult:
        """Run all three steps and return the populated result.

        ``jobs`` overrides ``config.jobs`` for this run (``0`` means
        all cores); ``use_cache=False`` bypasses the persistent cache
        for both lookup and store (the CLI's ``--no-cache``).

        Observability (all perf-only -- results are bit-identical with
        any combination enabled): ``config.profile``/``metrics_out``
        collect the merged metrics registry, ``trace``/``trace_out``
        record the stitched span tree, ``explain`` the decision-event
        stream; :meth:`repro.obs.collect.Collector.finish` attaches
        them to the result and writes the configured output files.
        """
        from repro.obs import trace as obs_trace
        from repro.obs.collect import Collector

        jobs = self.config.jobs if jobs is None else jobs
        result = PinAccessResult(design=self.design, config=self.config)
        collector = Collector.from_config(self.config)
        work = Counter()
        with collector:
            t0 = time.perf_counter()
            with obs_trace.span("paaf.run", design=self.design.name):
                with obs_trace.span("paaf.kernel.prepare"):
                    self._prepare_kernel(use_cache)
                with obs_trace.span("paaf.step12") as span12:
                    step1_s, step2_s = self._run_step12(
                        result,
                        jobs,
                        use_cache,
                        collector,
                        work,
                        span12["id"] if span12 else None,
                    )
                t2 = time.perf_counter()
                with obs_trace.span("paaf.step3") as span3:
                    self._run_step3_components(
                        result,
                        jobs,
                        collector,
                        work,
                        span3["id"] if span3 else None,
                    )
                t3 = time.perf_counter()
        if self.cache is not None and use_cache and self.kernel.built:
            self.cache.store_pair_tables(self.kernel.tables)
        if self.cache is not None and use_cache and self.akernel.built:
            self.cache.store_array_tables(self.akernel.tables)
        result.stats.update(self.kernel.stats())
        result.stats.update(self.akernel.stats())
        result.stats.update(work)
        result.timings["step1"] = step1_s
        result.timings["step2"] = step2_s
        result.timings["step3"] = t3 - t2
        result.timings["total"] = t3 - t0
        if self.cache is not None and use_cache:
            result.stats.update(self.cache.stats())
        if collector.registry is not None:
            registry = collector.registry
            for name in ("arraykernel.candidates", "arraykernel.filtered"):
                if work[name]:
                    registry.incr(name, work[name])
            registry.set_gauge("paaf.jobs", jobs)
            for name in (
                "paaf.unique_instances",
                "paaf.step12_tasks",
                "paaf.clusters",
                "paaf.cluster_components",
            ):
                if name in result.stats:
                    registry.set_gauge(name, result.stats[name])
        collector.finish(result, self.config)
        return result

    def run_step1(self, result: PinAccessResult = None) -> PinAccessResult:
        """Step 1: pin-based access point generation per unique instance."""
        if result is None:
            result = PinAccessResult(design=self.design, config=self.config)
            t0 = time.perf_counter()
            self._step1(result)
            result.timings["step1"] = time.perf_counter() - t0
            result.timings["total"] = result.timings["step1"]
            return result
        self._step1(result)
        return result

    # -- internals ---------------------------------------------------------

    def _prepare_kernel(self, use_cache: bool) -> None:
        """Warm the pair kernel before any fan-out.

        Preloads persisted forbidden-displacement tables from the
        cache (they live under the same tech+config fingerprint as the
        AP entries) and eagerly compiles the rest, so worker processes
        receive the complete table set and never build their own.  In
        ``engine`` mode the kernel is inert and stays empty.
        """
        if self.kernel.mode != "engine":
            if self.cache is not None and use_cache:
                tables = self.cache.load_pair_tables()
                if tables:
                    self.kernel.preload(tables)
            self.kernel.build_all()
        if self.akernel.mode != "engine":
            if self.cache is not None and use_cache:
                tables = self.cache.load_array_tables()
                if tables:
                    self.akernel.preload(tables)
            self.akernel.build_all()

    def _run_step12(
        self,
        result: PinAccessResult,
        jobs: int,
        use_cache: bool,
        collector,
        work: Counter,
        parent_span=None,
    ) -> tuple:
        """Fused Step 1 + 2: one task per unique instance.

        Cache hits skip task dispatch entirely; misses run through
        :func:`repro.perf.workers.step12_task` (in-process for
        ``jobs=1``, worker processes otherwise) and are stored back.
        Task observability snapshots merge into ``collector`` in task
        order (worker spans re-parent under ``parent_span``, the
        ``paaf.step12`` span) and task kernel counters add into
        ``work``.  Returns the summed per-phase seconds ``(step1,
        step2)``.
        """
        from repro.perf import workers
        from repro.perf.parallel import parallel_map

        uis = unique_instances(self.design)
        entries = [None] * len(uis)
        cache = self.cache if use_cache else None
        pending = []
        for index, ui in enumerate(uis):
            hit = cache.load(ui) if cache is not None else None
            if hit is not None:
                entries[index] = hit
            else:
                pending.append(index)
        step1_s = step2_s = 0.0
        if pending:
            outcome = parallel_map(
                workers.step12_task,
                pending,
                jobs=jobs,
                initializer=workers.init_worker,
                initargs=(
                    self.design,
                    self.config,
                    self.config.profile,
                    self.kernel.tables,
                    self.akernel.tables,
                ),
            )
            for (
                index, aps_by_pin, patterns, s1, s2, counts, snap
            ) in outcome.results:
                entries[index] = (aps_by_pin, patterns)
                step1_s += s1
                step2_s += s2
                work.update(counts)
                collector.merge_task(snap, parent_span=parent_span)
                if cache is not None:
                    cache.store(uis[index], aps_by_pin, patterns)
            result.stats["parallel.step12_jobs"] = outcome.jobs_used
            if outcome.fellback:
                result.stats["parallel.fallback"] = True
        result.stats["paaf.unique_instances"] = len(uis)
        result.stats["paaf.step12_tasks"] = len(pending)
        for ui, (aps_by_pin, patterns) in zip(uis, entries):
            result.unique_accesses.append(
                UniqueInstanceAccess(
                    unique_instance=ui,
                    aps_by_pin=aps_by_pin,
                    patterns=patterns,
                )
            )
        return step1_s, step2_s

    def _run_step3_components(
        self,
        result: PinAccessResult,
        jobs: int,
        collector,
        work: Counter,
        parent_span=None,
    ) -> None:
        """Step 3 fanned out across independent cluster components.

        Clusters sharing an instance (multi-height cells span several
        rows) form one component so the serial pinning semantics hold
        inside each task; components are mutually independent.  The
        per-cluster outputs are merged back in design cluster order,
        reproducing the serial selection and conflict ordering; task
        observability snapshots merge into ``collector`` in task
        order, re-parenting worker spans under ``parent_span`` (the
        ``paaf.step3`` span), and task kernel counters add into
        ``work``.
        """
        from repro.perf import workers
        from repro.perf.parallel import parallel_map

        clusters = self.design.row_clusters()
        components = _cluster_components(clusters)
        ua_of_inst = {}
        translations = {}
        for ua in result.unique_accesses:
            for member in ua.unique_instance.members:
                ua_of_inst[member.name] = ua
                translations[member.name] = ua.unique_instance.translation_to(
                    member
                )
        bca = self.config.boundary_conflict_aware
        payloads = []
        for component in components:
            names = sorted(
                {inst.name for ci in component for inst in clusters[ci]}
            )
            payloads.append(
                {
                    "clusters": component,
                    "patterns": {
                        name: ua_of_inst[name].patterns for name in names
                    },
                    "translations": {
                        name: translations[name] for name in names
                    },
                    "aps": (
                        {name: ua_of_inst[name].aps_by_pin for name in names}
                        if bca
                        else None
                    ),
                }
            )
        outcome = parallel_map(
            workers.step3_task,
            payloads,
            jobs=jobs,
            initializer=workers.init_worker,
            initargs=(
                self.design,
                self.config,
                self.config.profile,
                self.kernel.tables,
                self.akernel.tables,
            ),
        )
        result.stats["parallel.step3_jobs"] = outcome.jobs_used
        result.stats["paaf.clusters"] = len(clusters)
        result.stats["paaf.cluster_components"] = len(components)
        if outcome.fellback:
            result.stats["parallel.fallback"] = True

        per_cluster = []
        for component_result, counts, snap in outcome.results:
            work.update(counts)
            collector.merge_task(snap, parent_span=parent_span)
            per_cluster.extend(component_result)
        per_cluster.sort(key=lambda item: item[0])

        selection = ClusterSelectionResult()
        built = {}
        for _, selections, conflicts in per_cluster:
            for inst_name, pattern_index, overrides in selections:
                selected = built.get(inst_name)
                if selected is None:
                    if pattern_index is None:
                        # Mirror the serial placeholder for instances
                        # without a selectable pattern.
                        selected = SelectedAccess(
                            inst=self.design.instance(inst_name),
                            pattern=None,
                            dx=0,
                            dy=0,
                        )
                    else:
                        dx, dy = translations[inst_name]
                        selected = SelectedAccess(
                            inst=self.design.instance(inst_name),
                            pattern=ua_of_inst[inst_name].patterns[
                                pattern_index
                            ],
                            dx=dx,
                            dy=dy,
                        )
                    built[inst_name] = selected
                # A pinned multi-height instance reports accumulated
                # overrides from each cluster; the latest snapshot wins.
                selected.overrides = dict(overrides)
                selection.selection[inst_name] = selected
            selection.conflicts.extend(conflicts)
        result.selection = selection

    def _step1(self, result: PinAccessResult) -> None:
        generator = AccessPointGenerator(
            self.design, self.engine, self.config, akernel=self.akernel
        )
        for ui in unique_instances(self.design):
            rep = ui.representative
            context = ShapeContext.from_instance(rep)
            ua = UniqueInstanceAccess(unique_instance=ui)
            for pin in rep.master.signal_pins():
                ua.aps_by_pin[pin.name] = generator.generate_for_pin(
                    rep, pin, context
                )
            result.unique_accesses.append(ua)


def _cluster_components(clusters: list) -> list:
    """Group cluster indices into instance-sharing components.

    Two clusters belong to the same component when they share an
    instance (a multi-height cell is a member of every row it covers).
    Components are returned as sorted index lists, ordered by their
    first cluster, so processing components in order and clusters
    within a component in order reproduces the serial cluster order.
    """
    parent = list(range(len(clusters)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    owner = {}
    for ci, cluster in enumerate(clusters):
        for inst in cluster:
            prev = owner.get(inst.name)
            if prev is None:
                owner[inst.name] = ci
            else:
                parent[find(ci)] = find(prev)
    components = {}
    for ci in range(len(clusters)):
        components.setdefault(find(ci), []).append(ci)
    return sorted(
        (sorted(members) for members in components.values()),
        key=lambda members: members[0],
    )


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
