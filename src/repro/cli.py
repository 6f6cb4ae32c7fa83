"""Command-line interface: ``python -m repro <command>``.

The deployment surface a downstream user drives:

* ``generate`` -- emit a synthetic testcase as LEF + DEF.
* ``analyze``  -- run pin access analysis on a LEF/DEF pair and report
  the paper's Experiment 1/2 metrics.
* ``route``    -- route a LEF/DEF pair with PAAF or legacy access and
  report routed pin-access DRCs (Experiment 3).
* ``render``   -- draw the pin access view of a LEF/DEF pair as SVG.
* ``qa``       -- golden-result regression gates: ``snapshot``,
  ``check``, ``accept`` and ``diff`` over the committed corpus.
* ``compare``  -- router-in-the-loop comparator (Experiment 3,
  Figures 8-9): ``run`` a case matrix through the in-process PAO,
  serve-backed PAO and legacy Dr. CU-style access flows, then
  ``report`` the DRC/opens/wirelength deltas gated against the
  committed ``goldens/compare`` corpus.
* ``serve``    -- host the analyzed design as a long-lived daemon
  (the ``repro.serve/v1`` protocol over TCP or a Unix socket);
  ``--telemetry`` echoes server spans to tracing clients.
* ``query``    -- client for a running daemon: pin queries, placement
  edits, stats/health/metrics scrapes and graceful shutdown;
  ``--timing`` prints the traced per-phase breakdown of each query.

User-facing failures (unreadable inputs, bad option values) exit
non-zero with a one-line message; tracebacks are reserved for bugs.
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro.bench import (
    CASE_NAMES,
    TESTCASE_NAMES,
    build_testcase,
    check_scale,
)
from repro.core import (
    LegacyPinAccess,
    PaafConfig,
    PinAccessFramework,
    PinAccessOracle,
    evaluate_failed_pins,
    unique_instances,
)
from repro.lefdef import parse_def, parse_lef, write_def, write_lef
from repro.lefdef.def_parser import DefParseError
from repro.lefdef.lef_parser import LefParseError
from repro.report import format_table
from repro.route import DetailedRouter, count_route_drcs
from repro.route.drcu import drcu_access_map
from repro.viz import render_pin_access, render_routing


class CliError(Exception):
    """A user-facing failure: print the message, exit 2, no traceback."""


def main(argv: list = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        # argparse reports its own errors (unknown subcommand, an
        # invalid --paircheck-mode choice, ...) then raises SystemExit;
        # surface that as a return code so embedders never see a
        # traceback.
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PAO: pin access oracle for detailed routing",
    )
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("generate", help="emit a testcase as LEF + DEF")
    gen.add_argument("testcase", help="e.g. ispd18_test1")
    gen.add_argument("--scale", type=_scale, default=0.01)
    gen.add_argument("--lef", required=True, help="output LEF path")
    gen.add_argument("--def", dest="def_path", required=True,
                     help="output DEF path")
    gen.set_defaults(handler=_cmd_generate)

    ana = sub.add_parser("analyze", help="run pin access analysis")
    _add_io_args(ana)
    ana.add_argument("--no-bca", action="store_true",
                     help="disable boundary-conflict awareness")
    ana.add_argument("--baseline", action="store_true",
                     help="run the legacy TrRte-style flow instead")
    ana.add_argument("--list-failed", action="store_true",
                     help="print each failed pin")
    ana.add_argument("--cache-dir",
                     help="persistent AP/pattern cache directory")
    ana.add_argument("--no-cache", action="store_true",
                     help="bypass the AP cache for this run")
    ana.add_argument("--profile", action="store_true",
                     help="collect hot-path counters into the stats")
    ana.add_argument("--paircheck-mode",
                     choices=("kernel", "engine", "verify"),
                     default="kernel",
                     help="via-pair check backend: precompiled kernel "
                          "tables, the DRC engine, or both cross-checked "
                          "(results are identical for all three)")
    ana.add_argument("--apcheck-mode",
                     choices=("array", "engine", "verify"),
                     default="array",
                     help="Step 1/3 candidate-check backend: compiled "
                          "occupancy tables, the DRC engine, or both "
                          "cross-checked (results are identical for "
                          "all three)")
    ana.add_argument("--stats-json",
                     help="write timings/stats JSON here ('-' for stdout)")
    ana.add_argument("--trace", action="store_true",
                     help="record structured spans (summary in stats)")
    ana.add_argument("--trace-out",
                     help="write the span tree as Chrome-trace JSON "
                          "(implies --trace)")
    ana.add_argument("--metrics-out",
                     help="write the merged metrics registry in "
                          "Prometheus text format (implies --profile)")
    ana.add_argument("--explain", metavar="JSONL",
                     help="write the decision-event stream "
                          "(repro.obs.events/v1 JSONL) for "
                          "'repro explain'")
    ana.set_defaults(handler=_cmd_analyze)

    exp = sub.add_parser(
        "explain",
        help="narrate why one instance pin got its access (obs events)",
    )
    _add_io_args(exp)
    exp.add_argument("target", metavar="INST/PIN",
                     help="instance and pin, e.g. u42/A")
    exp.add_argument("--events",
                     help="replay a saved repro.obs.events/v1 JSONL "
                          "stream instead of re-running the analysis")
    exp.set_defaults(handler=_cmd_explain)

    rte = sub.add_parser("route", help="route and score pin-access DRCs")
    _add_io_args(rte)
    rte.add_argument("--access", choices=("pao", "legacy"), default="pao")
    rte.add_argument("--scope", choices=("pin-access", "full"),
                     default="pin-access")
    rte.add_argument("--svg", help="write the routed view to this SVG path")
    rte.add_argument("--cache-dir",
                     help="persistent AP/pattern cache root (same cache "
                          "the other commands honor)")
    rte.add_argument("--apcheck-mode",
                     choices=("array", "engine", "verify"),
                     default="array",
                     help="Step 1/3 candidate backend")
    rte.add_argument("--paircheck-mode",
                     choices=("kernel", "engine", "verify"),
                     default="kernel",
                     help="via-pair backend")
    rte.set_defaults(handler=_cmd_route)

    ren = sub.add_parser("render", help="render the pin access view")
    _add_io_args(ren)
    ren.add_argument("--svg", required=True, help="output SVG path")
    ren.add_argument("--width", type=_positive_int, default=1000,
                     help="SVG width in pixels (>= 1)")
    ren.set_defaults(handler=_cmd_render)

    ste = sub.add_parser(
        "suite", help="reproduce the paper's Tables I-III on the suite"
    )
    ste.add_argument("--scale", type=_scale, default=0.004)
    ste.add_argument(
        "--testcases",
        nargs="*",
        default=None,
        help="subset of testcase names (default: all ten)",
    )
    ste.set_defaults(handler=_cmd_suite)

    srv = sub.add_parser(
        "serve",
        help="host a design as a long-lived pin access daemon",
    )
    _add_io_args(srv)
    srv.add_argument("--design", help="session name (default: design name)")
    _add_endpoint_args(srv)
    srv.add_argument("--cache-dir",
                     help="persistent AP cache: restart = cache load, "
                          "not re-analysis")
    srv.add_argument("--max-clients", type=_positive_int, default=32,
                     help="concurrent connection cap, >= 1 (excess get "
                          "an 'overloaded' error)")
    srv.add_argument("--request-timeout", type=_request_timeout_s,
                     default=30.0,
                     help="per-connection idle/read timeout in seconds "
                          "(> 0)")
    srv.add_argument("--drain-seconds", type=_drain_s, default=5.0,
                     help="grace period for in-flight requests on "
                          "shutdown (>= 0)")
    srv.add_argument("--no-load", action="store_true",
                     help="refuse client load_design requests")
    srv.add_argument("--apcheck-mode",
                     choices=("array", "engine", "verify"),
                     default="array",
                     help="Step 1/3 candidate backend for the hosted "
                          "analyses")
    srv.add_argument("--telemetry", action="store_true",
                     help="wire trace propagation: answer requests "
                          "that carry a trace context with the "
                          "server's spans")
    srv.set_defaults(handler=_cmd_serve)

    qry = sub.add_parser(
        "query",
        help="query a running pin access daemon",
    )
    qry.add_argument("targets", nargs="*", metavar="INST/PIN",
                     help="instance pins to query, e.g. u42/A")
    _add_endpoint_args(qry)
    qry.add_argument("--design", help="session name (optional when the "
                                      "daemon hosts exactly one)")
    qry.add_argument("--move", nargs=3, metavar=("INST", "X", "Y"),
                     help="move an instance before querying")
    qry.add_argument("--stats", action="store_true",
                     help="print server + session statistics")
    qry.add_argument("--health", action="store_true",
                     help="print the liveness probe")
    qry.add_argument("--metrics", action="store_true",
                     help="print the Prometheus metrics exposition")
    qry.add_argument("--shutdown", action="store_true",
                     help="ask the daemon to drain and exit")
    qry.add_argument("--timing", action="store_true",
                     help="trace each single-pin query and print the "
                          "dial/serialize/wait/parse/server breakdown")
    qry.add_argument("--json", dest="as_json", action="store_true",
                     help="print raw wire payloads as JSON")
    qry.add_argument("--timeout", type=float, default=30.0,
                     help="request timeout in seconds")
    qry.set_defaults(handler=_cmd_query)

    qa = sub.add_parser(
        "qa",
        help="golden-result regression gates (snapshot/check/accept/diff)",
    )
    qa.set_defaults(handler=_cmd_qa_help, qa_parser=qa)
    qa_sub = qa.add_subparsers(dest="qa_command")

    snap = qa_sub.add_parser(
        "snapshot", help="run one generated case and record it as a golden"
    )
    snap.add_argument("testcase", help="e.g. ispd18_test1")
    snap.add_argument("--scale", type=_scale, default=0.004)
    _add_qa_run_args(snap)
    snap.set_defaults(handler=_cmd_qa_snapshot)

    chk = qa_sub.add_parser(
        "check", help="re-run every golden case and gate the results"
    )
    _add_qa_check_args(chk)
    chk.set_defaults(handler=_cmd_qa_check, qa_accept=False)

    acc = qa_sub.add_parser(
        "accept", help="re-run and overwrite drifting golden records"
    )
    _add_qa_check_args(acc)
    acc.set_defaults(handler=_cmd_qa_check, qa_accept=True)

    dif = qa_sub.add_parser(
        "diff", help="print the full human-readable drift vs the goldens"
    )
    _add_qa_run_args(dif)
    dif.add_argument("--cases", nargs="*", default=None,
                     help="subset of golden case ids (default: all)")
    dif.set_defaults(handler=_cmd_qa_diff)

    cmp = sub.add_parser(
        "compare",
        help="router-in-the-loop access-flow comparator (Experiment 3)",
    )
    cmp.set_defaults(handler=_cmd_compare_help, compare_parser=cmp)
    cmp_sub = cmp.add_subparsers(dest="compare_command")

    crun = cmp_sub.add_parser(
        "run",
        help="route a case matrix through the access flows into a "
             "resumable run directory",
    )
    crun.add_argument("cases", nargs="*", metavar="CASE[@SCALE]",
                      help="cases like ispd18_test1@0.004 or "
                           "pinzoo_hostile (scale defaults to 1)")
    crun.add_argument("--matrix", choices=("golden", "smoke"),
                      help="prepend a committed case matrix (the "
                           "golden corpus or the CI smoke subset)")
    crun.add_argument("--flows", nargs="+",
                      choices=("pao", "serve", "legacy"),
                      default=["pao", "serve", "legacy"],
                      help="access flows to run (default: all three)")
    crun.add_argument("--dir", dest="run_dir",
                      help="run directory (default: compare-runs/<matrix "
                           "or 'run'>)")
    crun.add_argument("-j", "--jobs", type=_job_count, default=1,
                      help="concurrent (case, flow) worker processes "
                           "(0 = all cores)")
    crun.add_argument("--timeout", type=_timeout_s, default=1800.0,
                      help="per-flow timeout in seconds (default 1800)")
    crun.add_argument("--cache-dir",
                      help="persistent AP/pattern cache root (default: "
                           "<run dir>/apcache, shared across flows)")
    crun.add_argument("--force", action="store_true",
                      help="re-execute cached (case, flow) results")
    crun.set_defaults(handler=_cmd_compare_run)

    crep = cmp_sub.add_parser(
        "report",
        help="gate a comparator run against goldens and invariants",
    )
    crep.add_argument("run_dir", help="comparator run directory")
    crep.add_argument("--goldens", default="goldens/compare",
                      help="compare golden corpus directory "
                           "(default: goldens/compare)")
    crep.add_argument("--no-goldens", action="store_true",
                      help="skip the golden comparison")
    crep.add_argument("--accept", action="store_true",
                      help="write the run's numbers as goldens instead "
                           "of gating")
    crep.add_argument("--md", dest="md_path",
                      help="write the markdown report here")
    crep.add_argument("--json", dest="json_path",
                      help="write the report JSON here")
    crep.add_argument("--fail-on-regress", action="store_true",
                      help="exit non-zero on any gate failure")
    crep.set_defaults(handler=_cmd_compare_report)

    return parser


def _add_qa_run_args(sub_parser) -> None:
    sub_parser.add_argument("--goldens", default="goldens",
                            help="golden corpus directory (default: goldens)")
    sub_parser.add_argument("--paircheck-mode",
                            choices=("kernel", "engine", "verify"),
                            default="kernel",
                            help="via-pair backend; any choice must "
                                 "reproduce the same fingerprint")
    sub_parser.add_argument("--apcheck-mode",
                            choices=("array", "engine", "verify"),
                            default="array",
                            help="Step 1/3 candidate backend; any choice "
                                 "must reproduce the same fingerprint")


def _add_qa_check_args(sub_parser) -> None:
    _add_qa_run_args(sub_parser)
    sub_parser.add_argument("--cases", nargs="*", default=None,
                            help="subset of golden case ids (default: all)")
    sub_parser.add_argument("--json", dest="json_path",
                            help="write the check report JSON here "
                                 "(the CI artifact)")
    sub_parser.add_argument("--max-diff-lines", type=int, default=20,
                            help="cap per-case diff lines in check output")


def _job_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            "jobs must be >= 0 (0 means all cores)"
        )
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be an int >= 1")
    return value


def _scale(text: str) -> float:
    try:
        return check_scale(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _timeout_s(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError("timeout must be > 0 seconds")
    return value


def _request_timeout_s(text: str) -> float:
    # Every connection handler sets this as its socket timeout, which
    # raises OverflowError past threading.TIMEOUT_MAX (inf included).
    value = _timeout_s(text)
    if value > threading.TIMEOUT_MAX:
        raise argparse.ArgumentTypeError(
            f"timeout must be <= {threading.TIMEOUT_MAX:g} seconds"
        )
    return value


def _drain_s(text: str) -> float:
    # The drain joins the handler threads with this timeout, which
    # raises OverflowError past threading.TIMEOUT_MAX (inf included).
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0 <= value <= threading.TIMEOUT_MAX:
        raise argparse.ArgumentTypeError(
            f"drain must be >= 0 and <= {threading.TIMEOUT_MAX:g} seconds"
        )
    return value


def _check_names(names, known) -> None:
    """Refuse a testcase name the builder cannot build, before any work."""
    for name in names:
        if name not in known:
            raise CliError(
                f"unknown testcase {name!r} (known: {', '.join(known)})"
            )


def _add_io_args(sub_parser) -> None:
    sub_parser.add_argument("--lef", required=True, help="input LEF path")
    sub_parser.add_argument("--def", dest="def_path", required=True,
                            help="input DEF path")


def _add_endpoint_args(sub_parser) -> None:
    sub_parser.add_argument("--socket", dest="socket_path",
                            help="Unix domain socket path")
    sub_parser.add_argument("--host", default="127.0.0.1",
                            help="TCP bind/connect host (with --port)")
    sub_parser.add_argument("--port", type=int,
                            help="TCP port (mutually exclusive with "
                                 "--socket)")


def _endpoint(args) -> tuple:
    """Resolve --socket / --host+--port into a serve address tuple."""
    if args.socket_path and args.port is not None:
        raise CliError("--socket and --port are mutually exclusive")
    if args.socket_path:
        return ("unix", args.socket_path)
    if args.port is not None:
        return ("tcp", args.host, args.port)
    raise CliError("an endpoint is required: --socket PATH or --port N")


def _load(args):
    lef_text = _read_input(args.lef, "--lef")
    def_text = _read_input(args.def_path, "--def")
    try:
        tech, masters = parse_lef(lef_text)
    except LefParseError as exc:
        raise CliError(f"{args.lef}: {exc}") from exc
    try:
        return parse_def(def_text, tech, masters)
    except DefParseError as exc:
        raise CliError(f"{args.def_path}: {exc}") from exc


def _read_input(path: str, flag: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        # A missing or unreadable input is a usage error, not a bug:
        # fail with the reason, not a traceback.
        raise CliError(f"cannot read {flag} {path!r}: {exc}") from exc


# -- commands -----------------------------------------------------------------


def _cmd_generate(args) -> int:
    _check_names([args.testcase], TESTCASE_NAMES)
    design = build_testcase(args.testcase, scale=args.scale)
    with open(args.lef, "w") as handle:
        handle.write(write_lef(design.tech, list(design.masters.values())))
    with open(args.def_path, "w") as handle:
        handle.write(write_def(design))
    stats = design.stats()
    print(
        f"wrote {args.lef} and {args.def_path}: "
        f"{stats['num_std_cells']} std cells, {stats['num_macros']} macros, "
        f"{stats['num_nets']} nets ({stats['node']})"
    )
    return 0


def _cmd_analyze(args) -> int:
    design = _load(args)
    if args.baseline:
        flow = LegacyPinAccess(design)
        result = flow.run()
        access_map = flow.access_map(result)
        label = "legacy (TrRte-style)"
    else:
        config = PaafConfig(
            cache_dir=args.cache_dir,
            profile=args.profile,
            paircheck_mode=args.paircheck_mode,
            apcheck_mode=args.apcheck_mode,
            trace=args.trace,
            trace_out=args.trace_out,
            metrics_out=args.metrics_out,
            explain=args.explain or False,
        )
        if args.no_bca:
            config = config.without_bca()
        try:
            framework = PinAccessFramework(design, config)
        except OSError as exc:
            print(
                f"error: cannot use cache dir {args.cache_dir!r}: {exc}",
                file=sys.stderr,
            )
            return 2
        result = framework.run(use_cache=not args.no_cache)
        access_map = result.access_map()
        label = "PAAF" + (" w/o BCA" if args.no_bca else " w/ BCA")
    failed = evaluate_failed_pins(design, access_map)
    rows = [
        ["flow", label],
        ["unique instances", len(unique_instances(design))],
        ["access points", result.total_access_points],
        ["dirty access points", result.count_dirty_aps()],
        ["connected pins", len(design.connected_pins())],
        ["failed pins", len(failed)],
        ["runtime (s)", f"{result.timings['total']:.2f}"],
    ]
    if design.io_pins and not args.baseline:
        from repro.core import IoPinAccess

        io_access = IoPinAccess(design).run()
        io_failed = sum(1 for aps in io_access.values() if not aps)
        rows.append(["IO pins", len(design.io_pins)])
        rows.append(["IO pins without access", io_failed])
    print(format_table(["metric", "value"], rows,
                       title=f"Pin access analysis: {design.name}"))
    if args.list_failed:
        for inst_name, pin_name in failed:
            print(f"FAILED {inst_name}/{pin_name}")
    if args.stats_json:
        _dump_stats(args.stats_json, design, label, result, len(failed))
    if not args.baseline:
        for path in (args.trace_out, args.metrics_out, args.explain):
            if path:
                print(f"wrote {path}")
    return 0 if not failed else 1


def _dump_stats(path, design, label, result, num_failed) -> None:
    """Write the run's timings/stats payload as JSON (the bench feed)."""
    import json

    payload = {
        "design": design.name,
        "flow": label,
        "timings": dict(getattr(result, "timings", {})),
        "stats": getattr(result, "stats", {}),
        "metrics": {
            "access_points": result.total_access_points,
            "failed_pins": num_failed,
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {path}")


def _cmd_explain(args) -> int:
    """Narrate one pin's access decisions from the obs event stream."""
    from repro.obs.events import read_jsonl
    from repro.obs.explain import explain_pin

    if "/" not in args.target:
        raise CliError(
            f"target must be INSTANCE/PIN, got {args.target!r}"
        )
    inst_name, pin_name = args.target.split("/", 1)
    design = _load(args)
    if args.events:
        try:
            events = read_jsonl(args.events)
        except (OSError, ValueError) as exc:
            raise CliError(
                f"cannot read --events {args.events!r}: {exc}"
            ) from exc
    else:
        # A fresh uncached run: cached Steps 1-2 would skip candidate
        # generation and leave the Step 1 story empty.
        config = PaafConfig(explain=True)
        result = PinAccessFramework(design, config).run()
        events = result.events.events
    try:
        print(explain_pin(design, events, inst_name, pin_name))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return 0


def _cmd_route(args) -> int:
    design = _load(args)
    if args.access == "pao":
        config = PaafConfig(
            cache_dir=args.cache_dir,
            apcheck_mode=args.apcheck_mode,
            paircheck_mode=args.paircheck_mode,
        )
        try:
            access_map = PinAccessFramework(design, config).run().access_map()
        except OSError as exc:
            raise CliError(
                f"cannot use cache dir {args.cache_dir!r}: {exc}"
            ) from exc
    else:
        access_map = drcu_access_map(design)
    result = DetailedRouter(design).route(access_map)
    drcs = count_route_drcs(design, result, scope=args.scope)
    print(
        f"{design.name}: routed {result.routed_nets} nets "
        f"({len(result.failed_nets)} failed, "
        f"{result.unconnected_terms} unconnected terminals); "
        f"{len(drcs)} {args.scope} DRCs"
    )
    if args.svg:
        with open(args.svg, "w") as handle:
            handle.write(render_routing(design, result, drcs))
        print(f"wrote {args.svg}")
    return 0


def _cmd_serve(args) -> int:
    """Analyze a design and host it as a pin access daemon."""
    from repro.serve import OracleServer

    design = _load(args)
    config = PaafConfig(
        cache_dir=args.cache_dir,
        apcheck_mode=args.apcheck_mode,
    )
    name = args.design or design.name
    try:
        oracle = PinAccessOracle(design, config)
    except OSError as exc:
        raise CliError(
            f"cannot use cache dir {args.cache_dir!r}: {exc}"
        ) from exc
    warmth = (
        f", apcache entries={oracle.stats()['cache_entries']}"
        if args.cache_dir
        else ""
    )
    server = OracleServer(
        _endpoint(args),
        max_clients=args.max_clients,
        request_timeout=args.request_timeout,
        drain_seconds=args.drain_seconds,
        allow_load=not args.no_load,
        trace=args.telemetry,
    )
    server.add_session(name, oracle)
    try:
        server.start()
    except OSError as exc:
        raise CliError(f"cannot bind {_endpoint(args)!r}: {exc}") from exc
    server.install_signal_handlers()
    suffix = " [telemetry on]" if args.telemetry else ""
    print(
        f"serving {name!r} on {_format_endpoint(server)} "
        f"(analyze {oracle.analyze_seconds:.2f}s{warmth}){suffix}; "
        "SIGTERM or 'repro query --shutdown' drains",
        flush=True,
    )
    server.serve_forever()
    print("drained, exiting")
    return 0


def _format_endpoint(server) -> str:
    bound = server.bound_address
    if bound[0] == "unix":
        return f"unix:{bound[1]}"
    return f"{bound[1]}:{bound[2]}"


def _cmd_query(args) -> int:
    """Talk to a running pin access daemon."""
    import json

    from repro.serve import ConnectionFailed, OracleClient, ServerError

    actions = any(
        (args.targets, args.move, args.stats, args.health,
         args.metrics, args.shutdown)
    )
    if not actions:
        raise CliError(
            "nothing to do: give INST/PIN targets or one of --move/"
            "--stats/--health/--metrics/--shutdown"
        )
    targets = []
    for target in args.targets:
        if "/" not in target:
            raise CliError(
                f"target must be INSTANCE/PIN, got {target!r}"
            )
        targets.append(tuple(target.split("/", 1)))
    try:
        with OracleClient(
            _endpoint(args), timeout=args.timeout, trace=args.timing
        ) as client:
            return _run_query_actions(args, client, targets, json)
    except ConnectionFailed as exc:
        raise CliError(str(exc)) from exc
    except (ServerError, KeyError) as exc:
        raise CliError(str(exc)) from exc
    except ConnectionError as exc:
        raise CliError(f"connection lost: {exc}") from exc


def _run_query_actions(args, client, targets, json) -> int:
    inaccessible = 0
    if args.health:
        payload = client.health()
        if args.as_json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(
                f"status={payload['status']} "
                f"protocol={payload['protocol']} "
                f"sessions={','.join(payload['sessions']) or '-'} "
                f"uptime={payload['uptime_seconds']}s"
            )
    if args.move:
        inst, x_text, y_text = args.move
        try:
            x, y = int(x_text), int(y_text)
        except ValueError:
            raise CliError(
                f"--move coordinates must be integers, got "
                f"{x_text!r} {y_text!r}"
            ) from None
        payload = client.move_instance(inst, x, y, design=args.design)
        if args.as_json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(
                f"moved {inst} -> ({x}, {y}); generation "
                f"{payload['generation']} in "
                f"{payload['update_seconds']}s"
            )
    if targets and args.timing:
        # One traced single-pin request per target so each gets its
        # own client-side phase breakdown.
        answers = []
        timings = []
        for inst, pin in targets:
            answer = client.query(inst, pin, design=args.design)
            answers.append(answer)
            timings.append(dict(client.last_timing))
        if args.as_json:
            payload = [
                {"answer": answer, "timing": timing}
                for answer, timing in zip(answers, timings)
            ]
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for answer, timing in zip(answers, timings):
                print(_format_answer(answer))
                print(_format_timing(timing))
        inaccessible = sum(
            1 for a in answers if not a["accessible"]
        )
    elif targets:
        answers = client.query_batch(targets, design=args.design)
        if args.as_json:
            print(json.dumps(answers, indent=2, sort_keys=True))
        else:
            for answer in answers:
                print(_format_answer(answer))
        inaccessible = sum(
            1 for a in answers if not a["accessible"]
        )
    if args.stats:
        payload = client.stats()
        print(json.dumps(payload, indent=2, sort_keys=True))
    if args.metrics:
        print(client.metrics(), end="")
    if args.shutdown:
        client.shutdown()
        print("daemon draining")
    return 1 if inaccessible else 0


def _format_timing(timing: dict) -> str:
    """One-line human rendering of a traced request's phase split."""
    parts = []
    for key in ("dial_ms", "serialize_ms", "wait_ms", "server_ms",
                "parse_ms", "total_ms"):
        value = timing.get(key)
        label = key[:-3]
        parts.append(
            f"{label}={value:.3f}ms" if value is not None
            else f"{label}=-"
        )
    return f"  timing [{timing['trace']}]: " + " ".join(parts)


def _format_answer(answer: dict) -> str:
    name = f"{answer['instance']}/{answer['pin']}"
    selected = answer["selected"]
    alts = len(answer["alternatives"])
    if selected is None:
        return f"{name}: no access ({alts} alternatives)"
    via = selected["vias"][0] if selected["vias"] else "planar"
    return (
        f"{name}: ({selected['x']}, {selected['y']}) "
        f"{selected['layer']} via={via} "
        f"[{alts} alternatives, gen {answer['generation']}]"
    )


def _cmd_suite(args) -> int:
    import time

    from repro.report import (
        render_table1,
        render_table2,
        render_table3,
        table2_row,
        table3_row,
    )

    names = args.testcases or TESTCASE_NAMES
    _check_names(names, TESTCASE_NAMES)
    designs = [build_testcase(name, scale=args.scale) for name in names]
    print(render_table1(designs))
    print()

    rows2 = []
    rows3 = []
    for design in designs:
        t0 = time.perf_counter()
        baseline = LegacyPinAccess(design)
        baseline_result = baseline.run()
        baseline_failed = evaluate_failed_pins(
            design, baseline.access_map(baseline_result)
        )
        baseline_time = time.perf_counter() - t0

        paaf_step1 = PinAccessFramework(design).run_step1()
        rows2.append(
            table2_row(
                design.name,
                len(unique_instances(design)),
                baseline_result.total_access_points,
                paaf_step1.total_access_points,
                baseline_result.count_dirty_aps(),
                paaf_step1.count_dirty_aps(),
                baseline_time,
                paaf_step1.timings["step1"],
            )
        )

        t0 = time.perf_counter()
        nobca = PinAccessFramework(
            design, PaafConfig().without_bca()
        ).run()
        nobca_failed = evaluate_failed_pins(design, nobca.access_map())
        nobca_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        bca = PinAccessFramework(design).run()
        bca_failed = evaluate_failed_pins(design, bca.access_map())
        bca_time = time.perf_counter() - t0
        rows3.append(
            table3_row(
                design.name,
                len(design.connected_pins()),
                len(baseline_failed),
                len(nobca_failed),
                len(bca_failed),
                baseline_time,
                nobca_time,
                bca_time,
            )
        )
    print(render_table2(rows2))
    print()
    print(render_table3(rows3))
    return 0


def _cmd_qa_help(args) -> int:
    args.qa_parser.print_help()
    return 2


def _cmd_qa_snapshot(args) -> int:
    from repro.qa import golden

    _check_names([args.testcase], CASE_NAMES)
    record = golden.snapshot_case(
        args.testcase,
        args.scale,
        paircheck_mode=args.paircheck_mode,
        apcheck_mode=args.apcheck_mode,
    )
    path = golden.golden_path(args.goldens, args.testcase, args.scale)
    golden.write_golden(path, record)
    from repro.report import render_qa_metrics

    print(render_qa_metrics(record["metrics"]))
    digest = record["fingerprint"]["digest"]
    print(f"wrote {path} (digest {digest[:16]}...)")
    return 0


def _cmd_qa_check(args) -> int:
    import json

    from repro.qa import golden

    try:
        code, report = golden.check_goldens(
            args.goldens,
            cases=args.cases,
            paircheck_mode=args.paircheck_mode,
            apcheck_mode=args.apcheck_mode,
            accept=args.qa_accept,
            max_diff_lines=args.max_diff_lines,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    from repro.report import render_qa_check

    print(render_qa_check(report))
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_path}")
    return code


def _cmd_qa_diff(args) -> int:
    from repro.qa import golden
    from repro.qa.fingerprint import canonical_result

    try:
        paths = golden.list_goldens(args.goldens, args.cases)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if not paths:
        print(f"no golden records under {args.goldens}")
        return 1
    drifted = False
    for path in paths:
        record = golden.load_golden(path)
        case = record["case"]
        result, _ = golden.run_case(
            case["testcase"],
            case["scale"],
            paircheck_mode=args.paircheck_mode,
            apcheck_mode=args.apcheck_mode,
        )
        lines = golden.diff_canonical(
            record["canonical"], canonical_result(result)
        )
        cid = golden.case_id(case["testcase"], case["scale"])
        if lines:
            drifted = True
            print(f"{cid}: {len(lines)} difference(s)")
            for line in lines:
                print(f"  {line}")
        else:
            print(f"{cid}: identical")
    return 1 if drifted else 0


def _cmd_compare_help(args) -> int:
    args.compare_parser.print_help()
    return 2


def _cmd_compare_run(args) -> int:
    import os

    from repro.compare import (
        GOLDEN_MATRIX,
        SMOKE_MATRIX,
        parse_case,
        run_compare,
    )
    from repro.perf.parallel import effective_jobs

    cases = []
    if args.matrix == "golden":
        cases.extend(GOLDEN_MATRIX)
    elif args.matrix == "smoke":
        cases.extend(SMOKE_MATRIX)
    for text in args.cases:
        try:
            cases.append(parse_case(text))
        except ValueError as exc:
            raise CliError(f"bad case {text!r}: {exc}") from exc
    # Dedupe while preserving order (a matrix plus explicit repeats).
    seen, unique = set(), []
    for case in cases:
        if case.case_id not in seen:
            seen.add(case.case_id)
            unique.append(case)
    if not unique:
        raise CliError("no cases: pass CASE[@SCALE] args or --matrix")
    run_dir = args.run_dir or os.path.join(
        "compare-runs", args.matrix or "run"
    )
    summary = run_compare(
        unique,
        args.flows,
        run_dir,
        jobs=effective_jobs(args.jobs),
        flow_timeout_s=args.timeout,
        cache_dir=args.cache_dir,
        force=args.force,
    )
    counts = summary["counts"]
    print(
        f"compare: {counts.get('done', 0)} done, "
        f"{counts.get('cached', 0)} cached, "
        f"{counts.get('failed', 0)} failed, "
        f"{counts.get('timeout', 0)} timeout -> {run_dir}"
    )
    bad = counts.get("failed", 0) + counts.get("timeout", 0)
    return 0 if bad == 0 else 1


def _cmd_compare_report(args) -> int:
    import json

    from repro.compare import build_report, render_markdown, write_goldens

    goldens_dir = None if args.no_goldens else args.goldens
    report = build_report(args.run_dir, goldens_dir=goldens_dir)
    if not report["cases"]:
        raise CliError(f"no comparator cases under {args.run_dir!r}")
    if args.accept:
        if args.no_goldens:
            raise CliError("--accept conflicts with --no-goldens")
        written = write_goldens(report, args.goldens)
        for path in written:
            print(f"accepted {path}")
        incomplete = [
            case["case"] for case in report["cases"]
            if not case["complete"]
        ]
        if incomplete:
            print(f"skipped incomplete: {', '.join(incomplete)}")
            return 1
        return 0
    markdown = render_markdown(report)
    print(markdown, end="")
    if args.md_path:
        with open(args.md_path, "w") as handle:
            handle.write(markdown)
        print(f"wrote {args.md_path}")
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_path}")
    if report["failures"]:
        print(f"failures: {len(report['failures'])}")
        if args.fail_on_regress:
            return 1
    return 0


def _cmd_render(args) -> int:
    design = _load(args)
    access_map = PinAccessFramework(design).run().access_map()
    with open(args.svg, "w") as handle:
        handle.write(
            render_pin_access(design, access_map, pixel_width=args.width)
        )
    print(f"wrote {args.svg}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
