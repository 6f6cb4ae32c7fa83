"""Plain-text renderers for the paper's tables.

Each ``tableN_row`` helper turns measured results into the same columns
the paper reports; ``format_table`` aligns them.  The benchmark harness
prints these so a run's output reads like the paper's evaluation
section.
"""

from __future__ import annotations


def format_table(headers: list, rows: list, title: str = "") -> str:
    """Render an aligned plain-text table."""
    table = [list(map(str, headers))] + [
        [str(cell) for cell in row] for row in rows
    ]
    widths = [
        max(len(row[col]) for row in table) for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(table[0], widths)))
    lines.append(sep)
    for row in table[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# -- Table I: testcase information ------------------------------------------

TABLE1_HEADERS = [
    "Benchmark",
    "#Std cell",
    "#Macro",
    "#Net",
    "#IO pin",
    "#Layer",
    "Die size (mm^2)",
    "Node",
]


def table1_row(design) -> list:
    """Build one Table I row from a design's stats."""
    stats = design.stats()
    die_w, die_h = stats["die_mm"]
    return [
        stats["name"],
        stats["num_std_cells"],
        stats["num_macros"],
        stats["num_nets"],
        stats["num_io_pins"],
        stats["num_layers"],
        f"{die_w:.3f}x{die_h:.3f}",
        stats["node"],
    ]


def render_table1(designs: list) -> str:
    """Render Table I for a list of designs."""
    return format_table(
        TABLE1_HEADERS,
        [table1_row(d) for d in designs],
        title="Table I: testcase information (scaled reproduction)",
    )


# -- Table II: Experiment 1 ---------------------------------------------------

TABLE2_HEADERS = [
    "Benchmark",
    "#Unique Inst",
    "TrRte #APs",
    "PAAF #APs",
    "TrRte #Dirty",
    "PAAF #Dirty",
    "TrRte t(s)",
    "PAAF t(s)",
]


def table2_row(
    name,
    num_unique,
    baseline_aps,
    paaf_aps,
    baseline_dirty,
    paaf_dirty,
    baseline_time,
    paaf_time,
) -> list:
    """Build one Table II row (Experiment 1)."""
    return [
        name,
        num_unique,
        baseline_aps,
        paaf_aps,
        baseline_dirty,
        paaf_dirty,
        f"{baseline_time:.2f}",
        f"{paaf_time:.2f}",
    ]


def render_table2(rows: list) -> str:
    """Render Table II from prepared rows."""
    return format_table(
        TABLE2_HEADERS,
        rows,
        title=(
            "Table II / Experiment 1: unique-instance access point quality"
        ),
    )


# -- Table III: Experiment 2 --------------------------------------------------

TABLE3_HEADERS = [
    "Benchmark",
    "Total #Pins",
    "TrRte #Failed",
    "PAAF w/o BCA",
    "PAAF w/ BCA",
    "TrRte t(s)",
    "w/o BCA t(s)",
    "w/ BCA t(s)",
]


def table3_row(
    name,
    total_pins,
    baseline_failed,
    nobca_failed,
    bca_failed,
    baseline_time,
    nobca_time,
    bca_time,
) -> list:
    """Build one Table III row (Experiment 2)."""
    return [
        name,
        total_pins,
        baseline_failed,
        nobca_failed,
        bca_failed,
        f"{baseline_time:.2f}",
        f"{nobca_time:.2f}",
        f"{bca_time:.2f}",
    ]


def render_table3(rows: list) -> str:
    """Render Table III from prepared rows."""
    return format_table(
        TABLE3_HEADERS,
        rows,
        title=(
            "Table III / Experiment 2: instance pin access quality "
            "(intra- + inter-cell)"
        ),
    )


# -- repro.qa: quality metrics and golden-check reports ----------------------


def render_qa_metrics(metrics: dict) -> str:
    """Render one quality-metric record (``repro.qa.metrics`` schema)."""
    rows = [
        [name, metrics[name]]
        for name in sorted(metrics)
        if name not in ("schema", "design")
    ]
    title = (
        f"Quality metrics: {metrics.get('design', '?')} "
        f"({metrics.get('schema', 'unversioned')})"
    )
    return format_table(["metric", "value"], rows, title=title)


def render_qa_check(report: dict) -> str:
    """Render a ``qa check`` report as the per-case verdict table."""
    rows = []
    for entry in report.get("cases", []):
        rows.append(
            [
                entry.get("case", "?"),
                entry.get("status", "?"),
                ",".join(entry.get("drifted_steps", [])) or "-",
                len(entry.get("regressions", [])),
                entry.get("digest", "")[:12],
            ]
        )
    title = (
        f"qa check (paircheck_mode={report.get('paircheck_mode')}, "
        f"apcheck_mode={report.get('apcheck_mode')})"
    )
    return format_table(
        ["case", "status", "drifted steps", "regressions", "digest"],
        rows,
        title=title,
    )
