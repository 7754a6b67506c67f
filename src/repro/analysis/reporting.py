"""Plain-text tables for experiment output.

The benchmarks print their results as aligned text tables (the paper has no
figures to re-plot, so tables are the native output format of every
experiment).  Only the standard library is used; the helpers accept the
unified result model (:class:`~repro.analysis.results.ResultSet`) or plain
row dictionaries.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_result_set",
    "format_ratio_table",
    "format_comparison",
]

#: Default columns for sweep-style tables (the CLI's ``repro sweep`` view).
SWEEP_COLUMNS: Sequence[str] = (
    "workload", "cache_size", "fetch_time", "disks", "layout", "algorithm",
    "stall_time", "elapsed_time", "num_fetches", "hit_rate",
)

#: Default columns for ratio tables (the CLI's ``repro ratios`` view):
#: measured values next to the certified optimum, the derived ratios and the
#: optimum's solve wall time.
RATIO_COLUMNS: Sequence[str] = (
    "workload", "cache_size", "fetch_time", "disks", "algorithm",
    "stall_time", "elapsed_time", "optimal_stall", "optimal_elapsed",
    "stall_ratio", "elapsed_ratio", "optimum_solve_seconds",
)


def format_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    float_precision: int = 3,
) -> str:
    """Render ``rows`` (dictionaries) as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{float_precision}f}"
        return str(value)

    rendered = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[idx]) for r in rendered)) for idx, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[idx]) for idx, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(cell.ljust(widths[idx]) for idx, cell in enumerate(r)))
    return "\n".join(lines)


def format_result_set(
    results,
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    float_precision: int = 3,
) -> str:
    """Render a :class:`~repro.analysis.results.ResultSet` as a table.

    ``columns`` selects flat-row columns (default: the sweep view in
    :data:`SWEEP_COLUMNS`).
    """
    selected = list(columns) if columns is not None else list(SWEEP_COLUMNS)
    return format_table(
        results.as_rows(selected), columns=selected, title=title,
        float_precision=float_precision,
    )


def format_ratio_table(results, *, title: Optional[str] = None) -> str:
    """Render an optimum-carrying :class:`ResultSet` as the ratio view.

    The per-record table (:data:`RATIO_COLUMNS`) is followed by a summary
    block with every algorithm's worst elapsed-time ratio over the set —
    the quantity the paper's theorems bound.
    """
    lines = [format_result_set(results, columns=RATIO_COLUMNS, title=title)]
    algorithms: List[str] = []
    for record in results:
        if record.algorithm_spec not in algorithms:
            algorithms.append(record.algorithm_spec)
    summary_rows = []
    for algorithm in algorithms:
        ratios = results.ratios_for(algorithm)
        if not ratios:
            continue
        summary_rows.append(
            {
                "algorithm": algorithm,
                "points": len(ratios),
                "max_elapsed_ratio": round(max(ratios.values()), 4),
                "mean_elapsed_ratio": round(sum(ratios.values()) / len(ratios), 4),
            }
        )
    if summary_rows:
        lines.append("")
        lines.append(format_table(summary_rows, title="worst/mean ratio per algorithm"))
    return "\n".join(lines)


def format_comparison(
    series: Mapping[str, Mapping[str, float]],
    *,
    x_label: str = "point",
    title: Optional[str] = None,
    float_precision: int = 3,
) -> str:
    """Render several named series over the same x-axis as one table.

    ``series`` maps a series name (e.g. an algorithm) to a mapping from grid
    point label to value.  Used by the sweep benchmarks to print ratio curves.
    """
    labels: List[str] = []
    for values in series.values():
        for label in values:
            if label not in labels:
                labels.append(label)
    rows = []
    for label in labels:
        row: Dict[str, object] = {x_label: label}
        for name, values in series.items():
            if label in values:
                row[name] = values[label]
        rows.append(row)
    return format_table(rows, title=title, float_precision=float_precision)
