"""Plain-text table rendering shared by the experiment harnesses."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.rabid import StageMetrics


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width table with a header separator, matching paper layout."""
    columns = len(headers)
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row has {len(row)} cells, expected {columns}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))

    lines: List[str] = [fmt(headers), "-" * (sum(widths) + 2 * (columns - 1))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_metrics_table(
    label: str, rows: Sequence[Tuple[str, str, StageMetrics]]
) -> str:
    """Tables II-IV: a circuit column, one ``label`` column, then the
    :class:`StageMetrics` columns after its stage."""
    return render_table(
        ["circuit", label, *StageMetrics.HEADERS[1:]],
        [[circuit, value, *m.as_row()[1:]] for circuit, value, m in rows],
    )
