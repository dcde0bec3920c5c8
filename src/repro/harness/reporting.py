"""Result containers and plain-text table rendering for the experiment harness.

Every experiment returns an :class:`ExperimentResult` whose rows mirror the
rows/series of the corresponding table or figure in the paper; ``to_text()``
renders them as aligned ASCII tables so that running an experiment (or the
benchmark suite) prints something directly comparable to the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["ExperimentResult", "format_table"]


def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]], columns: Optional[List[str]] = None) -> str:
    """Render a list of row dictionaries as an aligned plain-text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    cells = [[_format_value(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), max((len(row[i]) for row in cells), default=0))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))) for row in cells)
    return f"{header}\n{separator}\n{body}"


@dataclass
class ExperimentResult:
    """Outcome of one table/figure reproduction.

    Attributes
    ----------
    experiment:
        Identifier (e.g. ``"table2"``, ``"fig11"``).
    title:
        Human-readable description (what the paper's table/figure shows).
    rows:
        One dictionary per row/series point, directly printable as a table.
    paper_reference:
        Short statement of what the paper reports for this experiment,
        printed above the table for side-by-side comparison.
    notes:
        Free-form remarks (deviations, calibration caveats, scale used).
    """

    experiment: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    paper_reference: str = ""
    notes: List[str] = field(default_factory=list)
    columns: Optional[List[str]] = None

    def add_row(self, **values) -> None:
        """Append one row to the result table."""
        self.rows.append(values)

    def add_rows(self, rows) -> None:
        """Append each of ``rows``, holding only this result's columns."""
        self.rows.extend({column: row.get(column) for column in self.columns} for row in rows)

    def add_note(self, note: str) -> None:
        """Attach a free-form note."""
        self.notes.append(note)

    def to_text(self) -> str:
        """Render the whole result (title, table, notes) as plain text."""
        parts = [f"== {self.experiment}: {self.title} =="]
        if self.paper_reference:
            parts.append(f"paper: {self.paper_reference}")
        parts.append(format_table(self.rows, self.columns))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)
