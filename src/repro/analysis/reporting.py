"""Plain-text result tables for the benchmark harness.

The paper has no tables or figures of its own (it is pure theory), so
each experiment prints its series in this uniform format and
EXPERIMENTS.md records the expectation-vs-measurement verdicts.
"""

from __future__ import annotations

from typing import Any, List, Sequence


class Table:
    """Minimal aligned-column table with a title."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append([self._render(v) for v in values])

    @staticmethod
    def _render(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title]
        header = "  ".join(
            c.ljust(widths[i]) for i, c in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)

    def print(self) -> None:
        print("\n" + self.render())
