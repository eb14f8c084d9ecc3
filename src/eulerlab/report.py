"""One result type for every calculator and CLI subcommand.

A `Report` is a list of rows `(key, label, value)` plus a failure line that
the calculator sets.  The rows render both ways:

- the document (`to_doc()`, printed by `--machine`) maps key to value;
- the text (`to_text()`) prints `label: value`, booleans as yes/no;
- a row with key None is text only, one with label None is document only,
  and one with both None is a text line printed as it stands;
- a Report value (or None in its place) nests: its document goes under the
  key, its text goes where the row stands, and its failure becomes this
  report's failure unless this report has one of its own.

`failure` is None on success and otherwise the stderr line of exit code 1.
"""

from __future__ import annotations

PASS = "pass"
FAIL = "fail"
ASSUMED = "assumed"


def checklist(items):
    """The `hypothesis failure: a; b` line naming the failed items, else None.

    Each item is a tuple (description, status, ...)."""
    failed = [item[0] for item in items if item[1] == FAIL]
    return "hypothesis failure: " + "; ".join(failed) if failed else None


class Report:
    """Result rows declared once, as (key, label, value); see the module docstring."""

    def __init__(self, rows, failure=None):
        self.rows = rows
        self.failure = failure or next(
            (value.failure for _, _, value in rows if isinstance(value, Report) and value.failure), None
        )

    @property
    def applicable(self):
        return self.failure is None

    def __getitem__(self, key):
        return self.to_doc()[key]

    def to_doc(self):
        return {
            key: value.to_doc() if isinstance(value, Report) else value
            for key, _, value in self.rows
            if key is not None
        }

    def to_text(self):
        lines = []
        for key, label, value in self.rows:
            if isinstance(value, Report):
                lines.append(value.to_text())
            elif label is not None:
                lines.append(f"{label}: {_show(value)}")
            elif key is None:
                lines.append(value)
        return "\n".join(lines)


def _show(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    return value
