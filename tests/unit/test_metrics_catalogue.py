"""Catalogue drift guard: code metrics <-> docs/observability.md.

The metric catalogue is a public contract.  This test extracts every
metric name registered in ``src/repro/`` (counter/gauge/histogram/timed
call sites) and every series documented in the catalogue tables, and
asserts the two sets match exactly — a metric added in code without a
doc row fails, and so does a documented metric that no code emits.
Every row must also sit in a table under its header, or it renders as
plain text.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
DOC = REPO_ROOT / "docs" / "observability.md"

#: Metric-like names that appear in docstring examples, not real series.
DOCSTRING_EXAMPLES = {"my.counter", "requests", "smoke.counter"}

#: counter("name"...) / gauge(...) / histogram(...) / timed(...) call
#: sites; DOTALL-style whitespace after the paren covers wrapped calls.
_CALL_RE = re.compile(
    r'\b(?:counter|gauge|histogram|timed)\(\s*"([a-z0-9_.]+)"'
)

#: A catalogue table row's series cell: `name` or `name{label=…}`.
_DOC_ROW_RE = re.compile(r"^\| `([a-z0-9_.]+)(?:\{[^}]*\})?` \|", re.M)


def emitted_metric_names() -> set[str]:
    names: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        names.update(_CALL_RE.findall(path.read_text(encoding="utf-8")))
    return names - DOCSTRING_EXAMPLES


def catalogue_section() -> str:
    text = DOC.read_text(encoding="utf-8")
    # Only the "## Metric catalogue" section — the span and log-event
    # tables further down use the same row format for non-metric names.
    start = text.index("## Metric catalogue")
    end = text.index("\n## ", start)
    return text[start:end]


def documented_metric_names() -> set[str]:
    return set(_DOC_ROW_RE.findall(catalogue_section()))


def headerless_rows(markdown: str) -> list[str]:
    """Rows of ``markdown`` whose run of ``|`` lines does not open with
    a header line and its ``|---`` separator (prose cut them off)."""
    orphans: list[str] = []
    block: list[str] = []
    for line in [*markdown.splitlines(), ""]:
        if line.startswith("|"):
            block.append(line)
            continue
        if not (len(block) >= 2 and block[1].startswith("|---")):
            orphans.extend(row for row in block if _DOC_ROW_RE.match(row))
        block = []
    return orphans


def test_inventories_are_nonempty():
    # Guard against a silently broken regex making the drift test vacuous.
    assert len(emitted_metric_names()) > 40
    assert len(documented_metric_names()) > 40


def test_every_emitted_metric_is_documented():
    undocumented = emitted_metric_names() - documented_metric_names()
    assert not undocumented, (
        "metrics emitted in src/repro/ but missing from the "
        f"docs/observability.md catalogue: {sorted(undocumented)}"
    )


def test_every_documented_metric_is_emitted():
    stale = documented_metric_names() - emitted_metric_names()
    assert not stale, (
        "metrics documented in docs/observability.md but never emitted "
        f"in src/repro/: {sorted(stale)}"
    )


def test_every_catalogue_row_sits_under_a_table_header():
    assert headerless_rows(catalogue_section()) == []


def test_a_row_cut_off_by_prose_is_found():
    table = "| Series | Type | Meaning |\n|---|---|---|\n| `a.b` | counter | x |\n"
    assert headerless_rows(table) == []
    cut = table + "Prose between the rows.\n| `c.d` | counter | y |\n"
    assert headerless_rows(cut) == ["| `c.d` | counter | y |"]
