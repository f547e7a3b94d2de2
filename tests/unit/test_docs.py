"""Docs stay true: fenced examples run, intra-repo links resolve.

Three layers of enforcement, run by the CI ``docs`` job:

* every fenced ```` ```python ```` block in the Markdown docs must at
  least compile; blocks written as doctest sessions (``>>>``) are
  executed and their outputs checked;
* every docstring doctest in the storage modules runs (the WAL and
  transaction docstrings carry executable examples), and so do those of
  the name and core modules the index build goes through;
* every relative Markdown link in the docs points at a file that exists.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: Markdown files under the docs contract (repo-relative).
DOC_FILES = sorted(
    [Path("README.md"), *(p.relative_to(REPO) for p in (REPO / "docs").glob("*.md"))]
)

_FENCE_RE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _python_blocks(markdown_path: Path) -> list[tuple[int, str]]:
    """``(line_number, code)`` for each ```python fence in the file."""
    text = (REPO / markdown_path).read_text(encoding="utf-8")
    blocks = []
    for match in _FENCE_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 2  # first code line
        blocks.append((line, match.group(1)))
    return blocks


# Each case is named by its file and the fence's ordinal in that file, so
# editing prose above a fence does not rename the test; the line number
# still locates a failure.
_ALL_BLOCKS = [
    pytest.param(path, line, code, id=f"{path}#{ordinal}")
    for path in DOC_FILES
    for ordinal, (line, code) in enumerate(_python_blocks(path), start=1)
]


@pytest.mark.parametrize("path,line,code", _ALL_BLOCKS)
def test_python_fence_is_valid(path: Path, line: int, code: str):
    if ">>>" in code:
        # A doctest session: execute it and check the shown outputs.
        results = doctest.testmod(
            _as_module(path, line, code), verbose=False, report=True
        )
        assert results.failed == 0, f"doctest failure in {path}:{line}"
    else:
        # Plain example: must compile (running it may need live state).
        compile(code, f"{path}:{line}", "exec")


def _as_module(path: Path, line: int, code: str):
    import types

    module = types.ModuleType(f"docblock_{path.stem}_{line}")
    module.__doc__ = code
    return module


DOCTEST_MODULES = [
    "repro.storage.wal",
    "repro.storage.store",
    "repro.storage.transactions",
    "repro.storage.faultfs",
    "repro.storage.fsck",
    "repro.storage.pages",
    "repro.storage.bufferpool",
    "repro.storage.hashindex",
    "repro.storage.paged_btree",
    "repro.storage.paged_store",
    "repro.names.similarity",
    "repro.names.normalize",
    "repro.names.parser",
    "repro.core.collation",
    "repro.core.builder",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_docstring_examples(module_name: str, tmp_path, monkeypatch):
    import importlib

    monkeypatch.chdir(tmp_path)  # any doctest side effects land in tmp
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"doctest failure in {module_name}"


@pytest.mark.parametrize("path", DOC_FILES, ids=str)
def test_relative_links_resolve(path: Path):
    text = (REPO / path).read_text(encoding="utf-8")
    base = (REPO / path).parent
    broken = []
    for target in _LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (base / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert broken == [], f"broken links in {path}: {broken}"


def test_docs_index_lists_every_doc():
    index = (REPO / "docs" / "README.md").read_text(encoding="utf-8")
    for doc in (REPO / "docs").glob("*.md"):
        if doc.name == "README.md":
            continue
        assert f"({doc.name})" in index, f"docs/README.md does not list {doc.name}"
