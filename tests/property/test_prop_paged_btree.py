"""Stateful property test: the paged B+ tree against a ``dict`` model.

Point reads descend through internal nodes cached on buffer-pool frames.
This machine makes those caches churn: keys of 500-1000 bytes and values
up to 1.5 KiB give pages a toy fanout (two to seven cells per node), so
a few dozen keys already mean a three-level tree, and a 2-4 frame pool
evicts on nearly every step.  A pages file is written once, so a change
to the model is a new file: the ``rebuild`` rule bulk-builds the changed
model into one and reopens it, and reopening starts from a cold pool.

Every read must match the model, and after every step every node
cached in the pool must agree with a fresh decode of its frame's bytes
(an internal node equal to it, a leaf directory a prefix of it), so a
cache entry that outlives its page's bytes fails at once.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.storage.paged_btree import PagedBTree
from tests.cached_nodes import assert_node_matches_page

KEY_SPACE = 80


def _key(i: int) -> str:
    return f"{i:03d}" + "k" * (500 + (i * 37) % 500)


keys = st.integers(min_value=0, max_value=KEY_SPACE - 1).map(_key)
values = st.one_of(
    st.binary(max_size=40),
    st.integers(min_value=0, max_value=1500).map(lambda n: b"v" * n),
)
pool_sizes = st.integers(min_value=2, max_value=4)


class PagedBTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="paged-btree-sm-"))
        self.builds = 0
        self.path = self.dir / "t.0.pages"
        self.model: dict[str, bytes] = {}
        self.tree: PagedBTree | None = None

    def _build(self, pool):
        """Bulk-build the model into a new file and open it read-only."""
        old = self.path if self.tree is not None else None
        if self.tree is not None:
            self.tree.close()
            self.tree = None
        self.builds += 1
        self.path = self.dir / f"t.{self.builds}.pages"
        PagedBTree.bulk_build(self.path, sorted(self.model.items())).close()
        self.tree = PagedBTree(self.path, pool_pages=pool)
        if old is not None:
            old.unlink()

    @initialize(initial=st.dictionaries(keys, values, max_size=60), pool=pool_sizes)
    def build(self, initial, pool):
        self.model = dict(initial)
        self._build(pool)

    @rule(
        puts=st.dictionaries(keys, values, max_size=12),
        run=st.tuples(
            st.integers(min_value=0, max_value=KEY_SPACE - 1),
            st.integers(min_value=0, max_value=20),
            values,
        ),
        drops=st.sets(keys, max_size=12),
        pool=pool_sizes,
    )
    def rebuild(self, puts, run, drops, pool):
        first, count, value = run
        for i in range(first, min(first + count, KEY_SPACE)):
            self.model[_key(i)] = value
        for key in drops:
            self.model.pop(key, None)
        self.model.update(puts)
        self._build(pool)

    @rule(key=keys)
    def get(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @rule(key=keys)
    def contains(self, key):
        assert (key in self.tree) == (key in self.model)

    @rule(lo=keys, hi=keys, inclusive=st.booleans())
    def range_items(self, lo, hi, inclusive):
        expected = [
            (k, v)
            for k, v in sorted(self.model.items())
            if lo <= k and (k <= hi if inclusive else k < hi)
        ]
        assert list(self.tree.range_items(lo, hi, inclusive=inclusive)) == expected

    @rule()
    def items(self):
        assert list(self.tree.items()) == sorted(self.model.items())

    @rule(pool=pool_sizes)
    def reopen(self, pool):
        self.tree.close()
        self.tree = PagedBTree(self.path, pool_pages=pool)

    @invariant()
    def cached_nodes_match_their_bytes(self):
        if self.tree is None:
            return
        for page_id, data, node in self.tree.pool.decoded():
            assert_node_matches_page(node, data, page_id)
        assert len(self.tree) == len(self.model)

    def teardown(self):
        try:
            if self.tree is not None:
                self.tree.verify()
        finally:
            if self.tree is not None:
                self.tree.close()
            shutil.rmtree(self.dir, ignore_errors=True)


TestPagedBTreeMachine = PagedBTreeMachine.TestCase
TestPagedBTreeMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
