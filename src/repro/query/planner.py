"""Query planner: choose an index access path and a residual filter.

Planning is rule-based, in decreasing preference:

1. **IndexLookup** — an equality/MATCH conjunct on an indexed field,
   choosing the most selective index by distinct-key cardinality (ties
   break toward hash for its O(1) probe).
2. **IndexMultiLookup** — an ``IN`` list on an indexed field, one probe per
   value (shortest list preferred).
3. **IndexRange from a prefix LIKE** — ``name LIKE "Mc%"`` on a B-tree
   field narrows to the ``["Mc", "Mc\\U0010ffff"]`` string range, with the
   pattern re-checked exactly in the residual.
4. **IndexRange** — range conjuncts on one B-tree-indexed field, merged
   into a single interval (``year >= 1980 AND year < 1990`` → one scan).
5. **FullScan** — everything else, including any query whose top level is
   not a conjunction (OR/NOT trees filter over a scan).

Whatever access path is chosen, all conjuncts that the path does not fully
answer stay in the residual filter, so plans are always *correct* and at
worst *unhelpful* — the property the planner/scan equivalence tests assert.

The planner is also the one place that decides when a plan's rows already
come in ``ORDER BY`` order (:func:`_index_orders`): an ascending
``ORDER BY`` on the scalar field an index range scans, with no
``GROUP BY``.  Such a plan (``Plan.index_ordered``) skips the sort and
stops its scan at ``LIMIT``.

Repeated queries skip the rule search entirely via :class:`PlanCache`, an
LRU keyed on the (hashable, normalized) query AST plus the store's
``index_epoch`` — the epoch bumps on index create/drop and bulk writes, so
a structural change silently retires every cached plan without an explicit
invalidation hook, and stale epochs simply age out of the LRU.

Observability: every :func:`plan_query` call bumps
``query.plans.considered`` and the labelled ``query.plan.chosen{access=…}``
counter for its winning access path, so the index-vs-scan mix of a
workload can be read straight off a metrics snapshot; cache lookups bump
``query.planner.cache.hit`` / ``query.planner.cache.miss``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs import logging as _planner_logging
from repro.obs import metrics as _planner_metrics

from repro.query.ast_nodes import (
    And,
    Comparison,
    Expr,
    Like,
    Membership,
    Operator,
    Or,
    Query,
    conjuncts,
)
from repro.query.fingerprint import fingerprint_of

#: Upper bound for prefix ranges over strings: above any realistic suffix.
_PREFIX_CEILING = "\U0010ffff"

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.store import RecordStore


@dataclass(frozen=True, slots=True)
class FullScan:
    """Scan every record."""

    op = "seq-scan"  #: operator name in profiles and metric labels

    def describe(self) -> str:
        return "FULL SCAN"


@dataclass(frozen=True, slots=True)
class IndexLookup:
    """Probe the secondary index on ``field`` for ``value``."""

    field: str
    value: Any
    kind: str  # "hash" | "btree"

    op = "index-lookup"

    def describe(self) -> str:
        return f"INDEX LOOKUP ({self.kind}) {self.field} = {self.value!r}"


@dataclass(frozen=True, slots=True)
class CompositeLookup:
    """Probe a composite index with equality on every component field."""

    fields: tuple[str, ...]
    values: tuple[Any, ...]

    op = "composite-lookup"

    def describe(self) -> str:
        parts = ", ".join(f"{f} = {v!r}" for f, v in zip(self.fields, self.values))
        return f"COMPOSITE LOOKUP ({'+'.join(self.fields)}) {parts}"


@dataclass(frozen=True, slots=True)
class CompositeRange:
    """Prefix equality plus a range on the next component of a composite."""

    fields: tuple[str, ...]
    prefix: tuple[Any, ...]
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    op = "composite-range"

    def describe(self) -> str:
        fixed = ", ".join(
            f"{f} = {v!r}" for f, v in zip(self.fields, self.prefix)
        )
        bounded = self.fields[len(self.prefix)]
        lo = "(-inf" if self.low is None else ("[" if self.include_low else "(") + repr(self.low)
        hi = "+inf)" if self.high is None else repr(self.high) + ("]" if self.include_high else ")")
        return (
            f"COMPOSITE RANGE ({'+'.join(self.fields)}) {fixed}; "
            f"{bounded} in {lo}, {hi}"
        )


@dataclass(frozen=True, slots=True)
class IndexMultiLookup:
    """Probe the index on ``field`` once per value (IN lists)."""

    field: str
    values: tuple[Any, ...]
    kind: str  # "hash" | "btree"

    op = "index-multi-lookup"

    def describe(self) -> str:
        return (
            f"INDEX MULTI-LOOKUP ({self.kind}) {self.field} IN "
            f"({', '.join(repr(v) for v in self.values)})"
        )


@dataclass(frozen=True, slots=True)
class IndexRange:
    """Range-scan the B-tree index on ``field``."""

    field: str
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    op = "index-range"

    def describe(self) -> str:
        lo = "(-inf" if self.low is None else ("[" if self.include_low else "(") + repr(self.low)
        hi = "+inf)" if self.high is None else repr(self.high) + ("]" if self.include_high else ")")
        return f"INDEX RANGE (btree) {self.field} in {lo}, {hi}"


AccessPath = (
    FullScan
    | IndexLookup
    | IndexMultiLookup
    | IndexRange
    | CompositeLookup
    | CompositeRange
)


@dataclass(frozen=True, slots=True)
class Plan:
    """An executable plan: access path + residual filter + output clauses."""

    access: AccessPath
    residual: Expr | None
    group_by: str | None = None
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None
    #: The access path yields rows in ``order_by`` order already (see
    #: :func:`_index_orders`): execution skips the sort and stops at LIMIT.
    index_ordered: bool = False

    @property
    def stops_at_limit(self) -> bool:
        """Whether LIMIT can stop the access path: there is a LIMIT, and
        no GROUP BY or sort needs every row first."""
        return (
            self.limit is not None
            and self.group_by is None
            and (self.order_by is None or self.index_ordered)
        )

    def explain(self) -> str:
        """Human-readable plan, one clause per line."""
        lines = [self.access.describe()]
        if self.residual is not None:
            lines.append(f"FILTER {self.residual}")
        if self.group_by:
            lines.append(f"GROUP BY {self.group_by} (COUNT)")
        if self.index_ordered:
            lines.append(f"ORDER BY {self.order_by} ASC (index order, no sort)")
        elif self.order_by:
            lines.append(f"ORDER BY {self.order_by} {'DESC' if self.descending else 'ASC'}")
        if self.limit is not None:
            lines.append(f"LIMIT {self.limit}")
        return "\n".join(lines)


_PLANS_CONSIDERED = _planner_metrics.counter("query.plans.considered")
#: One labelled counter per access path; pre-registered so handles are
#: cached and a snapshot always shows the full label set.
_PLAN_CHOSEN = {
    cls.op: _planner_metrics.counter("query.plan.chosen", access=cls.op)
    for cls in (
        FullScan,
        IndexLookup,
        IndexMultiLookup,
        IndexRange,
        CompositeLookup,
        CompositeRange,
    )
}


_CACHE_HIT = _planner_metrics.counter("query.planner.cache.hit")
_CACHE_MISS = _planner_metrics.counter("query.planner.cache.miss")


class PlanCache:
    """LRU cache of compiled plans, keyed on query AST + index epoch.

    The query AST is frozen dataclasses all the way down, so a normalized
    query hashes and compares structurally.  Keys also carry the store's
    ``index_epoch``; since the epoch only moves forward, plans built
    against a dropped or newly-created index can never be returned — the
    stale keys just stop matching and eventually fall off the LRU tail.
    Queries with unhashable literal values (e.g. a list) are planned
    fresh every time and counted as misses.

    >>> cache = PlanCache(maxsize=2)
    >>> len(cache)
    0
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        # Entries are (plan, fingerprint, template): the workload
        # fingerprint is memoized next to the plan so a cache hit pays
        # one structural hash for both (see docs/profiling.md).
        self._plans: OrderedDict[
            tuple[Query, int], tuple[Plan, str, str]
        ] = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    def get_or_plan(self, query: Query, store: "RecordStore") -> tuple[Plan, bool]:
        """Return ``(plan, was_cached)``, planning on a miss."""
        plan, _, _, cached = self.get_or_plan_fingerprinted(query, store)
        return plan, cached

    def get_or_plan_fingerprinted(
        self, query: Query, store: "RecordStore"
    ) -> tuple[Plan, str, str, bool]:
        """``(plan, fingerprint, template, was_cached)``, planning on a miss."""
        key = (query, store.index_epoch)
        try:
            entry = self._plans[key]
        except KeyError:
            pass
        except TypeError:
            # Unhashable literal somewhere in the AST: plan fresh, skip
            # caching entirely.
            _CACHE_MISS.inc()
            fp, template = fingerprint_of(query)
            return plan_query(query, store), fp, template, False
        else:
            self._plans.move_to_end(key)
            _CACHE_HIT.inc()
            return entry[0], entry[1], entry[2], True
        plan = plan_query(query, store)
        fp, template = fingerprint_of(query)
        self._plans[key] = (plan, fp, template)
        if len(self._plans) > self.maxsize:
            self._plans.popitem(last=False)
        _CACHE_MISS.inc()
        return plan, fp, template, False

    def clear(self) -> None:
        self._plans.clear()


def plan_query(query: Query, store: "RecordStore") -> Plan:
    """Plan ``query`` against ``store``'s declared indexes."""
    clauses = [_rewrite_or_of_equalities(c) for c in conjuncts(query.where)]

    access, used = _choose_access(clauses, store)
    _PLANS_CONSIDERED.inc()
    _PLAN_CHOSEN[access.op].inc()
    residual = _combine([c for i, c in enumerate(clauses) if i not in used])
    _planner_logging.debug(
        "query.plan",
        access=access.op,
        detail=access.describe(),
        residual=residual is not None,
        clauses=len(clauses),
        fingerprint=fingerprint_of(query)[0],
    )
    return Plan(
        access=access,
        residual=residual,
        group_by=query.group_by,
        order_by=query.order_by,
        descending=query.descending,
        limit=query.limit,
        index_ordered=_index_orders(access, query, store),
    )


def _index_orders(access: AccessPath, query: Query, store: "RecordStore") -> bool:
    """Whether ``access`` yields rows already in ``query``'s ORDER BY order.

    True for an index range over the ``ORDER BY`` field when the order is
    ascending, the field is scalar and nothing regroups the rows.  A
    range scan yields ``(key, primary key)`` ascending, which is the
    ``(value, primary key)`` order ``ORDER BY`` sorts rows into, and
    shards merge on the same pair.  A list field is indexed per
    element, not by the value ORDER BY sorts on, so it keeps the sort,
    and so does ``DESC``.
    """
    if not isinstance(access, IndexRange) or access.field != query.order_by:
        return False
    if query.descending or query.group_by is not None:
        return False
    # Imported here: loading storage while the planner module loads
    # reorders package start-up, which raised peak RSS by ~0.7 MB.
    from repro.storage.schema import FieldType

    schema = store.schema
    return (
        schema.has_field(access.field)
        and schema.field(access.field).type is not FieldType.STRING_LIST
    )


def _choose_access(
    clauses: list[Expr], store: "RecordStore"
) -> tuple[AccessPath, set[int]]:
    from repro.storage.store import IndexKind  # local import avoids a cycle

    # 0. composite indexes first: equality over every component answers
    #    the most conjuncts at once; prefix equality + a range on the next
    #    component comes second.
    composite = _choose_composite(clauses, store)
    if composite is not None:
        return composite

    # 1. equality lookups: pick the most selective indexed field.  The
    #    selectivity estimate is distinct-key cardinality (more distinct
    #    keys ⇒ a typical probe returns fewer records); ties break toward
    #    the hash index for its O(1) probe.
    best_equality: tuple[int, Comparison, IndexKind, int] | None = None
    for i, clause in enumerate(clauses):
        if not isinstance(clause, Comparison):
            continue
        if clause.op not in (Operator.EQ, Operator.MATCH):
            continue
        kind = store.index_kind(clause.field)
        if kind is None:
            continue
        stats = store.index_statistics(clause.field) or {}
        cardinality = stats.get("distinct_keys", 0)
        candidate = (i, clause, kind, cardinality)
        if best_equality is None:
            best_equality = candidate
        elif cardinality > best_equality[3]:
            best_equality = candidate
        elif (
            cardinality == best_equality[3]
            and kind is IndexKind.HASH
            and best_equality[2] is IndexKind.BTREE
        ):
            best_equality = candidate
    if best_equality is not None:
        i, clause, kind, _ = best_equality
        return IndexLookup(field=clause.field, value=clause.value, kind=kind.value), {i}

    # 2. IN-lists on an indexed field: one probe per value; prefer the
    #    shortest list (fewest probes).
    best_membership: tuple[int, Membership, IndexKind] | None = None
    for i, clause in enumerate(clauses):
        if not isinstance(clause, Membership):
            continue
        kind = store.index_kind(clause.field)
        if kind is None:
            continue
        if best_membership is None or len(clause.values) < len(best_membership[1].values):
            best_membership = (i, clause, kind)
    if best_membership is not None:
        i, clause, kind = best_membership
        return (
            IndexMultiLookup(field=clause.field, values=clause.values, kind=kind.value),
            {i},
        )

    # 3. prefix LIKE on a B-tree field becomes a string range
    #    ("Mc%" → ["Mc", "Mc\U0010ffff"]).  The Like clause is kept in the
    #    residual: the range narrows candidates, the pattern stays exact.
    for i, clause in enumerate(clauses):
        if not isinstance(clause, Like):
            continue
        prefix = clause.prefix
        if prefix is None or not prefix:
            continue
        if store.index_kind(clause.field) is not IndexKind.BTREE:
            continue
        return (
            IndexRange(
                field=clause.field,
                low=prefix,
                high=prefix + _PREFIX_CEILING,
                include_low=True,
                include_high=True,
            ),
            set(),  # narrowing only; Like re-checks exactly
        )

    # 4. merged range on one B-tree field
    ranges: dict[str, list[tuple[int, Comparison]]] = {}
    for i, clause in enumerate(clauses):
        if (
            isinstance(clause, Comparison)
            and clause.op.is_range
            and store.index_kind(clause.field) is IndexKind.BTREE
        ):
            ranges.setdefault(clause.field, []).append((i, clause))
    if ranges:
        # Prefer the field with the most constraints (tightest interval).
        field = max(ranges, key=lambda f: len(ranges[f]))
        interval = _merge_interval([c for _, c in ranges[field]])
        if interval is not None:
            used = {i for i, _ in ranges[field]}
            low, high, inc_low, inc_high = interval
            return (
                IndexRange(
                    field=field,
                    low=low,
                    high=high,
                    include_low=inc_low,
                    include_high=inc_high,
                ),
                used,
            )

    return FullScan(), set()


def _rewrite_or_of_equalities(expr: Expr) -> Expr:
    """Rewrite ``f = a OR f = b OR …`` into ``f IN (a, b, …)``.

    The rewrite is semantics-preserving (Membership evaluates exactly like
    the disjunction, including list-field behaviour) and turns an
    unplannable OR tree into a multi-probe index access.  Mixed
    disjunctions (different fields, non-equality operators) are left
    untouched.
    """
    if not isinstance(expr, Or):
        return expr
    flat: list[Expr] = []
    stack: list[Expr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Or):
            stack.append(node.left)
            stack.append(node.right)
        else:
            flat.append(node)
    field: str | None = None
    values: list[Any] = []
    for node in flat:
        if isinstance(node, Comparison) and node.op in (Operator.EQ, Operator.MATCH):
            if field is None:
                field = node.field
            if node.field != field:
                return expr
            values.append(node.value)
        elif isinstance(node, Membership):
            if field is None:
                field = node.field
            if node.field != field:
                return expr
            values.extend(node.values)
        else:
            return expr
    assert field is not None
    # preserve first-seen order while deduplicating (values may repeat)
    seen: list[Any] = []
    for value in reversed(values):  # stack pop reversed the original order
        if value not in seen:
            seen.append(value)
    return Membership(field=field, values=tuple(seen))


def _choose_composite(
    clauses: list[Expr], store: "RecordStore"
) -> tuple[AccessPath, set[int]] | None:
    """Best composite-index access for the conjuncts, if any.

    Preference: full equality over the most component fields; otherwise
    the longest prefix of equalities followed by range conjuncts on the
    next component.  Single-field leftovers stay in the residual.
    """
    equalities: dict[str, tuple[int, Any]] = {}
    ranges: dict[str, list[tuple[int, Comparison]]] = {}
    for i, clause in enumerate(clauses):
        if not isinstance(clause, Comparison):
            continue
        if clause.op in (Operator.EQ, Operator.MATCH):
            equalities.setdefault(clause.field, (i, clause.value))
        elif clause.op.is_range:
            ranges.setdefault(clause.field, []).append((i, clause))

    best: tuple[int, AccessPath, set[int]] | None = None  # (score, path, used)
    for fields in store.composite_indexes():
        # longest all-equality prefix of this composite's field order
        prefix_len = 0
        for field in fields:
            if field in equalities:
                prefix_len += 1
            else:
                break
        if prefix_len == len(fields):
            used = {equalities[f][0] for f in fields}
            path: AccessPath = CompositeLookup(
                fields=fields, values=tuple(equalities[f][1] for f in fields)
            )
            score = 2 * len(fields)  # full equality dominates
            if best is None or score > best[0]:
                best = (score, path, used)
            continue
        if prefix_len == 0 or prefix_len >= len(fields):
            continue
        next_field = fields[prefix_len]
        range_clauses = ranges.get(next_field, [])
        if range_clauses:
            interval = _merge_interval([c for _, c in range_clauses])
            if interval is None:
                continue
            low, high, include_low, include_high = interval
            score = 2 * prefix_len + 1
        elif prefix_len >= 2:
            # A bare multi-field equality prefix is still a useful scan.
            low = high = None
            include_low = include_high = True
            score = 2 * prefix_len
        else:
            continue  # one equality, no range: rule 1 serves it better
        used = {equalities[f][0] for f in fields[:prefix_len]}
        used |= {i for i, _ in range_clauses}
        path = CompositeRange(
            fields=fields,
            prefix=tuple(equalities[f][1] for f in fields[:prefix_len]),
            low=low,
            high=high,
            include_low=include_low,
            include_high=include_high,
        )
        if best is None or score > best[0]:
            best = (score, path, used)

    if best is None:
        return None
    _score, path, used = best
    return path, used


def _merge_interval(
    comparisons: list[Comparison],
) -> tuple[Any, Any, bool, bool] | None:
    """Intersect range comparisons on one field into a single interval.

    Returns ``None`` when bounds are mutually incomparable (mixed types).
    """
    low: Any = None
    high: Any = None
    include_low = True
    include_high = True
    try:
        for comparison in comparisons:
            value = comparison.value
            inclusive = comparison.op in (Operator.GE, Operator.LE)
            if comparison.op in (Operator.GT, Operator.GE):
                # A lower bound is tighter when larger, or equal-but-exclusive.
                if low is None or value > low:
                    low, include_low = value, inclusive
                elif value == low and not inclusive:
                    include_low = False
            else:
                # An upper bound is tighter when smaller, or equal-but-exclusive.
                if high is None or value < high:
                    high, include_high = value, inclusive
                elif value == high and not inclusive:
                    include_high = False
    except TypeError:
        return None
    return low, high, include_low, include_high


def _combine(clauses: list[Expr]) -> Expr | None:
    if not clauses:
        return None
    node = clauses[0]
    for clause in clauses[1:]:
        node = And(node, clause)
    return node
