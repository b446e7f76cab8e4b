"""Plan-space memoization: canonical fingerprints and a transposition table.

The optimizer's rewrite space (Section 3.3) is a graph, not a tree: the
same plan is reachable through many rule orders (apply rule A at one
subexpression then B at another, or B then A — same plan).  Searching it
as a tree re-costs and re-expands structurally identical plans
exponentially often; the classic fix from cost-based optimizers (and from
decision-diagram packages: unique canonical representatives plus an
operation cache) is to key every plan by a *canonical fingerprint* and
memoize per key.

* :func:`plan_fingerprint` — a structural digest of a plan derived from
  the XML serialization of :mod:`repro.core.serialize` (never from object
  identity), interned so equal plans share one key object;
* :class:`PlanCache` — the transposition table: plan cost and rule
  expansions per fingerprint, plus the :class:`~repro.core.cost.CostEstimator`'s
  subtree/doc-size/compiled-query memos, with hit/miss/dedup counters —
  and, on top, the *prepared plans*: whole search results per request
  template (System R's compiled access plans), so a repeated template
  skips parse and search entirely;
* :class:`CacheStats` — the counter block, snapshot-diffable so each
  search can report exactly its own share of a shared cache's traffic.

One :class:`PlanCache` may be shared across strategies and across
searches (the :class:`~repro.session.Session` and the
:class:`~repro.workloads.harness.DifferentialHarness` both do), under one
contract: **a cached value is valid exactly while the parts of Σ its key
names are unchanged**.  Costs are deterministic functions of (plan, Σ).
Document reads are made visible in the key itself: every key is salted
with the :func:`doc_epoch_signature` of the documents the plan reads, so
a write (:mod:`repro.writes`) bumps those documents' epochs and orphans
exactly the stale entries, while entries over untouched documents keep
hitting.  A prepared plan records the epochs of every document any plan
its search keyed reads; it is served only while all of them are
unchanged — exactly when replaying the search against the table would
hit the same entries and return the same result.  An activation of a
document's embedded calls bumps its epochs like a write.  Mutations that
epochs do not capture (placement actions, other side effects of
executions on a non-isolated Σ) are the caller's to handle with
:meth:`~PlanCache.clear`, which drops every table, prepared plans
included.  One dependency is not keyed yet: a write to a document that
an *unactivated* embedded call's service reads leaves the calling
document's epoch, and so entries over it, unchanged.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from .expressions import DocExpr, FragmentedDoc, GenericDoc, walk
from .rules import Plan, Rewrite
from .serialize import expression_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .cost import Cost

__all__ = [
    "plan_fingerprint",
    "doc_names",
    "epoch_signature",
    "doc_epoch_signature",
    "CacheStats",
    "PreparedPlan",
    "PlanCache",
]

#: Sentinel cached for plans the cost function cannot evaluate, so a
#: failing candidate is not re-measured on every re-reach.
UNEVALUABLE = object()


def plan_fingerprint(plan: Plan) -> str:
    """Canonical, interned key for a plan: site + structural expression digest.

    Two plans share a key iff they have the same evaluation site and
    structurally equal expressions (tree literals compared by content).
    The string is interned so every holder of an equal plan carries the
    *same* key object and dict lookups degrade to pointer comparisons.
    """
    return sys.intern(f"{plan.site}|{expression_fingerprint(plan.expr)}")


def doc_names(expr) -> FrozenSet[str]:
    """Names of every document an expression reads.

    Document-reference expressions (:class:`DocExpr`, :class:`GenericDoc`,
    :class:`FragmentedDoc`) fingerprint by *name*, so this set is a pure
    function of the expression's fingerprint — :class:`PlanCache` memoizes
    it per plan key.
    """
    return frozenset(
        node.name
        for node in walk(expr)
        if isinstance(node, (DocExpr, GenericDoc, FragmentedDoc))
    )


def epoch_signature(system, names: Iterable[str]) -> str:
    """Epoch salt for a set of document names, ``""`` if none was written.

    Every name with a non-zero epoch contributes ``name:epoch``, sorted
    and joined.  While nothing has ever been written
    (``system.doc_epochs`` empty) the signature is ``""``.
    """
    epochs = getattr(system, "doc_epochs", None)
    if not epochs:
        return ""
    touched = set()
    for name in names:
        epoch = epochs.get(name)
        if epoch:
            touched.add(f"{name}:{epoch}")
    return ",".join(sorted(touched))


def doc_epoch_signature(system, expr) -> str:
    """Epoch salt for the documents an expression reads, ``""`` if none.

    Document-reference expressions fingerprint by *name* only, so a
    mutation (see :mod:`repro.writes`) would be invisible to
    :func:`plan_fingerprint`.  This signature makes it visible (see
    :func:`epoch_signature`).  While nothing has ever been written the
    signature is ``""`` — callers skip the salt entirely and every key
    stays byte-identical to the read-only regime.  Tree literals need no
    salting: their content fingerprint already changes under mutation.
    """
    if not getattr(system, "doc_epochs", None):
        return ""
    return epoch_signature(system, doc_names(expr))


@dataclass
class CacheStats:
    """Hit/miss/dedup counters for one cache (or one search's delta).

    ``plans_deduped`` counts candidate plans a strategy skipped because
    their fingerprint was already processed this search; ``cost_hits``
    are cost lookups answered from the table (each one is a cost-function
    invocation saved); ``cost_misses`` are actual cost-function calls.
    ``prepared_hits`` are requests served from a prepared plan (parse
    and search skipped); ``prepared_misses`` are prepared-plan lookups
    that had to search — no entry yet, or one whose documents changed.
    """

    cost_hits: int = 0
    cost_misses: int = 0
    expand_hits: int = 0
    expand_misses: int = 0
    plans_deduped: int = 0
    estimator_hits: int = 0
    estimator_misses: int = 0
    prepared_hits: int = 0
    prepared_misses: int = 0

    @property
    def cost_calls_saved(self) -> int:
        return self.cost_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of cost lookups answered without invoking the cost fn."""
        total = self.cost_hits + self.cost_misses
        return self.cost_hits / total if total else 0.0

    def copy(self) -> "CacheStats":
        return CacheStats(**self.as_dict())

    def delta_since(self, baseline: "CacheStats") -> "CacheStats":
        """Counter-wise difference (per-search share of a shared cache)."""
        return CacheStats(
            **{
                f.name: getattr(self, f.name) - getattr(baseline, f.name)
                for f in fields(self)
            }
        )

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def describe(self) -> str:
        text = (
            f"cache: {self.cost_hits} cost hits / {self.cost_misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.plans_deduped} plans "
            f"deduped, {self.expand_hits} expansions reused"
        )
        if self.prepared_hits or self.prepared_misses:
            text += (
                f", {self.prepared_hits} prepared-plan hits / "
                f"{self.prepared_misses} misses"
            )
        return text


@dataclass(frozen=True)
class PreparedPlan:
    """One template's finished search, served again without searching.

    ``reads`` names every document any plan the search keyed reads, and
    ``signature`` is their :func:`epoch_signature` when the search ran:
    the entry is valid exactly while that signature is unchanged.
    """

    original: Plan
    best: Plan
    original_cost: "Cost"
    best_cost: "Cost"
    explored: int
    strategy: str
    trace: Tuple
    reads: FrozenSet[str]
    signature: str

    @classmethod
    def record(cls, original: Plan, result, system) -> "PreparedPlan":
        """Freeze a finished search (an ``OptimizationResult``) over Σ."""
        return cls(
            original=original,
            best=result.best,
            original_cost=result.original_cost,
            best_cost=result.best_cost,
            explored=result.explored,
            strategy=result.strategy,
            trace=tuple(result.trace),
            reads=result.reads,
            signature=epoch_signature(system, result.reads),
        )


class PlanCache:
    """Transposition table over canonical plan fingerprints.

    Stores, per plan key: the plan's cost (or an "unevaluable" verdict)
    and the full list of rule rewrites; and, for the static
    :class:`~repro.core.cost.CostEstimator`, per-(subexpression, site)
    cost deltas, per-(document, peer) sizes, and compiled logical plans
    per query source; and, per request template, a :class:`PreparedPlan`
    (see :meth:`lookup_prepared`).  ``stats`` accumulates over the
    cache's lifetime; callers wanting per-search numbers snapshot and
    diff via :meth:`CacheStats.delta_since`.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._costs: Dict[str, object] = {}
        self._expansions: Dict[str, Tuple[Rewrite, ...]] = {}
        #: (statistics token, expression fingerprint, site) ->
        #: (value size, bytes, msgs, time); the token keeps estimators
        #: with different Statistics from replaying each other's deltas
        self.subtree_costs: Dict[Tuple, Tuple[int, int, int, float]] = {}
        #: (document name, home peer) -> serialized bytes; written
        #: documents gain an epoch component (name, home, epoch) so a
        #: mutation orphans the stale size instead of serving it
        self.doc_sizes: Dict[Tuple, int] = {}
        #: query source -> compiled logical plan (or None when uncompilable)
        self.compiled_queries: Dict[str, object] = {}
        #: (document name, home peer[, epoch]) -> tuple of embedded
        #: service-call profiles (the estimator's activation model);
        #: epoch-keyed like doc_sizes so writes orphan stale profiles
        self.doc_profiles: Dict[Tuple, Tuple] = {}
        #: (provider, service, params digest[, epochs]) -> sampled
        #: invocation (work units, per-item result bytes, result items);
        #: one deterministic sample per call site, amortized across every
        #: candidate plan
        self.service_samples: Dict[Tuple, Tuple] = {}
        #: doc key -> materialized *activated* document value (or False
        #: when the document cannot be materialized statically)
        self.doc_values: Dict[Tuple, object] = {}
        #: (query source, argument value keys) -> (result bytes, work
        #: units); one deterministic apply sample per distinct input
        self.apply_samples: Dict[Tuple, Tuple[int, int]] = {}
        #: plan fingerprint -> names of the documents the plan reads
        #: (see :func:`doc_names`); makes epoch salting a lookup, not a walk
        self.doc_reads: Dict[str, FrozenSet[str]] = {}
        #: request-template key -> finished search (see :meth:`lookup_prepared`)
        self._prepared: Dict[Tuple, PreparedPlan] = {}

    # -- transposition table ------------------------------------------------
    def lookup_cost(self, key: str) -> Tuple[bool, Optional["Cost"]]:
        """``(hit, cost)``; a hit with ``None`` means "known unevaluable"."""
        entry = self._costs.get(key, _MISS)
        if entry is _MISS:
            return False, None
        return True, None if entry is UNEVALUABLE else entry

    def store_cost(self, key: str, cost: Optional["Cost"]) -> None:
        self._costs[key] = UNEVALUABLE if cost is None else cost

    def lookup_expansions(self, key: str) -> Optional[List[Rewrite]]:
        cached = self._expansions.get(key)
        return None if cached is None else list(cached)

    def store_expansions(self, key: str, rewrites: List[Rewrite]) -> None:
        self._expansions[key] = tuple(rewrites)

    def reads_of(self, key: str, plan: Plan) -> FrozenSet[str]:
        """Documents ``plan`` (fingerprint ``key``) reads, memoized."""
        names = self.doc_reads.get(key)
        if names is None:
            names = self.doc_reads[key] = doc_names(plan.expr)
        return names

    # -- prepared plans -----------------------------------------------------
    def lookup_prepared(self, key: Tuple, system) -> Optional[PreparedPlan]:
        """The prepared plan for a request template, if still valid.

        Valid means every document any plan of the recorded search reads
        has the epoch it had then: replaying the search against this
        table would key the same entries and return the same result.  A
        stale entry counts as a miss (and is replaced by the next store).
        """
        entry = self._prepared.get(key)
        if entry is not None and (
            epoch_signature(system, entry.reads) == entry.signature
        ):
            self.stats.prepared_hits += 1
            return entry
        self.stats.prepared_misses += 1
        return None

    def store_prepared(self, key: Tuple, entry: PreparedPlan) -> None:
        self._prepared[key] = entry

    # -- bookkeeping --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._costs)

    @property
    def distinct_plans(self) -> int:
        """Distinct plan fingerprints with a cached cost."""
        return len(self._costs)

    def tables(self) -> Dict[str, int]:
        """Entries per table, by table name (prepared plans included)."""
        return {
            name.lstrip("_"): len(table)
            for name, table in vars(self).items()
            if isinstance(table, dict)
        }

    def clear(self) -> None:
        """Forget everything, prepared plans included; counters survive.

        Needed after mutations the doc epochs do not capture (placement
        actions, side effects of executions on a non-isolated Σ); writes
        and activations need no clear.
        """
        for table in vars(self).values():
            if isinstance(table, dict):
                table.clear()

    def describe(self) -> str:
        return (
            f"{self.distinct_plans} plans cached, "
            f"{len(self._expansions)} expansions, "
            f"{len(self.subtree_costs)} subtree estimates, "
            f"{len(self._prepared)} prepared plans; "
            + self.stats.describe()
        )


_MISS = object()
