"""Warm-cache serving: name-free plans and prepared plans.

Serving compiles every job's query without its job label, so jobs of
one template share plan fingerprints, and a repeated template is served
from the :class:`~repro.core.planspace.PlanCache`'s prepared plan
without parse or search.  These tests pin the observable contract:

* job names change nothing but the names (answers, events, bytes and
  latencies are byte-identical under renaming);
* a prepared plan is re-searched exactly when a document its search read
  was written;
* every prepared hit equals a cold search on the same Σ state;
* unevaluable candidates are counted, labeled by error type.
"""

from random import Random

from repro.core.cost import Cost
from repro.core.expressions import DocExpr, QueryApply, QueryRef
from repro.core.optimizer import Optimizer
from repro.core.planspace import CacheStats, PlanCache, plan_fingerprint
from repro.core.rules import Plan
from repro.engine.jobs import DONE, JobRequest
from repro.engine.loadgen import LoadGenerator
from repro.peers import AXMLSystem
from repro.session import Session
from repro.workloads import WRITE_MIX_SPEC, ScenarioGenerator, ScenarioSpec
from repro.xmlcore import parse
from repro.xquery import Query

#: The T1/S1 scenario (6-peer mesh, replicated documents, 6 templates).
T1_SPEC = ScenarioSpec(
    peers=6, topology="mesh", documents=4, axml_documents=1,
    items=20, services=2, replicas=2, queries=6,
)
QUERY = "for $i in $d//item where $i/price > 3 return $i/name"


def catalog(n=12):
    return parse(
        "<catalog>"
        + "".join(
            f"<item><name>n{i}</name><price>{i}</price></item>"
            for i in range(n)
        )
        + "</catalog>"
    )


def two_doc_system():
    system = AXMLSystem.with_peers(["client", "d0", "d1"], bandwidth=50_000.0)
    system.peer("d0").install_document("cat", catalog())
    system.peer("d1").install_document("inv", catalog())
    return system


def t1_requests(scenario, label, jobs=24, seed=3):
    """An open-loop stream over the scenario's templates, named by ``label``."""
    rng = Random(seed)
    queries = [rng.choice(scenario.queries) for _ in range(jobs)]
    return [
        JobRequest(
            source=query.source,
            at=query.at,
            bind=query.bindings,
            name=label(query, k),
            arrival=k * 0.004,
        )
        for k, query in enumerate(queries)
    ]


def strip_names(events):
    """Event lines without their job-name field: ``time kind``."""
    return [" ".join(line.split(" ", 2)[:2]) for line in events]


class TestJobNamesStayOutOfThePlan:
    def test_renamed_stream_serves_byte_identically(self):
        served = []
        for label in (
            lambda query, k: f"{query.name}#{k}",
            lambda query, k: f"a-much-longer-client-label-{k:04d}-{query.name}",
        ):
            scenario = ScenarioGenerator(seed=7, spec=T1_SPEC).scenario(0)
            session = Session(scenario.system, cost_model="hybrid")
            served.append(session.serve(t1_requests(scenario, label), seed=1))
        first, second = served
        assert [job.answers for job in first.jobs] == [
            job.answers for job in second.jobs
        ]
        assert strip_names(first.events) == strip_names(second.events)
        assert first.network == second.network
        assert [job.latency for job in first.jobs] == [
            job.latency for job in second.jobs
        ]
        assert all(job.status == DONE for job in first.jobs)

    def test_report_keeps_the_request_name(self):
        session = Session(two_doc_system())
        request = JobRequest(QUERY, at="client", bind={"d": "cat@d0"}, name="job-7")
        report = session.plan_job(request)
        assert report.name == "job-7"
        assert report.original.expr.query.query.name is None


class TestPreparedPlans:
    def request(self, doc="cat@d0", name="j"):
        return JobRequest(QUERY, at="client", bind={"d": doc}, name=name)

    def test_repeated_template_skips_the_search(self):
        session = Session(two_doc_system())
        cold = session.plan_job(self.request(name="first"))
        warm = session.plan_job(self.request(name="second"))
        assert cold.plan_cache.prepared_misses == 1
        assert cold.plan_cache.cost_misses > 0
        assert warm.plan_cache == CacheStats(prepared_hits=1)
        assert plan_fingerprint(warm.plan) == plan_fingerprint(cold.plan)
        assert (warm.best_cost, warm.original_cost, warm.explored) == (
            cold.best_cost, cold.original_cost, cold.explored
        )
        assert warm.name == "second"

    def test_template_key_covers_site_bindings_and_optimize(self):
        session = Session(two_doc_system())
        session.plan_job(self.request())
        for other in (
            self.request(doc="inv@d1"),
            JobRequest(QUERY, at="d0", bind={"d": "cat@d0"}),
            JobRequest(QUERY, at="client", bind={"d": "cat@d0"}, optimize=False),
        ):
            assert session.plan_job(other).plan_cache.prepared_misses == 1

    def test_template_key_covers_how_the_search_runs(self):
        system = two_doc_system()
        cache = PlanCache()
        Session(system, plan_cache=cache).plan_job(self.request())
        for other in (
            Session(system, plan_cache=cache, strategy="greedy"),
            Session(system, plan_cache=cache, strategy_options={"depth": 1}),
            Session(system, plan_cache=cache, cost_model="analytic"),
        ):
            assert other.plan_job(self.request()).plan_cache.prepared_misses == 1
        again = Session(system, plan_cache=cache).plan_job(self.request())
        assert again.plan_cache.prepared_hits == 1

    def test_write_to_a_read_document_forces_a_research(self):
        session = Session(two_doc_system())
        session.plan_job(self.request())
        session.update("inv", 1, "price", "99")
        unrelated = session.plan_job(self.request())
        assert unrelated.plan_cache.prepared_hits == 1
        session.update("cat", 1, "price", "99")
        written = session.plan_job(self.request())
        assert written.plan_cache.prepared_misses == 1
        assert written.plan_cache.cost_misses > 0
        # the re-search is prepared again under the new epochs
        assert session.plan_job(self.request()).plan_cache.prepared_hits == 1

    def test_clear_drops_prepared_plans_and_none_disables_them(self):
        session = Session(two_doc_system())
        session.plan_job(self.request())
        session.plan_cache.clear()
        assert session.plan_cache.tables()["prepared"] == 0
        assert session.plan_job(self.request()).plan_cache.prepared_misses == 1
        uncached = Session(two_doc_system(), plan_cache=None)
        for _ in range(2):
            stats = uncached.plan_job(self.request()).plan_cache
            assert stats.prepared_hits == stats.prepared_misses == 0
            assert stats.cost_misses > 0

    def test_observability(self):
        session = Session(two_doc_system())
        report = session.serve([self.request(name=f"j{k}") for k in range(3)])
        stats = session.plan_cache.stats
        assert (stats.prepared_hits, stats.prepared_misses) == (2, 1)
        assert "2 prepared-plan hits / 1 misses" in stats.describe()
        assert "1 prepared plans" in session.plan_cache.describe()
        assert stats.delta_since(CacheStats()).as_dict()["prepared_hits"] == 2
        tables = session.plan_cache.tables()
        for table, entries in tables.items():
            gauge = report.registry.gauge("plancache_entries", table=table)
            assert gauge.value == entries
        assert tables["prepared"] == 1


class AuditedSession(Session):
    """Checks every prepared hit against a cold search on the same Σ."""

    audited = 0

    def plan_job(self, request):
        report = super().plan_job(request)
        if report.plan_cache.prepared_hits:
            cold = Session(
                self.system, cost_model=self.cost_model.name, isolate=self.isolate
            ).plan_job(request)
            assert cold.plan_cache.prepared_misses == 1
            assert plan_fingerprint(report.plan) == plan_fingerprint(cold.plan)
            assert plan_fingerprint(report.original) == plan_fingerprint(
                cold.original
            )
            assert report.best_cost == cold.best_cost
            assert report.original_cost == cold.original_cost
            self.audited += 1
        return report


class TestPreparedHitsEqualColdSearch:
    def test_t1_closed_loop(self):
        scenario = ScenarioGenerator(seed=7, spec=T1_SPEC).scenario(0)
        session = AuditedSession(scenario.system, cost_model="hybrid")
        feed = LoadGenerator(scenario, seed=8).closed_loop(24, 4)
        report = session.serve(feed=feed, seed=7)
        assert report.metrics.failed == 0
        assert session.audited >= 12

    def test_write_mix(self):
        scenario = ScenarioGenerator(seed=7, spec=WRITE_MIX_SPEC).scenario(0)
        session = AuditedSession(
            scenario.system, cost_model="hybrid", isolate=False
        )
        rng = Random(5)
        requests = []
        writes = iter(scenario.writes)
        for k in range(24):
            arrival = k * 0.01
            write = next(writes, None) if k % 3 == 2 else None
            if write is not None:
                requests.append(JobRequest.for_write(write.op(), arrival=arrival))
                continue
            query = rng.choice(scenario.queries)
            requests.append(JobRequest(
                source=query.source, at=query.at, bind=query.bindings,
                name=f"{query.name}#{k}", arrival=arrival,
            ))
        report = session.serve(requests, seed=5)
        assert report.metrics.failed == 0
        assert session.plan_cache.stats.prepared_misses > len(scenario.queries)
        assert session.audited > 0


class _Picky:
    """Prices only the original plan; every rewrite raises."""

    name = "picky"
    final_check = False

    def __init__(self, original):
        self.original = original

    def score(self, plan):
        if plan is self.original:
            return Cost(1000, 1, 1.0)
        raise LookupError("no price for this candidate")

    def cache_token(self):
        return "picky"


class TestUnevaluableVerdicts:
    def test_scorer_errors_are_counted_by_type(self):
        system = two_doc_system()
        query = Query(QUERY, params=("d",))
        plan = Plan(
            QueryApply(QueryRef(query, "client"), (DocExpr("cat", "d0"),)),
            "client",
        )
        optimizer = Optimizer(system, cost_model=_Picky(plan), cache=PlanCache())
        result = optimizer.optimize(plan)
        assert result.best is plan
        failed = result.cache.cost_misses - 1
        assert failed > 0
        counted = optimizer.registry.counter_value("unevaluable", error="LookupError")
        assert counted == failed
        # a cached verdict is a hit, not a second failure
        optimizer.optimize(plan)
        assert optimizer.registry.counter_value(
            "unevaluable", error="LookupError"
        ) == counted
