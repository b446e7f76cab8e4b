"""The three serving workloads and their answer references.

Every workload serves one fixed scenario Σ (scenario seed 7) with a
fixed request mix, so figures from different ``--seed`` values stay
comparable; ``--seed`` drives the request stream's order, its arrival
times, where the writes fall, and the engine's same-instant tie-break.
The same seed gives the same requests byte for byte.

* ``read-hot`` — the T1/S1 scenario (6-peer mesh, replicated documents,
  6 query templates) served closed-loop by 8 virtual clients through an
  isolated ``hybrid`` session.  Planning dominates the wall time.
* ``scatter-wide`` — the fragmented family widened to a 10-peer ring
  with larger documents, Zipf-skewed open-loop reads with a mid-run
  hotspot shift, an ``analytic`` session and a default
  :class:`~repro.placement.PlacementActor`.  Evaluation dominates.
* ``write-mix`` — the read/write-mix family: reads and the scenario's
  seeded insert/update/delete stream share one open-loop schedule (one
  write per read) in a non-isolated ``hybrid`` session.

:func:`reference_answers` recomputes every completed read un-optimized
(``optimize=False``) on the same Σ state, which is the answer check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.loadgen import ClosedLoopFeed
from repro.engine.jobs import DONE, JobRequest
from repro.placement import PlacementActor
from repro.session import Session
from repro.workloads import ScenarioGenerator, ScenarioSpec
from repro.workloads.generator import FRAGMENTED_SPEC, WRITE_MIX_SPEC

#: The scenario seed every workload's Σ is generated from (the S1/T1
#: benches' default), independent of the request-stream ``--seed``.
SCENARIO_SEED = 7

READ_HOT_SPEC = ScenarioSpec(
    peers=6, topology="mesh", documents=4, axml_documents=1,
    items=20, services=2, replicas=2, queries=6,
)
READ_HOT_JOBS = 400
#: Eight clients, not S1's four: at four, reads never contend and every
#: seed's median latency is the same template's solo latency.
READ_HOT_CLIENTS = 8

SCATTER_SPEC = replace(
    FRAGMENTED_SPEC, peers=10, topology="ring", items=150, zipf_skew=1.0,
)
SCATTER_JOBS = 270
#: Virtual arrivals per second: below the ring's capacity, so queues
#: stay bounded and latency measures service, not backlog growth.
SCATTER_RATE = 30.0
SCATTER_SHIFT_AT = 0.5

WRITE_MIX_READS = 200
WRITE_MIX_RATE = 100.0


@dataclass
class Setup:
    """One ready-to-serve pass: a fresh session plus its request stream."""

    session: Session
    serve_kwargs: Dict[str, object]
    #: The generated write behind each write job, by job name
    #: (write-mix only); the reference replays them.
    writes: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, object], Setup]
    #: Whether the reference must replay reads and writes in order.
    stateful: bool = False


def _scenario(spec: ScenarioSpec):
    return ScenarioGenerator(seed=SCENARIO_SEED, spec=spec).scenario(0)


def stratified(queries: Sequence, count: int, rng: Random, skew: float = 0.0) -> List:
    """``count`` picks over ``queries`` with exact Zipf shares, in seeded order.

    Query at rank ``r`` gets the share ``1/(r+1)^skew`` (uniform at
    skew 0), rounded by largest remainder.  Fixing the counts and
    leaving only the order to the seed keeps every seed's mix the same,
    so seeds differ in interleaving, not in how much work they ask for.
    """
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(queries))]
    quotas = [count * weight / sum(weights) for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(
        range(len(queries)), key=lambda i: counts[i] - quotas[i]
    )
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    picks = [query for query, n in zip(queries, counts) for _ in range(n)]
    rng.shuffle(picks)
    return picks


def _requests(picks: Sequence, arrivals: Sequence[float]) -> List[JobRequest]:
    return [
        JobRequest(
            source=query.source,
            at=query.at,
            bind=query.bindings,
            name=f"{query.name}#{k}",
            arrival=arrival,
        )
        for k, (query, arrival) in enumerate(zip(picks, arrivals))
    ]


def jittered(count: int, rate: float, rng: Random) -> List[float]:
    """``count`` open-loop arrivals at ``rate`` per virtual second.

    One arrival falls uniformly at random in each ``1/rate`` slot.  A
    Poisson stream's bursts made a run's latency tail depend mostly on
    which seed it drew (p95 spread 0.14-0.23 across ten seeds on
    scatter-wide); with one arrival per slot every seed offers the same
    load, only its jitter differs.
    """
    return [(slot + rng.random()) / rate for slot in range(count)]


def setup_read_hot(seed: int, tracer=None) -> Setup:
    scenario = _scenario(READ_HOT_SPEC)
    session = Session(scenario.system, cost_model="hybrid", tracer=tracer)
    picks = stratified(scenario.queries, READ_HOT_JOBS, Random(f"read-hot:{seed}"))
    feed = ClosedLoopFeed(_requests(picks, [0.0] * len(picks)), READ_HOT_CLIENTS)
    return Setup(session, {"feed": feed, "seed": seed})


def setup_scatter_wide(seed: int, tracer=None) -> Setup:
    """Zipf reads whose popularity ranking rotates by half mid-run."""
    scenario = _scenario(SCATTER_SPEC)
    session = Session(scenario.system, cost_model="analytic", tracer=tracer)
    rng = Random(f"scatter-wide:{seed}")
    queries = list(scenario.queries)
    half = len(queries) // 2
    before = int(SCATTER_JOBS * SCATTER_SHIFT_AT)
    picks = stratified(queries, before, rng, SCATTER_SPEC.zipf_skew)
    picks += stratified(
        queries[half:] + queries[:half], SCATTER_JOBS - before, rng,
        SCATTER_SPEC.zipf_skew,
    )
    requests = _requests(picks, jittered(len(picks), SCATTER_RATE, rng))
    return Setup(
        session,
        {"requests": requests, "seed": seed, "actor": PlacementActor()},
    )


def setup_write_mix(seed: int, tracer=None) -> Setup:
    """Reads and writes on one open-loop schedule, one write per read.

    The schedule has ``2 * reads`` arrivals; a seeded draw picks which
    slots carry the scenario's writes, which keep their generated order
    (each write's ordinal assumes the ones before it applied).
    """
    scenario = _scenario(replace(WRITE_MIX_SPEC, writes=WRITE_MIX_READS))
    session = Session(
        scenario.system, cost_model="hybrid", isolate=False, tracer=tracer
    )
    rng = Random(f"write-mix:{seed}")
    arrivals = jittered(2 * WRITE_MIX_READS, WRITE_MIX_RATE, rng)
    write_slots = set(rng.sample(range(len(arrivals)), len(scenario.writes)))
    read_slots = [i for i in range(len(arrivals)) if i not in write_slots]
    picks = stratified(scenario.queries, len(read_slots), rng)
    reads = iter(_requests(picks, [arrivals[i] for i in read_slots]))
    ops = iter(scenario.writes)
    requests: List[JobRequest] = []
    writes: Dict[str, object] = {}
    for index, arrival in enumerate(arrivals):
        if index in write_slots:
            write = next(ops)
            request = JobRequest.for_write(
                write.op(), arrival=arrival, name=f"{write.name}@{index}"
            )
            writes[request.name] = write
        else:
            request = next(reads)
        requests.append(request)
    return Setup(session, {"requests": requests, "seed": seed}, writes)


#: Each workload's reason for being is in ``BENCHMARK.json``.
WORKLOADS: Dict[str, Workload] = {
    "read-hot": Workload(setup_read_hot),
    "scatter-wide": Workload(setup_scatter_wide),
    "write-mix": Workload(setup_write_mix, stateful=True),
}


def _request_key(request: JobRequest) -> Tuple:
    return (request.source, request.at, tuple(sorted((request.bind or {}).items())))


def admission_order(report) -> List[str]:
    """Job names in the order the scheduler admitted them."""
    return [
        line.split(" ", 2)[2]
        for line in report.events
        if line.split(" ", 2)[1] == "admit"
    ]


def reference_answers(workload: Workload, seed: int, report) -> Dict[str, List[str]]:
    """Each completed read's un-optimized answer on the same Σ state.

    Isolated workloads serve every read against the blueprint Σ, so one
    reference per distinct request suffices.  ``write-mix`` mutates Σ as
    it serves, so its reference replays every admitted job — writes
    through :meth:`Session.write`, reads un-optimized — in admission
    order on a fresh copy of the scenario.
    """
    fresh = workload.setup(seed)
    reference = Session(
        fresh.session.system, cost_model="analytic", isolate=not workload.stateful
    )
    jobs = {job.name: job for job in report.jobs}
    memo: Dict[Tuple, List[str]] = {}
    out: Dict[str, List[str]] = {}
    for name in admission_order(report):
        job = jobs[name]
        request = job.request
        if request.write is not None:
            if job.status == DONE:
                reference.write(fresh.writes[name].op())
            continue
        if job.status != DONE:
            continue
        key = _request_key(request)
        answers: Optional[List[str]] = None if workload.stateful else memo.get(key)
        if answers is None:
            answers = reference.query(
                request.source, at=request.at, bind=request.bind, optimize=False
            ).answers
            memo[key] = answers
        out[name] = answers
    return out
