"""S1 — raw serving speed: analytic cost models vs the simulate-everything oracle.

The T1 workload (heterogeneous mesh, replicated documents, closed-loop
admission) served three times, identical except for how the optimizer
prices candidate plans:

* ``oracle``  — every candidate is clone-and-simulated (the historical
  default: perfectly informed, and ~all of the serving wall time);
* ``analytic`` — every candidate is priced statically from sampled
  catalog statistics; nothing is simulated;
* ``hybrid``  — the frontier is priced analytically, only the chosen
  plan (plus the original) is oracle-checked.

The claim under test: estimation changes *how fast the optimizer runs*,
never *what it answers*.  Every mode must produce byte-identical
answers and byte-identical virtual-time metrics (makespan, latency
percentiles), while a hybrid search runs >=5x faster than an oracle
search.

The speed claim is per search: the gate compares the wall time of the
``optimize`` phase (:class:`repro.obs.WallProfiler`) per search that
actually ran.  Serving is warm-cache — a repeated query template is
answered from its prepared plan without searching, under every model
alike — so the whole-``serve()`` wall ratio also carries evaluation and
is reported beside the gate, not gated here.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import emit, emit_json, format_table, timed_run  # noqa: E402

from repro.engine import LoadGenerator  # noqa: E402
from repro.obs import WallProfiler  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.workloads import ScenarioGenerator, ScenarioSpec  # noqa: E402

BENCH_ID = "S1"
JSON_NAME = "BENCH_speed"

#: The T1 scenario, verbatim: same mesh, same replicas, same queries —
#: so speedups here compose with the throughput numbers over there.
SPEC = ScenarioSpec(
    peers=6, topology="mesh", documents=4, axml_documents=1,
    items=20, services=2, replicas=2, queries=6,
)

COST_MODELS = ("oracle", "analytic", "hybrid")
CONCURRENCY = 4
JOBS = 32
QUICK_JOBS = 16
#: Interleaved rounds per mode; the minimum wall of each mode is kept.
REPS = 3

#: The acceptance floor: a hybrid search must run >=5x faster than an
#: oracle search (mean optimize-phase wall per search) on this workload.
MIN_HYBRID_SPEEDUP = 5.0


def serve_mode(mode: str, seed: int, jobs: int):
    """One closed-loop run priced by ``mode``; returns (report, seconds, profiler).

    Scenario and load are regenerated per mode from the same seeds, so
    every mode admits byte-identical requests over byte-identical Σ.
    """
    scenario = ScenarioGenerator(seed=seed, spec=SPEC).scenario(0)
    load = LoadGenerator(scenario, seed=seed + 1)
    profiler = WallProfiler()
    session = Session(scenario.system, cost_model=mode, profiler=profiler)
    feed = load.closed_loop(jobs, CONCURRENCY)
    report, seconds = timed_run(lambda: session.serve(feed=feed, seed=seed))
    return report, seconds, profiler


def run_modes(seed: int, jobs: int):
    """``REPS`` interleaved rounds over every mode; min wall per mode.

    Interleaving spreads machine drift over all modes alike, and the
    minimum over rounds is the least-disturbed run (as in O1).  Answers
    and virtual time must agree across every round of every mode.
    """
    best = {}
    answers = {}
    vtime = {}
    for _ in range(REPS):
        for mode in COST_MODELS:
            report, seconds, profiler = serve_mode(mode, seed, jobs)
            metrics = report.metrics
            assert metrics.failed == 0, f"{metrics.failed} jobs failed under {mode}"
            searches = profiler.calls("optimize")
            search_ms = profiler.seconds("optimize") * 1000 / max(1, searches)
            answers.setdefault(mode, set()).add(tuple(sorted(
                (job.name, tuple(job.answers)) for job in report.jobs
            )))
            vtime.setdefault(mode, set()).add((
                metrics.makespan, metrics.latency_p50,
                metrics.latency_p95, metrics.latency_p99,
            ))
            seen = best.get(mode)
            best[mode] = (
                metrics,
                min(seconds, seen[1]) if seen else seconds,
                searches,
                min(search_ms, seen[3]) if seen else search_ms,
            )
    rows = []
    modes = {}
    for mode, (metrics, seconds, searches, search_ms) in best.items():
        wall_qps = metrics.jobs / max(1e-9, seconds)
        rows.append((
            mode, metrics.jobs, seconds * 1000, wall_qps, searches,
            search_ms, metrics.makespan * 1000, metrics.latency_p50 * 1000,
            metrics.latency_p95 * 1000,
        ))
        modes[mode] = {
            "jobs": metrics.jobs,
            "wall_seconds": round(seconds, 4),
            "wall_qps": round(wall_qps, 2),
            "searches": searches,
            "search_ms": round(search_ms, 3),
            "makespan_ms": round(metrics.makespan * 1000, 3),
            "latency_p50_ms": round(metrics.latency_p50 * 1000, 3),
            "latency_p95_ms": round(metrics.latency_p95 * 1000, 3),
        }
    return rows, modes, answers, vtime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller run for CI's perf-smoke job")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)

    jobs = args.jobs or (QUICK_JOBS if args.quick else JOBS)
    rows, modes, answers, vtime = run_modes(args.seed, jobs)

    emit(
        BENCH_ID,
        f"serving speed by cost model, {jobs} jobs at concurrency "
        f"{CONCURRENCY}, min of {REPS} interleaved rounds",
        format_table(
            ["model", "jobs", "wall ms", "wall qps", "searches",
             "ms/search", "makespan ms", "p50 ms", "p95 ms"],
            rows,
        ),
    )

    search_speedup = modes["oracle"]["search_ms"] / max(
        1e-9, modes["hybrid"]["search_ms"]
    )
    hybrid_speedup = modes["hybrid"]["wall_qps"] / max(
        1e-9, modes["oracle"]["wall_qps"]
    )
    analytic_speedup = modes["analytic"]["wall_qps"] / max(
        1e-9, modes["oracle"]["wall_qps"]
    )
    # one distinct outcome per mode, the same one for every mode
    answers_identical = all(
        len(answers[mode]) == 1 and answers[mode] == answers["oracle"]
        for mode in COST_MODELS
    )
    vtime_identical = all(
        len(vtime[mode]) == 1 and vtime[mode] == vtime["oracle"]
        for mode in COST_MODELS
    )

    payload = {
        "bench": BENCH_ID,
        "seed": args.seed,
        "quick": args.quick,
        "jobs": jobs,
        "reps": REPS,
        "concurrency": CONCURRENCY,
        "modes": modes,
        "hybrid_vs_oracle_search_speedup": round(search_speedup, 3),
        "hybrid_vs_oracle_wall_speedup": round(hybrid_speedup, 3),
        "analytic_vs_oracle_wall_speedup": round(analytic_speedup, 3),
        "identical_answers_across_models": answers_identical,
        "identical_virtual_time_across_models": vtime_identical,
    }
    emit_json(JSON_NAME, payload, quick=args.quick)

    print(
        f"\nper search: hybrid {modes['hybrid']['search_ms']:.2f} ms vs oracle "
        f"{modes['oracle']['search_ms']:.2f} ms (x{search_speedup:.2f}); "
        f"serving: hybrid {modes['hybrid']['wall_qps']:.1f} q/s vs oracle "
        f"{modes['oracle']['wall_qps']:.1f} q/s (x{hybrid_speedup:.2f}), "
        f"analytic x{analytic_speedup:.2f}"
    )

    # regression gates: estimation must buy wall speed without touching
    # a single observable — answers and virtual time are the contract
    if not answers_identical:
        print("FAIL: answers diverged across cost models")
        return 1
    if not vtime_identical:
        print("FAIL: virtual-time metrics diverged across cost models")
        return 1
    if search_speedup < MIN_HYBRID_SPEEDUP:
        print(
            f"FAIL: hybrid per-search wall speedup x{search_speedup:.2f} fell "
            f"below the x{MIN_HYBRID_SPEEDUP:.1f} floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
