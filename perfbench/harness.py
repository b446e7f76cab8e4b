"""One benchmark run: serve identical passes, check them, summarise.

A run sets up and serves fresh, identical passes of one workload until
its time is used.  The first pass's answers are checked against an
un-optimized reference, and every later pass must reproduce its
event-trace digest and virtual metrics exactly.

* Untraced, a run reports the end-to-end metrics: the median wall
  ``serve()`` ms per operation over its passes, the median set-up time,
  and the pass's (deterministic) virtual latency, throughput and bytes.
* Traced, a run alternates untraced passes with traced ones, which run
  under a :class:`repro.obs.Tracer` and the outside-in
  :class:`~ledger.Ledger`, and reports the per-layer metrics.  Traced
  passes must give the untraced answers and event trace, and the
  layers' self times plus ``other`` must add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import resource
import statistics
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List

from ledger import LAYER_NAMES, Ledger
from repro.engine.jobs import DONE
from repro.engine.metrics import percentile
from repro.obs import Tracer, analyze
from workloads import WORKLOADS, reference_answers

#: Set-up takes milliseconds, so each pass also times this many extra
#: set-ups (spread over the run, like the passes); the median is reported.
SETUP_REPEATS = 5
#: A traced pass's layer self times plus ``other`` must match its
#: measured wall time within this share.
CLOSURE_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "wall_ms_per_op": "ms",
    "setup_s": "s",
    "vlat_mean_ms": "ms",
    "vlat_p95_ms": "ms",
    "vqps": "1/s",
    "bytes_per_op": "B",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    """One served pass: its timings, report and session."""

    setup_s: float
    serve_s: float
    report: object
    session: object


@dataclass
class Run:
    """One benchmark run's verdict, result object and report lines."""

    correct: bool
    result: dict
    lines: List[str]
    #: Event-trace-and-answers digest of the run's passes.
    digest: str
    #: The run's deterministic virtual metrics (see :func:`virtual_metrics`).
    virtual: Dict[str, float]
    #: Per traced pass: layer self times plus ``other`` over the wall time.
    closures: List[float]


def virtual_metrics(report) -> Dict[str, float]:
    """Deterministic figures of one pass (virtual clock and counts)."""
    jobs = report.jobs
    reads = [job for job in jobs if job.request.write is None]
    writes = [job for job in jobs if job.request.write is not None]
    read_lat = [job.latency * 1000 for job in reads if job.status == DONE]
    write_lat = [job.latency * 1000 for job in writes if job.status == DONE]
    done = sum(1 for job in jobs if job.status == DONE)
    makespan = report.metrics.makespan
    return {
        "ops": len(jobs),
        "reads": len(reads),
        "writes": len(writes),
        "failed": len(jobs) - done,
        "vlat_n": len(read_lat),
        "vlat_mean_ms": statistics.fmean(read_lat) if read_lat else 0.0,
        "vlat_p50_ms": percentile(read_lat, 50),
        "vlat_p95_ms": percentile(read_lat, 95),
        "vwrite_n": len(write_lat),
        "vwrite_p50_ms": percentile(write_lat, 50),
        "vwrite_p95_ms": percentile(write_lat, 95),
        "vqps": done / makespan if makespan > 0 else 0.0,
        "bytes_per_op": report.network["bytes"] / len(jobs),
        "messages_per_op": report.network["messages"] / len(jobs),
        "ok_frac": done / len(jobs),
        "failed_frac": (len(jobs) - done) / len(jobs),
        "placement_actions": report.registry.counter_value("placement_actions"),
    }


def outcome_digest(report) -> str:
    """Digest of the event trace plus every job's outcome and answers."""
    digest = hashlib.sha256()
    for line in report.events:
        digest.update(line.encode() + b"\n")
    for job in report.jobs:
        error = type(job.error).__name__ if job.error is not None else ""
        digest.update(f"{job.name}|{job.status}|{error}\n".encode())
        for answer in job.answers:
            digest.update(answer.encode() + b"\n")
    return digest.hexdigest()


def serve_pass(workload, seed: int, tracer=None, ledger=None) -> Pass:
    """Set up and serve one pass; ``ledger`` (if any) wraps ``serve()`` only."""
    gc.collect()  # start every pass from the same heap, whatever came before
    start = perf_counter()
    setup = workload.setup(seed, tracer)
    ready = perf_counter()
    with ledger or contextlib.nullcontext():
        report = setup.session.serve(**setup.serve_kwargs)
    done = perf_counter()
    return Pass(ready - start, done - ready, report, setup.session)


def check_answers(workload, seed: int, report) -> List[str]:
    """Names of completed reads whose answer differs from the reference."""
    expected = reference_answers(workload, seed, report)
    served = {
        job.name: job.answers
        for job in report.jobs
        if job.request.write is None and job.status == DONE
    }
    return sorted(
        name for name in served.keys() | expected.keys()
        if served.get(name) != expected.get(name)
    )


def setup_times(workload, seed: int) -> List[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup(seed)
        times.append(perf_counter() - start)
    return times


def plan_cache_entries(cache) -> int:
    """Entries across every table a PlanCache holds, whatever its tables are."""
    return sum(len(table) for table in vars(cache).values() if isinstance(table, dict))


def layer_metrics(ledger: Ledger, traced: Pass, vm: Dict[str, float]) -> Dict[str, float]:
    """Per-layer figures of one traced pass, per op, read or write."""
    ops, reads, writes = vm["ops"], max(1, vm["reads"]), max(1, vm["writes"])
    calls = ledger.calls

    def ms(layer: str, per: int, table=ledger.inclusive) -> float:
        return table[layer] * 1000 / per

    stats = traced.session.plan_cache.stats
    looked_up = stats.expand_hits + stats.expand_misses
    explored = sum(
        job.report.explored for job in traced.report.jobs
        if job.request.write is None and job.report is not None
    )
    totals = analyze(traced.report.trace).totals
    vtotal = sum(totals.values()) or 1.0
    metrics = {
        "session.plan_ms_per_read": ms("session.plan", reads),
        "core.expand_calls_per_read": calls["core.expand"] / reads,
        "core.expand_ms_per_read": ms("core.expand", reads),
        "core.cost_analytic_calls_per_read": calls["core.cost_analytic"] / reads,
        "core.cost_analytic_ms_per_read": ms("core.cost_analytic", reads),
        "core.cost_oracle_calls_per_read": calls["core.cost_oracle"] / reads,
        "core.cost_oracle_ms_per_read": ms("core.cost_oracle", reads),
        "core.explored_per_read": explored / reads,
        "core.plancache_cost_hit_rate": stats.hit_rate,
        "core.plancache_expand_hit_rate": stats.expand_hits / looked_up if looked_up else 0.0,
        "core.plancache_entries_end": plan_cache_entries(traced.session.plan_cache),
        "xquery.parse_calls_per_op": calls["xquery.parse"] / ops,
        "xquery.parse_ms_per_op": ms("xquery.parse", ops),
        "xquery.decompose_calls_per_op": calls["xquery.decompose"] / ops,
        "xquery.decompose_ms_per_op": ms("xquery.decompose", ops),
        "xquery.run_calls_per_op": calls["xquery.run"] / ops,
        "xquery.run_ms_per_op": ms("xquery.run", ops),
        "core.eval_calls_per_op": calls["core.eval"] / ops,
        "core.eval_self_ms_per_op": ms("core.eval", ops, ledger.self_time),
        "net.route_calls_per_op": calls["net.route"] / ops,
        "net.route_ms_per_op": ms("net.route", ops),
        "net.deliver_calls_per_op": calls["net.deliver"] / ops,
        "net.messages_per_op": vm["messages_per_op"],
        "peers.clone_calls_per_op": calls["peers.clone"] / ops,
        "peers.clone_ms_per_op": ms("peers.clone", ops),
        "writes.apply_ms_per_write": ms("writes.apply", writes),
        "placement.tick_ms_per_op": ms("placement.tick", ops),
        "placement.actions": vm["placement_actions"],
        "engine.self_ms_per_op": ms("engine", ops, ledger.self_time),
        "other.ms_per_op": (traced.serve_s - ledger.covered) * 1000 / ops,
        "vpath.cpu_share": totals["cpu"] / vtotal,
        "vpath.link_share": totals["link"] / vtotal,
        "vpath.queue_share": totals["queue"] / vtotal,
        "vpath.other_share": (totals["other"] + totals["backoff"] + totals["stall"]) / vtotal,
        "vlat_p50_ms": vm["vlat_p50_ms"],
        "vwrite_p50_ms": vm["vwrite_p50_ms"],
        "vwrite_p95_ms": vm["vwrite_p95_ms"],
        "failed_frac": vm["failed_frac"],
        "wall.traced_ms_per_op": traced.serve_s * 1000 / ops,
    }
    for layer in LAYER_NAMES:
        metrics[f"ledger.{layer}.self_ms_per_op"] = ms(layer, ops, ledger.self_time)
    return metrics


def closure(ledger: Ledger, wall: float) -> float:
    """Layer self times plus ``other``, as a share of the measured wall."""
    return (sum(ledger.self_time.values()) + wall - ledger.covered) / wall


def layer_unit(name: str) -> str:
    if "ms_per" in name or name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith(("_rate", "_share", "_ratio")):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    """One benchmark run of workload ``name`` over ``seconds`` of passes."""
    workload = WORKLOADS[name]
    problems: List[str] = []
    setups: List[float] = []
    walls: List[float] = []
    traced_walls: List[float] = []
    layers: List[Dict[str, float]] = []
    closures: List[float] = []
    missing: List[str] = []
    baseline = None
    start = perf_counter()
    while not walls or (trace and not layers) or perf_counter() - start < seconds:
        traced = trace and len(layers) < len(walls)
        setups += setup_times(workload, seed)
        ledger = Ledger() if traced else None
        p = serve_pass(workload, seed, Tracer() if traced else None, ledger)
        label = f"traced pass {len(layers) + 1}" if traced else f"pass {len(walls) + 1}"
        digest, vm = outcome_digest(p.report), virtual_metrics(p.report)
        if baseline is None:
            checked = perf_counter()
            mismatches = check_answers(workload, seed, p.report)
            start += perf_counter() - checked  # the check is not measured time
            if mismatches:
                problems.append(
                    f"{len(mismatches)} reads differ from the un-optimized "
                    "reference: " + ", ".join(mismatches[:5])
                )
            errors = Counter(type(job.error).__name__ for job in p.report.jobs if job.error)
            baseline = (digest, vm, dict(errors))
        elif digest != baseline[0]:
            problems.append(f"{label}: event trace or answers differ from pass 1")
        elif vm != baseline[1]:
            problems.append(f"{label}: virtual metrics differ from pass 1")
        if traced:
            if not ledger.balanced:
                problems.append(f"{label}: ledger frames left open")
            missing = ledger.missing
            closures.append(closure(ledger, p.serve_s))
            if abs(closures[-1] - 1.0) > CLOSURE_TOLERANCE:
                problems.append(
                    f"{label}: layer self times plus other cover "
                    f"{closures[-1]:.3f} of the wall time"
                )
            layers.append(layer_metrics(ledger, p, vm))
            traced_walls.append(p.serve_s)
        else:
            walls.append(p.serve_s)
            setups.append(p.setup_s)
        del p

    digest, vm, errors = baseline
    lines = [
        f"workload {name}  seed {seed}  passes {len(walls)} untraced"
        + (f" + {len(traced_walls)} traced" if trace else "")
        + f"  ops/pass {vm['ops']} ({vm['reads']} reads, {vm['writes']} writes)"
        + f"  digest {digest[:16]}",
        f"  failed {vm['failed']}/{vm['ops']} per pass "
        f"(failed_frac {vm['failed_frac']:.4f})  by error: {errors}",
        f"  samples: vlat n={vm['vlat_n']}, vwrite n={vm['vwrite_n']}, "
        f"wall n={len(walls)} passes, setup n={len(setups)}",
    ]
    if trace:
        lines.append(
            "  ledger closure (self times + other) / wall: "
            + ", ".join(f"{c:.4f}" for c in closures)
        )
        if missing:
            lines.append("  ledger entry points not found (layer reads 0): " + ", ".join(missing))
        values = {k: statistics.median(lm[k] for lm in layers) for k in layers[0]}
        values["obs.trace_overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls)
        )
        units = {k: layer_unit(k) for k in values}
    else:
        values = {
            "wall_ms_per_op": statistics.median(walls) * 1000 / vm["ops"],
            "setup_s": statistics.median(setups),
            "vlat_mean_ms": vm["vlat_mean_ms"],
            "vlat_p95_ms": vm["vlat_p95_ms"],
            "vqps": vm["vqps"],
            "bytes_per_op": vm["bytes_per_op"],
            "ok_frac": vm["ok_frac"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    lines += [f"  {k:42s} {m['value']:14.6f} {m['unit']}" for k, m in metrics.items()]
    lines += [f"  CHECK FAILED: {problem}" for problem in problems]
    passes = len(walls) + len(traced_walls)
    result = {
        "correct": not problems,
        "attempted": vm["ops"] * passes,
        "failed": vm["failed"] * passes,
        "metrics": metrics,
    }
    return Run(not problems, result, lines, digest, vm, closures)
