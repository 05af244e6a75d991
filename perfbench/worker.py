"""One benchmark run of one workload, in its own process.

Started by ``run.py``; prints a ``{"stamp": ...}`` line and then the
result object as its last line. ``--spawned-at`` is the parent's
``time.monotonic()`` just before the spawn, so set-up time includes
interpreter start and ``import repro``.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

from stats import digest, mean, median, p90_supported, percentile

import workloads as wl  # imports repro: part of set-up time
from layers import UNITS, install, layer_metrics
from spans import END, NAME, PARENT, START, SpanRecorder, fold

#: Ops every run completes, however short ``--seconds`` is. Quality
#: metrics, ledgers and the report digest cover exactly these ops, so
#: they are a pure function of the seed; a p90 over them has ten
#: samples beyond it.
MIN_OPS = 100

#: Set-up is built this many times per run; setup_s uses the median.
SETUP_REPEATS = 3

LEDGER = (
    ("ledger.oracle_label_s", "label_sample"),
    ("ledger.cmdn_train_s", "cmdn_training"),
    ("ledger.populate_d0_s", "populate_d0"),
    ("ledger.select_candidate_s", "select_candidate"),
    ("ledger.confirm_oracle_s", "confirm_oracle"),
)


def op_count(workload, seconds: float) -> int:
    """Ops in one run: ``seconds`` of work at the workload's nominal rate.

    The count depends only on ``--seconds``, never on how fast this
    run goes, so every run of a workload does the same work and a
    slow host cannot change which ops (and so which content) a run
    covers.
    """
    return max(MIN_OPS, math.ceil(seconds * workload.RATE))


def build(workload, seed):
    """Build the state ``SETUP_REPEATS`` times; keep the last one."""
    seconds, state = [], None
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        fresh = workload.build(seed)
        seconds.append(time.perf_counter() - began)
        if state is not None:
            workload.close(state)
        state = fresh
    return state, seconds


def check(workload, state, timed):
    """Check every op outside the timed region; fold quality metrics.

    Returns (failed op indices, prefix quality dict, prefix report
    JSON strings in op order).
    """
    failed = []
    precisions, speedups, examine = [], [], []
    ledger = {name: 0.0 for name, _ in LEDGER}
    chunks = []
    for index, outcome in enumerate(timed.outcomes):
        in_prefix = index < MIN_OPS
        if outcome.error is not None:
            failed.append((index, outcome.error))
            continue
        try:
            answers = workload.answers(state, index, outcome)
        except Exception as exc:  # noqa: BLE001 - a failed check
            failed.append((index, f"check raised {exc!r}"))
            continue
        reasons = [r for r in map(wl.check_answer, answers) if r]
        if reasons:
            failed.append((index, reasons[0]))
        if not in_prefix:
            continue
        for answer in answers:
            report = answer.report
            chunks.append(report.to_json())
            speedups.append(report.speedup)
            examine.append(report.selection_examine_fraction)
            for name, field in LEDGER:
                ledger[name] += getattr(report.breakdown, field)
            if answer.truth is not None:
                precisions.append(wl.precision(answer))
    quality = {
        "precision_at_k": mean(precisions),
        "exact_topk_rate": mean([1.0 if p == 1.0 else 0.0
                                 for p in precisions]),
        "sim_speedup": median(speedups) if speedups else 0.0,
        "core.select_candidate.examine_fraction": mean(examine),
        **ledger,
    }
    return failed, quality, chunks


#: End-to-end metric -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ok_share": "ratio",
    "precision_at_k": "ratio",
    "exact_topk_rate": "ratio",
    "sim_speedup": "x",
    "peak_rss_mb": "MB",
}


def end_to_end(timed, failed, attempted, setup_s, quality, rss_mb):
    """The end-to-end metrics (op times as ``Timed.op_times`` gives them).

    ``setup_s`` is wall time, unscaled: interpreter start, imports
    and one-off builds, which the calibration kernel does not track.
    """
    times = timed.op_times()
    busy = timed.wall if timed.open_loop else sum(times)
    bad = {index for index, _ in failed}
    # A failed op misses every latency limit: count it at the whole
    # run's time.
    latencies = [busy if i in bad else t for i, t in enumerate(times)]
    if not p90_supported(len(latencies)):
        raise RuntimeError(f"{len(latencies)} ops cannot support a p90")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / busy,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "ok_share": 1.0 - len(failed) / attempted,
        "precision_at_k": quality["precision_at_k"],
        "exact_topk_rate": quality["exact_topk_rate"],
        "sim_speedup": quality["sim_speedup"],
        "peak_rss_mb": rss_mb,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def uncovered(recorder, timed, workload_name) -> float:
    f = fold(recorder.spans)
    if workload_name != "gateway_open":
        total = f.wall_s.get("bench.op", 0.0)
        return f.self_s.get("bench.op", 0.0) / total if total else 0.0
    # Open loop: queries wait in the service queue outside any span;
    # the covered part is every root layer span of the measured shots
    # except stream appends.
    began = next(s[START] for s in recorder.spans
                 if s[NAME] == "bench.measured")
    total = sum(o.latency for o in timed.outcomes)
    covered = sum(
        s[END] - s[START] for s in recorder.spans
        if s[PARENT] is None and s[END] is not None
        and s[START] >= began and s[NAME] not in (
            "bench.measured", "gateway.append", "gateway.other"))
    return min(1.0, max(0.0, 1.0 - covered / total)) if total else 0.0


def lane(workload_name: str, extra: dict) -> str:
    """Where queries ran: inline, or the service's thread/process lane."""
    if workload_name != "gateway_open":
        return "inline"
    return "process" if extra["service.use_processes"] else "thread"


def run(args) -> dict:
    boot_s = time.monotonic() - args.spawned_at
    workload = wl.WORKLOADS[args.workload]
    state, builds = build(workload, args.seed)
    setup_s = boot_s + median(builds)
    count = op_count(workload, args.seconds)
    timed = workload.run(state, count)
    rss_mb = peak_rss_mb()
    extra = dict(timed.extra)
    layer = None
    traced_digest = None
    if args.trace:
        workload.close(state)
        recorder = SpanRecorder()
        touched = install(recorder)
        try:
            # The rebuild is traced too: Phase-1 layers of the warm
            # workloads run only in set-up.
            state = workload.build(args.seed)
            traced = workload.run(state, count, recorder)
        finally:
            recorder.restore()
        overhead = sum(traced.op_times()) / sum(timed.op_times())
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        recorder.write_jsonl(
            out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    workload.close(state)

    failed, quality, chunks = check(workload, state, timed)
    report_digest = digest(chunks)
    attempted = len(timed.outcomes) + int(extra.get("side_ops", 0))
    failed_total = len(failed) + int(extra.get("side_errors", 0))
    result = {
        "attempted": attempted,
        "failed": failed_total,
        "correct": failed_total == 0,
    }
    if args.trace:
        t_failed, t_quality, t_chunks = check(workload, state, traced)
        traced_digest = digest(t_chunks)
        if traced_digest != report_digest:
            t_failed.append((-1, "traced reports differ from untraced"))
        result["attempted"] += len(traced.outcomes) + int(
            traced.extra.get("side_ops", 0))
        result["failed"] += len(t_failed) + int(
            traced.extra.get("side_errors", 0))
        result["correct"] = result["failed"] == 0
        t_extra = dict(traced.extra)
        t_extra.update({key: t_quality[key] for key in t_quality
                        if key.startswith(("ledger.", "core."))})
        t_extra["bench.trace_overhead"] = overhead
        t_extra["bench.speed_factor"] = traced.speed_factor
        t_extra["bench.uncovered_share"] = uncovered(
            recorder, traced, args.workload)
        layer = layer_metrics(recorder, touched, t_extra)
        # Layer times are scaled to the nominal host like the
        # end-to-end ones; simulated ledger seconds are not timings.
        for name, value in layer.items():
            if UNITS[name] == "s" and not name.startswith("ledger."):
                layer[name] = value * traced.speed_factor
        failed = failed + t_failed
    metrics = end_to_end(timed, failed, attempted, setup_s, quality, rss_mb)
    stamp = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpus": wl.available_cpus(), **versions(),
        "lane": lane(args.workload, extra),
        "ops": len(timed.outcomes), "prefix_ops": MIN_OPS,
        "wall_s": timed.wall, "boot_s": boot_s, "builds_s": builds,
        "speed_factor": timed.speed_factor,
        "wall_op_p50_s": median([o.latency for o in timed.outcomes]),
        "wall_ops_per_s": len(timed.outcomes) / timed.wall,
        "digest": report_digest, "traced_digest": traced_digest,
        "failures": [f"{i}: {why}" for i, why in failed[:10]],
        "exact_scores_disagreements": state.get("truth_disagreements", 0),
        "end_to_end": metrics,
    }
    if layer is not None:
        result["metrics"] = {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in layer.items()}
    else:
        result["metrics"] = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()}
    return stamp, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    stamp, result = run(args)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
