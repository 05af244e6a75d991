"""Per-layer wrap targets, the layer -> end-to-end map, and the fold.

Layers use the module names of ``src/repro``. Every wrapper is
installed where the wrapped name is looked up at call time: class
attributes on the defining class, and module globals in each module
that imported the function by name.
"""

from __future__ import annotations

import importlib
import numbers
from typing import Dict

from spans import END, SpanRecorder, fold

#: Spans that render pixels. A render entry point counts frames only
#: when no other render span is open on the same thread.
RENDER_SPANS = ("video.batch_pixels", "video.frame", "video.pixels")

#: (metric, unit, better, end-to-end metric it should move, workloads).
LAYER_METRICS = (
    ("video.batch_pixels.frames", "count", "lower",
     "ops_per_s", "cold_query"),
    ("video.batch_pixels.self_s", "s", "lower",
     "ops_per_s, latency_p50_s (setup_s on warm_mix/live_window)",
     "cold_query"),
    ("video.renders_per_frame", "ratio", "lower",
     "ops_per_s, latency_p50_s", "cold_query"),
    ("video.frame.calls", "count", "lower",
     "latency_p50_s, latency_p90_s", "warm_mix, live_window"),
    ("video.frame.self_s", "s", "lower",
     "latency_p50_s, latency_p90_s", "warm_mix, live_window"),
    ("video.diff.frames", "count", "lower", "ops_per_s", "cold_query"),
    ("video.diff.self_s", "s", "lower", "ops_per_s", "cold_query"),
    ("models.train.self_s", "s", "lower", "ops_per_s", "cold_query"),
    ("models.train.sample_epochs", "count", "lower", "ops_per_s",
     "cold_query"),
    ("models.infer.frames", "count", "lower",
     "ops_per_s / latency_p50_s", "cold_query / live_window"),
    ("models.infer.self_s", "s", "lower",
     "ops_per_s / latency_p50_s", "cold_query / live_window"),
    ("core.phase1.wall_s", "s", "lower", "ops_per_s", "cold_query"),
    ("core.relation_build.self_s", "s", "lower", "ops_per_s",
     "cold_query"),
    ("core.cleaner.wall_s", "s", "lower", "latency_p90_s",
     "warm_mix, live_window"),
    ("core.cleaner.iterations", "count", "lower", "latency_p90_s",
     "warm_mix, live_window"),
    ("core.cleaner.cleaned", "count", "lower", "latency_p90_s",
     "warm_mix, live_window"),
    ("core.select_candidate.calls", "count", "lower", "latency_p90_s",
     "warm_mix, live_window"),
    ("core.select_candidate.self_s", "s", "lower", "latency_p90_s",
     "warm_mix, live_window"),
    ("core.select_candidate.examine_fraction", "ratio", "lower",
     "latency_p90_s", "warm_mix, live_window"),
    ("core.topk_prob.self_s", "s", "lower", "latency_p50_s", "warm_mix"),
    ("core.cdf_update.self_s", "s", "lower", "latency_p50_s", "warm_mix"),
    ("core.window_relation.self_s", "s", "lower", "latency_p50_s",
     "warm_mix"),
    ("core.restrict.self_s", "s", "lower", "latency_p50_s", "warm_mix"),
    ("oracle.score.frames", "count", "lower", "latency_p50_s",
     "warm_mix, gateway_open"),
    ("oracle.score.self_s", "s", "lower", "latency_p50_s",
     "warm_mix, gateway_open"),
    ("oracle.cache.hit_ratio", "ratio", "higher", "latency_p50_s",
     "warm_mix, gateway_open"),
    ("api.phase1.builds", "count", "lower", "setup_s", "warm_mix"),
    ("api.execute.wall_s", "s", "lower", "latency_p50_s",
     "gateway_open"),
    ("streaming.advance.self_s", "s", "lower", "latency_p50_s",
     "live_window"),
    ("streaming.fresh_inferred_frames", "count", "lower",
     "latency_p50_s", "live_window"),
    ("streaming.fresh_confirm_calls", "count", "lower", "latency_p50_s",
     "live_window"),
    ("streaming.refresh.wall_s", "s", "lower", "latency_p50_s",
     "live_window"),
    ("windowed.rebuild_entry.self_s", "s", "lower", "latency_p50_s",
     "live_window"),
    ("windowed.window_state.self_s", "s", "lower", "latency_p50_s",
     "live_window"),
    ("corpus.prepare.wall_s", "s", "lower", "setup_s", "warm_mix"),
    ("corpus.federated.wall_s", "s", "lower", "latency_p90_s",
     "warm_mix"),
    ("service.builds", "count", "lower", "latency_p90_s, peak_rss_mb",
     "gateway_open"),
    ("service.phase1_hit_rate", "ratio", "higher",
     "latency_p90_s, peak_rss_mb", "gateway_open"),
    ("service.single_flight_waits", "count", "lower",
     "latency_p90_s, peak_rss_mb", "gateway_open"),
    ("service.cached_scores", "count", "lower",
     "latency_p90_s, peak_rss_mb", "gateway_open"),
    ("service.retained_outcomes", "count", "lower",
     "latency_p90_s, peak_rss_mb", "gateway_open"),
    ("service.use_processes", "flag", "lower",
     "latency_p90_s, peak_rss_mb", "gateway_open"),
    ("parallel.pool.tasks", "count", "lower",
     "latency_p50_s, ops_per_s", "gateway_open"),
    ("parallel.pool.submit_s", "s", "lower",
     "latency_p50_s, ops_per_s", "gateway_open"),
    ("parallel.pool.task_s", "s", "lower",
     "latency_p50_s, ops_per_s", "gateway_open"),
    ("gateway.query.self_s", "s", "lower",
     "latency_p90_s, ok_share", "gateway_open"),
    ("gateway.append.self_s", "s", "lower",
     "latency_p90_s, ok_share", "gateway_open"),
    ("gateway.result.self_s", "s", "lower",
     "latency_p90_s, ok_share", "gateway_open"),
    ("gateway.rejected", "count", "lower", "latency_p90_s, ok_share",
     "gateway_open"),
    ("loadgen.max_behind_s", "s", "lower", "latency_p50_s, latency_p90_s",
     "gateway_open"),
    ("ledger.oracle_label_s", "s", "lower", "sim_speedup", "all"),
    ("ledger.cmdn_train_s", "s", "lower", "sim_speedup", "all"),
    ("ledger.populate_d0_s", "s", "lower", "sim_speedup", "all"),
    ("ledger.select_candidate_s", "s", "lower", "sim_speedup", "all"),
    ("ledger.confirm_oracle_s", "s", "lower", "sim_speedup", "all"),
    ("bench.uncovered_share", "ratio", "lower", "(trace quality)", "all"),
    ("bench.trace_overhead", "x", "lower", "(trace quality)", "all"),
    ("bench.speed_factor", "x", "higher", "(host speed, not the program)",
     "all"),
)

UNITS = {name: unit for name, unit, *_ in LAYER_METRICS}


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------
def _render_before(recorder: SpanRecorder, touched: set):
    """Count frames at the outermost render entry point only."""

    def before(args, kwargs):
        video = args[0]
        if len(args) > 1:
            target = args[1]
        else:
            target = kwargs.get("indices", kwargs.get("index"))
        if isinstance(target, numbers.Integral):
            indices = [int(target)]
        else:
            indices = [int(i) for i in target]
            args = (video, indices, *args[2:])
            kwargs.pop("indices", None)
        attrs = {}
        if recorder.top_name() not in RENDER_SPANS:
            attrs["frames"] = len(indices)
            # Not id(): fresh videos per op would reuse freed ids.
            key = (type(video).__name__, video.name, video.seed,
                   video.num_frames)
            touched.update((key, i) for i in indices)
        return args, kwargs, attrs

    return before


def _sized_arg(position: int, attr_name: str):
    def before(args, kwargs):
        value = args[position]
        if not hasattr(value, "__len__"):
            value = list(value)
            args = (*args[:position], value, *args[position + 1:])
        return args, kwargs, {attr_name: len(value)}

    return before


def _phase1_before(args, kwargs):
    session = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    return args, kwargs, {"miss": 0 if session.phase1_cached(config) else 1}


def _caching_score_before(args, kwargs):
    args, kwargs, attrs = _sized_arg(2, "frames")(args, kwargs)
    attrs["fresh_before"] = args[0].fresh_calls
    return args, kwargs, attrs


def _caching_score_after(args, kwargs, result, attrs):
    fresh = args[0].fresh_calls - attrs.pop("fresh_before")
    attrs["hits"] = attrs["frames"] - fresh


def _gateway_name(args, kwargs):
    path = args[2] if len(args) > 2 else kwargs.get("path", "")
    if path == "/query":
        return "gateway.query"
    if path in ("/append", "/tick"):
        return "gateway.append"
    if path.startswith("/result/"):
        return "gateway.result"
    return "gateway.other"


def _gateway_after(args, kwargs, result, attrs):
    attrs["rejected"] = 1 if result[0] == 429 else 0


def _cleaner_after(args, kwargs, result, attrs):
    attrs["iterations"] = result.iterations
    attrs["cleaned"] = result.cleaned


def _train_after(args, kwargs, result, attrs):
    attrs["sample_epochs"] = result.sample_epochs


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _mod(name):
    return importlib.import_module(name)


def install(recorder: SpanRecorder) -> set:
    """Wrap every layer boundary; returns the touched-frame set."""
    synthetic = _mod("repro.video.synthetic")
    diff = _mod("repro.video.diff")
    cmdn = _mod("repro.models.cmdn")
    core_phase1 = _mod("repro.core.phase1")
    incremental = _mod("repro.streaming.phase1_incremental")
    maintenance = _mod("repro.windowed.maintenance")
    core_windows = _mod("repro.core.windows")
    cleaner = _mod("repro.core.cleaner")
    select = _mod("repro.core.select_candidate")
    topk_prob = _mod("repro.core.topk_prob")
    uncertain = _mod("repro.core.uncertain")
    executor = _mod("repro.api.executor")
    session = _mod("repro.api.session")
    oracle_base = _mod("repro.oracle.base")
    oracle_cache = _mod("repro.oracle.cache")
    live_topk = _mod("repro.streaming.live_topk")
    corpus = _mod("repro.corpus.corpus")
    federated = _mod("repro.corpus.federated")
    pool = _mod("repro.parallel.pool")
    gateway_app = _mod("repro.gateway.app")

    touched: set = set()
    render = _render_before(recorder, touched)
    video_cls = synthetic.SyntheticVideo
    recorder.wrap(video_cls, "batch_pixels", "video.batch_pixels",
                  before=render)
    recorder.wrap(video_cls, "frame", "video.frame", before=render)
    # Per-frame pixels() is only a span when it is a render entry
    # point itself (not inside batch_pixels/frame).
    recorder.wrap(video_cls, "pixels", "video.pixels", before=render,
                  pass_through_under=RENDER_SPANS)
    recorder.wrap(diff.DifferenceDetector, "run", "video.diff",
                  after=lambda a, k, r, attrs: attrs.update(
                      frames=r.num_frames))

    for module in (core_phase1, incremental):
        recorder.wrap(module, "train_proxy_grid", "models.train",
                      after=_train_after)
    for scorer in _subclasses(cmdn.ProxyScorer):
        if "predict_mixtures" in vars(scorer):
            recorder.wrap(scorer, "predict_mixtures", "models.infer",
                          before=_sized_arg(1, "frames"))

    recorder.wrap(session, "run_phase1", "core.phase1")
    for module in (core_phase1, incremental, maintenance, core_windows):
        recorder.wrap(module, "build_relation", "core.relation_build")
    recorder.wrap(cleaner.TopKCleaner, "run", "core.cleaner",
                  after=_cleaner_after)
    recorder.wrap(select.CandidateSelector, "select",
                  "core.select_candidate")
    for attr in ("topk_prob", "joint_cdf_excluding_levels"):
        recorder.wrap(topk_prob.ConfidenceState, attr, "core.topk_prob")
    recorder.wrap(topk_prob.ConfidenceState, "remove_many",
                  "core.cdf_update")
    recorder.wrap(uncertain.UncertainRelation, "mark_certain_many",
                  "core.cdf_update")
    recorder.wrap(executor, "build_window_relation",
                  "core.window_relation")
    recorder.wrap(executor, "restrict_relation", "core.restrict")

    recorder.wrap(oracle_base.Oracle, "score", "oracle.score",
                  before=_sized_arg(2, "frames"))
    recorder.wrap(oracle_cache.CachingOracle, "score", "oracle.score",
                  before=_caching_score_before,
                  after=_caching_score_after)

    recorder.wrap(session.Session, "phase1", "api.phase1",
                  before=_phase1_before)
    recorder.wrap(executor.QueryExecutor, "execute_detailed",
                  "api.execute")

    recorder.wrap(incremental.IncrementalPhase1, "advance",
                  "streaming.advance")
    recorder.wrap(live_topk.LiveTopK, "refresh", "streaming.refresh")
    recorder.wrap(maintenance.WindowedIncrementalPhase1, "rebuild_entry",
                  "windowed.rebuild_entry")
    recorder.wrap(maintenance.WindowedBlockCache, "window_state",
                  "windowed.window_state")

    recorder.wrap(corpus.VideoCorpus, "prepare", "corpus.prepare")
    recorder.wrap(federated.FederatedTopK, "execute_detailed",
                  "corpus.federated")

    _wrap_pool_submit(recorder, pool.PersistentPool)
    recorder.wrap(gateway_app.Gateway, "handle", _gateway_name,
                  after=_gateway_after)
    return touched


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def _wrap_pool_submit(recorder: SpanRecorder, pool_cls) -> None:
    """Time submission, plus a detached span from submit to completion.

    Work inside pool processes is invisible to parent-side wrappers;
    the detached ``parallel.pool.task`` span is the boundary they see.
    """

    def after(args, kwargs, future, attrs):
        task = recorder.detached("parallel.pool.task")

        def done(_future, _task=task):
            _task[END] = recorder.clock()

        future.add_done_callback(done)

    recorder.wrap(pool_cls, "submit", "parallel.pool.submit", after=after)


# ----------------------------------------------------------------------
# Folding into metrics
# ----------------------------------------------------------------------
def layer_metrics(
    recorder: SpanRecorder,
    touched: set,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric (0 where the layer did not run).

    ``extra`` supplies the values measured outside the spans: report
    ledgers, streaming deltas, service stats, generator lateness,
    uncovered share and trace overhead.
    """
    f = fold(recorder.spans)
    renders = sum(f.get_attr(name, "frames") for name in RENDER_SPANS)
    examined = extra.get("core.select_candidate.examine_fraction", 0.0)
    score_frames = f.get_attr("oracle.score", "frames")
    values = {
        "video.batch_pixels.frames":
            f.get_attr("video.batch_pixels", "frames")
            + f.get_attr("video.pixels", "frames"),
        "video.batch_pixels.self_s":
            f.self_s.get("video.batch_pixels", 0.0)
            + f.self_s.get("video.pixels", 0.0),
        "video.renders_per_frame":
            renders / len(touched) if touched else 0.0,
        "video.frame.calls": f.calls.get("video.frame", 0),
        "video.frame.self_s": f.self_s.get("video.frame", 0.0),
        "video.diff.frames": f.get_attr("video.diff", "frames"),
        "video.diff.self_s": f.self_s.get("video.diff", 0.0),
        "models.train.self_s": f.self_s.get("models.train", 0.0),
        "models.train.sample_epochs":
            f.get_attr("models.train", "sample_epochs"),
        "models.infer.frames": f.get_attr("models.infer", "frames"),
        "models.infer.self_s": f.self_s.get("models.infer", 0.0),
        "core.phase1.wall_s": f.wall_s.get("core.phase1", 0.0),
        "core.relation_build.self_s":
            f.self_s.get("core.relation_build", 0.0),
        "core.cleaner.wall_s": f.wall_s.get("core.cleaner", 0.0),
        "core.cleaner.iterations":
            f.get_attr("core.cleaner", "iterations"),
        "core.cleaner.cleaned": f.get_attr("core.cleaner", "cleaned"),
        "core.select_candidate.calls":
            f.calls.get("core.select_candidate", 0),
        "core.select_candidate.self_s":
            f.self_s.get("core.select_candidate", 0.0),
        "core.select_candidate.examine_fraction": examined,
        "core.topk_prob.self_s": f.self_s.get("core.topk_prob", 0.0),
        "core.cdf_update.self_s": f.self_s.get("core.cdf_update", 0.0),
        "core.window_relation.self_s":
            f.self_s.get("core.window_relation", 0.0),
        "core.restrict.self_s": f.self_s.get("core.restrict", 0.0),
        "oracle.score.frames": score_frames,
        "oracle.score.self_s": f.self_s.get("oracle.score", 0.0),
        "oracle.cache.hit_ratio":
            f.get_attr("oracle.score", "hits") / score_frames
            if score_frames else 0.0,
        "api.phase1.builds": f.get_attr("api.phase1", "miss"),
        "api.execute.wall_s": f.wall_s.get("api.execute", 0.0),
        "streaming.advance.self_s":
            f.self_s.get("streaming.advance", 0.0),
        "streaming.refresh.wall_s":
            f.wall_s.get("streaming.refresh", 0.0),
        "windowed.rebuild_entry.self_s":
            f.self_s.get("windowed.rebuild_entry", 0.0),
        "windowed.window_state.self_s":
            f.self_s.get("windowed.window_state", 0.0),
        "corpus.prepare.wall_s": f.wall_s.get("corpus.prepare", 0.0),
        "corpus.federated.wall_s": f.wall_s.get("corpus.federated", 0.0),
        "parallel.pool.tasks": f.calls.get("parallel.pool.submit", 0),
        "parallel.pool.submit_s":
            f.self_s.get("parallel.pool.submit", 0.0),
        "parallel.pool.task_s": f.wall_s.get("parallel.pool.task", 0.0),
        "gateway.query.self_s": f.self_s.get("gateway.query", 0.0),
        "gateway.append.self_s": f.self_s.get("gateway.append", 0.0),
        "gateway.result.self_s": f.self_s.get("gateway.result", 0.0),
        "gateway.rejected": sum(
            f.get_attr(name, "rejected") for name in (
                "gateway.query", "gateway.append", "gateway.result",
                "gateway.other")),
    }
    for name, *_ in LAYER_METRICS:
        if name not in values:
            values[name] = float(extra.get(name, 0.0))
    return {name: float(values[name]) for name, *_ in LAYER_METRICS}

