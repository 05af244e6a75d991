"""The four benchmark workloads.

Each workload turns a seed into inputs, builds its state (the part
timed as set-up), runs a fixed number of ops, and checks the outputs
against an independent reference after the timed region.

* ``cold_query``: closed loop, one client. Every op opens a fresh
  session on a fresh (video, UDF) pair, so Phase 1 dominates.
* ``warm_mix``: closed loop, one client, over prebuilt sessions and a
  corpus. Ops are pure Phase 2: frame, tumbling-window,
  sliding-window and federated queries.
* ``live_window``: closed loop, one client, over a sliding-window
  stream with three standing subscriptions; ops alternate appends and
  expiry ticks.
* ``gateway_open``: open loop from one process into the gateway's
  in-process transport at a fixed offered rate, beside one stream that
  receives appends from its own thread.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

import calibrate
from repro import EverestConfig, Session, VideoCorpus
from repro.api.registry import resolve_query_spec, resolve_udf
from repro.core.result import QueryReport
from repro.gateway.app import Gateway, GatewayConfig
from repro.gateway.loadgen import InProcessTransport, zipf_pmf
from repro.metrics.quality import precision_at_k
from repro.oracle.base import exact_scores
from repro.parallel.pool import available_cpus
from repro.video.synthetic import DashcamVideo, SentimentVideo, TrafficVideo

#: (video family, UDF spec) pairs the batch workloads cycle through.
FAMILIES = (
    (TrafficVideo, "count[car]"),
    (DashcamVideo, "tailgating"),
    (SentimentVideo, "sentiment"),
)
K_CHOICES = (1, 5, 10, 25, 50)
THRES_CHOICES = (0.8, 0.9, 0.95)
#: Calibration samples (one per op) around an op that scale its time.
CALIBRATION_WINDOW = 11
#: Video content of the warm, live and gateway workloads. Their runs
#: reuse a few videos, and per-video work differs by more than any
#: regression bound between content seeds, so the benchmark seed
#: permutes their ops instead of redrawing the videos. cold_query
#: opens a fresh video per op and seeds each from the benchmark seed.
CONTENT_SEED = 20210620


def config() -> EverestConfig:
    return EverestConfig.fast()


def op_rng(seed: int, index: int) -> np.random.Generator:
    """The generator for op ``index``: ops never depend on run length."""
    return np.random.default_rng((seed, index, 0xB5))


def blocked(seed: int, index: int, shapes: Sequence[dict]) -> dict:
    """Op ``index`` drawn from fixed blocks of op shapes.

    Every block holds each shape once and the seed only permutes it,
    so the mix of a run's ops is the same for every seed; the seed
    orders the ops (and seeds cold_query's videos). Without this, seeds
    that draw heavier mixes spread the timings further than any bound
    a regression check could use.
    """
    block, slot = divmod(index, len(shapes))
    order = np.random.default_rng((seed, block, 0xB1)).permutation(
        len(shapes))
    return dict(shapes[int(order[slot])], block=block)


# ----------------------------------------------------------------------
# Outcomes and checks
# ----------------------------------------------------------------------
@dataclass
class Answer:
    """One report to check: frame answers carry their ground truth."""

    report: object
    truth: Optional[np.ndarray] = None
    tolerance: float = 0.0
    #: Frame-id range the answer may come from (sliding windows).
    lo: int = 0
    hi: Optional[int] = None
    #: Reference bytes the report must equal, when one exists.
    reference: Optional[str] = None


@dataclass
class OpOutcome:
    #: Wall seconds (open loop: from the op's due time to completion).
    latency: float
    reports: List[object] = field(default_factory=list)
    error: Optional[str] = None
    #: Anything the check needs that only exists right after the op.
    context: object = None
    #: Process CPU seconds the op took (closed loop only).
    cpu: float = 0.0


def check_answer(answer: Answer) -> Optional[str]:
    """Why the answer is wrong, or None. Precision < 1 is not wrong."""
    report = answer.report
    if answer.reference is not None and \
            report.to_json() != answer.reference:
        return "report bytes differ from the reference run"
    if answer.truth is None:
        return None
    truth = answer.truth
    hi = len(truth) if answer.hi is None else answer.hi
    ids = [int(i) for i in report.answer_ids]
    if len(ids) != min(report.k, hi - answer.lo):
        return f"answer has {len(ids)} ids for k={report.k}"
    if len(set(ids)) != len(ids):
        return "answer repeats a frame"
    if any(not answer.lo <= i < hi for i in ids):
        return "answer frame outside the queried range"
    expected = truth[ids]
    if not np.allclose(report.answer_scores, expected, rtol=0, atol=1e-9):
        return "confirmed scores differ from the ground truth"
    if report.confidence < report.thres:
        return "confidence below the guarantee"
    return None


def precision(answer: Answer) -> float:
    truth = answer.truth
    hi = len(truth) if answer.hi is None else answer.hi
    if answer.lo or hi != len(truth):
        truth = truth.copy()
        truth[:answer.lo] = -np.inf
        truth[hi:] = -np.inf
    k = min(answer.report.k, hi - answer.lo)
    return precision_at_k(answer.report.answer_ids, truth, k,
                          tolerance=answer.tolerance)


def ground_truth(scoring, video) -> np.ndarray:
    """Scan-and-test truth: the UDF applied to every frame, uncharged.

    This is the definition of the exact Top-K. ``oracle.exact_scores``
    is not used as the reference because its counting fast path
    returns zeros for a label other than the video's primary one,
    while the detector counts those objects; :func:`truth_for`
    keeps that visible in every run's stamp.
    """
    n = len(video)
    scores = [scoring([video.frame(i) for i in range(lo, min(lo + 512, n))])
              for lo in range(0, n, 512)]
    return np.concatenate(scores).astype(np.float64)


def truth_for(state: dict, scoring, video) -> np.ndarray:
    """Ground truth, counting in ``state`` where exact_scores disagrees."""
    truth = ground_truth(scoring, video)
    if not np.array_equal(exact_scores(scoring, video), truth):
        state["truth_disagreements"] = \
            state.get("truth_disagreements", 0) + 1
    return truth


def tolerance_for(scoring) -> float:
    """The experiments harness's tie band for frame answers."""
    return scoring.quantization_step or 0.0


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
@dataclass
class Timed:
    outcomes: List[OpOutcome]
    wall: float
    extra: Dict[str, float] = field(default_factory=dict)
    #: Closed loops are timed in process CPU seconds, open loops in
    #: wall seconds from each op's due time (see ``op_times``).
    open_loop: bool = False
    #: Calibration kernel CPU times, one after each closed-loop op.
    calibration: List[float] = field(default_factory=list)
    #: Open loop: share of wanted CPU time the host did not steal
    #: while the measured shots ran (``calibrate.run_share``).
    run_share: float = 1.0

    @property
    def speed_factor(self) -> float:
        """Scale from this run's host to the nominal, dedicated one."""
        if self.open_loop:
            return self.run_share
        ordered = sorted(self.calibration)
        return calibrate.NOMINAL_S / ordered[len(ordered) // 2]

    def op_times(self) -> List[float]:
        """Per-op times the end-to-end metrics use, on the nominal host.

        A closed-loop op runs on one otherwise idle client, so its
        process CPU time is its latency on a dedicated machine; unlike
        wall time it leaves out CPU time the hypervisor gives to other
        tenants. Each such op is scaled by the calibration samples
        taken around it (``calibrate``), which cancels most of the
        host's own drift in speed. An open-loop op's latency is mostly
        waiting, so it is wall time from the op's due time, scaled by
        the share of CPU time the host did not steal during the run:
        on a shared host, stolen time inflates every wait, and the
        kernel, timed on a CPU clock, cannot see it.
        """
        if self.open_loop:
            factor = self.speed_factor
            return [outcome.latency * factor for outcome in self.outcomes]
        half = CALIBRATION_WINDOW // 2
        times = []
        for index, outcome in enumerate(self.outcomes):
            near = sorted(self.calibration[max(0, index - half):
                                           index + half + 1])
            times.append(
                outcome.cpu * calibrate.NOMINAL_S / near[len(near) // 2])
        return times


def closed_loop(run_op, ops: Iterator, count: int, recorder=None) -> Timed:
    """Run the first ``count`` ops back to back, one client."""
    outcomes: List[OpOutcome] = []
    calibration: List[float] = []
    start = time.perf_counter()
    paused = 0.0
    for index, op in enumerate(itertools.islice(ops, count)):
        record = None
        if recorder is not None:
            recorder.set_op(index)
            record = recorder.open("bench.op")
        began, began_cpu = time.perf_counter(), time.process_time()
        try:
            reports, context_fn = run_op(op)
            error = None
        except Exception as exc:  # noqa: BLE001 - counted as failed
            reports, context_fn, error = [], None, repr(exc)
        cpu = time.process_time() - began_cpu
        latency = time.perf_counter() - began
        if record is not None:
            recorder.close(record)
        outcome = OpOutcome(latency=latency, reports=reports, error=error,
                            cpu=cpu)
        # Reference snapshots and the host-speed sample are taken
        # outside the timed region.
        held = time.perf_counter()
        if context_fn is not None:
            outcome.context = context_fn()
        calibration.append(calibrate.sample(time.process_time))
        paused += time.perf_counter() - held
        outcomes.append(outcome)
    wall = time.perf_counter() - start - paused
    if recorder is not None:
        recorder.set_op(None)
    return Timed(outcomes=outcomes, wall=wall, calibration=calibration)


# ----------------------------------------------------------------------
# cold_query
# ----------------------------------------------------------------------
class ColdQuery:
    """Fresh session per op: Phase 1 is nearly all of each op."""

    name = "cold_query"
    RATE = 4.5  # nominal ops per second: sets the op count
    FRAMES = 300
    SHAPES = tuple({"family": family, "udf": udf, "k": k}
                   for family, udf in FAMILIES for k in (1, 5, 10, 25))

    def build(self, seed: int):
        return {"seed": seed}

    def close(self, state) -> None:
        pass

    def op(self, seed: int, index: int) -> dict:
        op = blocked(seed, index, self.SHAPES)
        op.update(
            name=f"cold{index}",
            frames=self.FRAMES,
            video_seed=int(op_rng(seed, index).integers(1 << 30)),
            thres=THRES_CHOICES[op["block"] % len(THRES_CHOICES)],
        )
        return op

    def _video(self, op):
        return op["family"](op["name"], op["frames"], seed=op["video_seed"])

    def run(self, state, count, recorder=None):
        seed = state["seed"]
        ops = (self.op(seed, i) for i in itertools.count())

        def run_op(op):
            session = Session(self._video(op), resolve_udf(op["udf"]),
                              config=config())
            report = session.query().topk(op["k"]) \
                .guarantee(op["thres"]).deterministic_timing().run()
            return [report], None

        return closed_loop(run_op, ops, count, recorder)

    def answers(self, state, index, outcome) -> List[Answer]:
        op = self.op(state["seed"], index)
        scoring = resolve_udf(op["udf"])
        truth = truth_for(state, scoring, self._video(op))
        return [Answer(r, truth, tolerance_for(scoring))
                for r in outcome.reports]


# ----------------------------------------------------------------------
# warm_mix
# ----------------------------------------------------------------------
class WarmMix:
    """Prebuilt Phase 1; ops are Phase 2 only."""

    name = "warm_mix"
    RATE = 8.0  # nominal ops per second: sets the op count
    FRAMES = 1500
    CORPUS_FRAMES = 500
    CORPUS_MEMBERS = 3
    #: One block: 10 frame, 4 tumbling, 3 sliding and 3 corpus queries.
    SHAPES = (
        *({"kind": "frames", "target": j % 3, "k": K_CHOICES[j % 5],
           "slot": j} for j in range(10)),
        *({"kind": "windows", "target": j % 3, "size": (10, 30)[j % 2],
           "k": (1, 3, 5)[j % 3], "slot": j} for j in range(4)),
        *({"kind": "sliding", "target": j,
           "seconds": (10.0, 20.0, 30.0)[j], "k": (5, 25, 50)[j],
           "slot": j} for j in range(3)),
        *({"kind": "corpus", "target": 0, "k": K_CHOICES[j + 1],
           "slot": j} for j in range(3)),
    )

    def build(self, seed: int):
        rng = np.random.default_rng((CONTENT_SEED, 0x3A))
        sessions = []
        for family, udf in FAMILIES:
            video = family(f"warm-{family.__name__}", self.FRAMES,
                           seed=int(rng.integers(1 << 30)))
            session = Session(video, resolve_udf(udf), config=config())
            session.phase1()
            sessions.append(session)
        corpus = VideoCorpus([
            Session(TrafficVideo(f"shard{m}", self.CORPUS_FRAMES,
                                 seed=int(rng.integers(1 << 30))),
                    resolve_udf("count[car]"), config=config())
            for m in range(self.CORPUS_MEMBERS)
        ])
        corpus.prepare()
        corpus.merged_state()
        return {"seed": seed, "sessions": sessions, "corpus": corpus,
                "truth": {}}

    def close(self, state) -> None:
        pass

    def op(self, seed: int, index: int) -> dict:
        op = blocked(seed, index, self.SHAPES)
        op["thres"] = THRES_CHOICES[
            (op["slot"] + op["block"]) % len(THRES_CHOICES)]
        return op

    def _query(self, state, op):
        if op["kind"] == "corpus":
            query = state["corpus"].query()
        else:
            query = state["sessions"][op["target"]].query()
        query = query.topk(op["k"]).guarantee(op["thres"]) \
            .deterministic_timing()
        if op["kind"] == "windows":
            query = query.windows(op["size"])
        elif op["kind"] == "sliding":
            query = query.window(seconds=op["seconds"])
        return query

    def run(self, state, count, recorder=None):
        seed = state["seed"]
        ops = (self.op(seed, i) for i in itertools.count())

        def run_op(op):
            return [self._query(state, op).run()], None

        return closed_loop(run_op, ops, count, recorder)

    def _truth(self, state, op):
        key = "corpus" if op["kind"] == "corpus" else op["target"]
        if key not in state["truth"]:
            if key == "corpus":
                corpus = state["corpus"]
                truth = np.concatenate([
                    truth_for(state, corpus.scoring, member.video)
                    for member in corpus.members])
            else:
                session = state["sessions"][key]
                truth = truth_for(state, session.scoring, session.video)
            state["truth"][key] = truth
        return state["truth"][key]

    def answers(self, state, index, outcome) -> List[Answer]:
        op = self.op(state["seed"], index)
        report = outcome.reports[0]
        if op["kind"] == "windows":
            return [Answer(report)]
        scoring = state["corpus"].scoring if op["kind"] == "corpus" \
            else state["sessions"][op["target"]].scoring
        truth = self._truth(state, op)
        answer = Answer(report, truth, tolerance_for(scoring))
        if op["kind"] == "sliding":
            (answer.lo, answer.hi), = self._query(state, op).plan() \
                .frame_ranges
        return [answer]


# ----------------------------------------------------------------------
# live_window
# ----------------------------------------------------------------------
class LiveWindow:
    """Appends and expiry ticks re-certify three standing queries."""

    name = "live_window"
    RATE = 12.5  # nominal ops per second: sets the op count
    INITIAL = 600
    WINDOW_SECONDS = 20.0  # 600 frames at 30 fps
    #: Per block of four ops: append, tick, append, tick, with the
    #: sizes of each pair permuted by the seed. Appends never trail
    #: ticks, so the window never empties.
    APPENDS = (20, 40)
    TICKS = (10, 20)
    MAX_APPENDS = 200
    SUBSCRIPTIONS = ((5, 0.9), (10, 0.95), (25, 0.8))
    #: Events re-run as a from-scratch batch query after the run.
    SAMPLED = 3

    def build(self, seed: int):
        rng = np.random.default_rng((CONTENT_SEED, 0x71))
        source = TrafficVideo(
            "live", self.INITIAL + max(self.APPENDS) * self.MAX_APPENDS,
            seed=int(rng.integers(1 << 30)))
        stream = Session.open_stream(
            source, resolve_udf("count[car]"),
            initial_frames=self.INITIAL,
            window_seconds=self.WINDOW_SECONDS, config=config())
        for k, thres in self.SUBSCRIPTIONS:
            self._query(stream, k, thres).subscribe()
        return {"seed": seed, "stream": stream, "source": source}

    def close(self, state) -> None:
        pass

    @staticmethod
    def _query(session, k, thres):
        return session.query().topk(k).guarantee(thres) \
            .deterministic_timing()

    def sampled(self, seed: int, count: int) -> set:
        rng = np.random.default_rng((seed, 0x5A))
        return {int(i) for i in rng.choice(count, self.SAMPLED,
                                           replace=False)}

    def event(self, seed: int, index: int):
        """Op ``index``: ``(True, frames)`` appends, ``(False, frames)`` ticks."""
        block, slot = divmod(index, 4)
        rng = np.random.default_rng((seed, block, 0x4C))
        appending = slot % 2 == 0
        sizes = rng.permutation(self.APPENDS if appending else self.TICKS)
        return index, appending, int(sizes[slot // 2])

    def run(self, state, count, recorder=None):
        stream = state["stream"]
        sampled = self.sampled(state["seed"], count)
        ops = (self.event(state["seed"], i)
               for i in range(2 * self.MAX_APPENDS))

        def run_op(event):
            index, appending, frames = event
            result = stream.append(frames) if appending \
                else stream.tick(frames)
            fresh = (result.fresh_inferred_frames,
                     result.fresh_confirm_calls)

            def context():
                batch = stream.batch_session() if index in sampled else None
                return {"lo": stream.window_lo, "hi": stream.watermark,
                        "fresh": fresh, "batch": batch}

            return list(result.reports), context

        timed = closed_loop(run_op, ops, count, recorder)
        timed.extra["streaming.fresh_inferred_frames"] = sum(
            o.context["fresh"][0] for o in timed.outcomes if o.context)
        timed.extra["streaming.fresh_confirm_calls"] = sum(
            o.context["fresh"][1] for o in timed.outcomes if o.context)
        return timed

    def answers(self, state, index, outcome) -> List[Answer]:
        if "truth" not in state:
            state["truth"] = truth_for(
                state, state["stream"].scoring, state["source"])
        context = outcome.context
        answers = []
        for report, (k, thres) in zip(outcome.reports, self.SUBSCRIPTIONS):
            reference = None
            if context["batch"] is not None:
                reference = self._query(context["batch"], k, thres) \
                    .run().to_json()
            answers.append(Answer(
                report, state["truth"], 0.0, lo=context["lo"],
                hi=context["hi"], reference=reference))
        if len(answers) != len(self.SUBSCRIPTIONS):
            raise RuntimeError("an event did not refresh every "
                                 "subscription")
        return answers


# ----------------------------------------------------------------------
# gateway_open
# ----------------------------------------------------------------------
class GatewayOpen:
    """Open-loop multi-tenant traffic through the gateway."""

    name = "gateway_open"
    SPECS = (
        "count[car]/traffic",
        "count[person]/traffic",
        "count[car]/dashcam",
        "count[car]@{traffic,dashcam}",
    )
    STREAM_SPEC = "count[car]/traffic"
    FRAMES = 1200
    STREAM_INITIAL = 480
    APPEND = 30
    APPEND_PERIOD = 1.0
    RATE = 15.0  # offered queries per second
    TENANTS = 50
    #: Shots fired ahead of the measured ones, at the same rate, and
    #: left out of every metric. Until each pool worker has unpickled
    #: each target and cached its scores for each shot shape, a shot
    #: pays that one-off cost; those few slow shots alone would
    #: otherwise decide the p90.
    WARMUP = 100
    #: One block of 20 shots: Zipf(1.1) spec popularity over SPECS,
    #: k and guarantee cycled within each spec.
    SHAPES = tuple(
        {"spec": spec, "k": (5, 10, 25)[j % 3],
         "guarantee": (0.9, 0.95)[j % 2]}
        for spec, count in zip(SPECS, (10, 5, 3, 2))
        for j in range(count))

    def _video_kwargs(self):
        rng = np.random.default_rng((CONTENT_SEED, 0x6A))
        return {"num_frames": self.FRAMES,
                "seed": int(rng.integers(1 << 30))}

    def build(self, seed: int):
        gateway = Gateway(
            config=GatewayConfig(video_kwargs=self._video_kwargs()),
            workers=available_cpus())
        transport = InProcessTransport(gateway)
        status, body = transport.request("POST", "/stream", {
            "tenant": "owner", "stream": "s0", "spec": self.STREAM_SPEC,
            "initial_frames": self.STREAM_INITIAL, "k": 5,
            "guarantee": 0.9})
        if status != 201:
            raise RuntimeError(f"stream open failed: {status} {body}")
        ids = []
        for spec in self.SPECS:
            status, body = transport.request("POST", "/query", {
                "tenant": "warmup", "spec": spec, "k": 5, "guarantee": 0.9})
            if status != 202:
                raise RuntimeError(f"prewarm failed: {status} {body}")
            ids.append(body["id"])
        gateway.service.drain()
        for result_id in ids:
            if gateway.results.get(result_id).status != "done":
                raise RuntimeError("prewarm query failed")
        return {"seed": seed, "gateway": gateway, "transport": transport}

    def close(self, state) -> None:
        state["gateway"].close()

    def plan(self, seed: int, count: int) -> List[dict]:
        rng = np.random.default_rng((seed, 0x0F))
        tenant_p = zipf_pmf(self.TENANTS, 1.0)
        plan = []
        for i in range(count):
            body = blocked(seed, i, self.SHAPES)
            del body["block"]
            body["tenant"] = \
                f"t{int(rng.choice(self.TENANTS, p=tenant_p)):03d}"
            plan.append({"due": i / self.RATE, "body": body})
        return plan

    def run(self, state, count, recorder=None):
        gateway, transport = state["gateway"], state["transport"]
        warmup = self.WARMUP
        plan = self.plan(state["seed"], warmup + count)
        duration = len(plan) / self.RATE
        room = (self.FRAMES - self.STREAM_INITIAL) // self.APPEND
        appends = min(room, int(duration / self.APPEND_PERIOD))
        sent: List[Optional[tuple]] = [None] * len(plan)
        append_log: List[tuple] = []
        behind = [0.0]
        ticks = [None]
        start = time.monotonic() + 0.05

        def sleep_until(moment):
            delay = moment - time.monotonic()
            if delay > 0:
                time.sleep(delay)

        def fire_queries():
            for index, shot in enumerate(plan):
                due = start + shot["due"]
                sleep_until(due)
                behind[0] = max(behind[0], time.monotonic() - due)
                if index == warmup:
                    ticks[0] = calibrate.cpu_ticks()
                    if recorder is not None:
                        recorder.detached("bench.measured")
                if recorder is not None:
                    recorder.set_op(
                        index - warmup if index >= warmup else None)
                status, body = transport.request("POST", "/query",
                                                 shot["body"])
                sent[index] = (due, status, body)

        def fire_appends():
            for a in range(appends):
                sleep_until(start + (a + 0.5) * self.APPEND_PERIOD)
                status, body = transport.request("POST", "/append", {
                    "tenant": "owner", "stream": "s0",
                    "frames": self.APPEND})
                append_log.append((status, body))

        # The appends have a thread of their own, so a slow append
        # never delays a query shot.
        threads = [threading.Thread(target=fire_queries, name="gun")]
        if appends:
            threads.append(threading.Thread(target=fire_appends,
                                            name="appender"))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        gateway.service.drain()
        share = calibrate.run_share(ticks[0], calibrate.cpu_ticks())
        warmup_errors = 0
        for _, status, body in sent[:warmup]:
            warmup_errors += status != 202 or \
                gateway.results.get(body["id"]).status != "done"
        outcomes = []
        began = last_done = start + warmup / self.RATE
        for index in range(warmup, len(plan)):
            due, status, body = sent[index]
            if status != 202:
                outcomes.append(OpOutcome(
                    latency=0.0, error=f"HTTP {status}: {body}"))
                continue
            # The report as a client fetches it; the completion time
            # from the result store, since the wire carries none.
            finished_at = gateway.results.get(body["id"]).finished_at
            status, result = transport.request(
                "GET", f"/result/{body['id']}")
            if status != 200 or result["status"] != "done":
                outcomes.append(OpOutcome(
                    latency=finished_at - due,
                    error=f"HTTP {status}: {result}"))
                continue
            outcomes.append(OpOutcome(
                latency=finished_at - due,
                reports=[QueryReport.from_json(result["report_json"])],
                context=shot_key(plan[index]["body"])))
            last_done = max(last_done, finished_at)
        append_errors = sum(
            1 for status, body in append_log
            if status != 200 or not body.get("applied"))
        stats = gateway.service.stats()
        timed = Timed(outcomes=outcomes, wall=last_done - began,
                      open_loop=True, run_share=share)
        timed.extra.update({
            "loadgen.max_behind_s": behind[0],
            # Appends and warm-up shots: attempted beside the ops.
            "side_errors": append_errors + warmup_errors,
            "side_ops": len(append_log) + warmup,
            "service.builds": stats.builds,
            "service.phase1_hit_rate": stats.phase1_hit_rate,
            "service.single_flight_waits": stats.single_flight_waits,
            "service.cached_scores": stats.cached_scores,
            "service.retained_outcomes": len(gateway.service.outcomes()),
            "service.use_processes": 1.0 if stats.use_processes else 0.0,
            "streaming.fresh_inferred_frames": sum(
                body.get("fresh_inferred_frames", 0)
                for _, body in append_log if isinstance(body, dict)),
            "streaming.fresh_confirm_calls": sum(
                body.get("fresh_confirm_calls", 0)
                for _, body in append_log if isinstance(body, dict)),
        })
        return timed

    def answers(self, state, index, outcome) -> List[Answer]:
        refs = state.setdefault("references", {})
        targets = state.setdefault("targets", {})
        spec, k, thres = outcome.context
        if spec not in targets:
            target = resolve_query_spec(
                spec, config=config(),
                **self._video_kwargs())
            if isinstance(target, VideoCorpus):
                truth = np.concatenate([
                    truth_for(state, target.scoring, m.video)
                    for m in target.members])
            else:
                truth = truth_for(state, target.scoring, target.video)
            targets[spec] = (target, truth)
        target, truth = targets[spec]
        if outcome.context not in refs:
            refs[outcome.context] = target.query().topk(k).guarantee(thres) \
                .deterministic_timing().run().to_json()
        return [Answer(outcome.reports[0], truth,
                       tolerance_for(target.scoring),
                       reference=refs[outcome.context])]


def shot_key(body: dict) -> tuple:
    return (body["spec"], body["k"], body["guarantee"])


WORKLOADS = {w.name: w for w in (ColdQuery(), WarmMix(), LiveWindow(),
                                 GatewayOpen())}

