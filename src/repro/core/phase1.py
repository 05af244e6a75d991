"""Phase 1: build the initial uncertain relation D0 (paper Section 3.2).

Steps, each priced by the one :class:`ChargePlan`:

1. sample ``min(0.5% n, 30000)`` training frames plus a holdout set and
   label them with the oracle (``oracle_label``);
2. train the CMDN hyperparameter grid and keep the smallest-holdout-NLL
   model (``cmdn_train``);
3. run the difference detector to discard near-duplicate frames
   (``diff_detect`` + ``decode``);
4. run the chosen proxy over the retained frames, one 512-frame block
   at a time, to get per-frame score distributions (``cmdn_infer``)
   and quantize them into x-tuples;
5. insert the already-labelled frames as certain tuples (no oracle work
   is wasted).

:class:`Phase1Builder` is the one implementation of these steps. A
batch run (:func:`run_phase1`) is the builder over one closed video;
the streaming maintainer (DESIGN.md §7) subclasses it and folds
appends into the same difference-detector state and block cache, so a
live relation is a batch relation by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..config import EverestConfig
from ..models.cmdn import ProxyScorer
from ..models.mdn import GaussianMixture
from ..models.trainer import GridResult, train_proxy_grid
from ..oracle.base import Oracle, ScoringFunction
from ..oracle.cost import CostModel
from ..parallel.pool import thread_map
from ..video.diff import DifferenceDetector, DiffResult
from ..video.synthetic import SyntheticVideo
from .uncertain import UncertainRelation, build_relation

#: Proxy-inference granularity: the network's internal prediction
#: batch, so scoring the retained frames block by block (or caching
#: blocks across appends) gives byte-identical mixtures to one
#: whole-array call. Any other batch shape perturbs BLAS accumulation
#: in the last ulp.
INFER_BLOCK = 512


@dataclass(frozen=True)
class ChargePlan:
    """The Phase-1 charge sequence: the one place it is written.

    :class:`~repro.oracle.cost.CostModel` accumulates seconds
    additively, so only the same sequence of ``charge`` calls
    reproduces the same floats bit for bit. Batch, streaming and
    windowed ledgers all apply this plan, and the optimizer prior
    applies it with estimated counts.
    """

    train_labels: int
    holdout_labels: int
    sample_epochs: int
    num_frames: int
    #: A float in the optimizer prior (an expected retained count).
    num_retained: float

    def apply(self, cost_model: CostModel) -> None:
        cost_model.charge("oracle_label", self.train_labels)
        cost_model.charge("oracle_label", self.holdout_labels)
        cost_model.charge("decode", self.train_labels + self.holdout_labels)
        cost_model.charge("cmdn_train", self.sample_epochs)
        cost_model.charge("diff_detect", self.num_frames)
        cost_model.charge("decode", self.num_frames)
        cost_model.charge("cmdn_infer", self.num_retained)


@dataclass
class Phase1Result:
    """Everything Phase 2 (and the experiments) need from Phase 1."""

    relation: UncertainRelation
    proxy: ProxyScorer
    grid_result: GridResult
    diff_result: DiffResult
    #: Exact scores observed while labelling samples (frame -> score).
    known_scores: Dict[int, float]
    #: Mixtures for each retained frame (aligned with diff retained).
    mixtures: GaussianMixture


@dataclass
class Phase1Entry:
    """One Phase 1 build plus its cost ledger."""

    result: Phase1Result
    oracle_calls: int
    cost_model: CostModel


def concat_mixtures(parts: List[GaussianMixture]) -> GaussianMixture:
    """Row-wise concatenation (an empty mixture for no parts)."""
    if not parts:
        empty = np.zeros((0, 1))
        return GaussianMixture(empty, empty.copy(), empty.copy())
    return GaussianMixture(
        pi=np.concatenate([p.pi for p in parts]),
        mu=np.concatenate([p.mu for p in parts]),
        sigma=np.concatenate([p.sigma for p in parts]),
    )


class BlockInferenceCache:
    """Proxy inference per 512-frame block of the retained array.

    A block is keyed by its frame-id bytes and recomputed only when
    they change (new arrivals, or retain decisions flipped by a
    provisional clip); the tail partial block is naturally provisional
    until it fills. Misses are scored on ``REPRO_WORKERS`` threads
    (numpy releases the GIL in the dense kernels); the result is
    identical for every worker count.
    """

    def __init__(self):
        self._blocks: Dict[int, Tuple[bytes, GaussianMixture]] = {}

    def _lookup(self, proxy, video, retained: np.ndarray, blocks: range,
                stats=None) -> List[GaussianMixture]:
        """Mixtures of ``blocks``, inferring only the changed ones."""
        parts: List[Optional[GaussianMixture]] = []
        missing = []
        for b in blocks:
            ids = retained[b * INFER_BLOCK:(b + 1) * INFER_BLOCK]
            key = ids.tobytes()
            cached = self._blocks.get(b)
            if cached is not None and cached[0] == key:
                parts.append(cached[1])
            else:
                missing.append((len(parts), b, ids, key))
                parts.append(None)
        fresh = thread_map(
            lambda miss: proxy.predict_mixtures(video.batch_pixels(miss[2])),
            missing)
        for (slot, b, ids, key), mixture in zip(missing, fresh):
            self._blocks[b] = (key, mixture)
            # Use the locally validated mixture, never a re-read: a
            # sibling session sharing this cache at a different
            # watermark may replace the slot in the meantime.
            parts[slot] = mixture
            if stats is not None:
                stats.fresh_inferred_frames += int(ids.size)
        return parts

    def mixtures_for(self, proxy, video, retained, stats=None) \
            -> GaussianMixture:
        retained = np.asarray(retained, dtype=np.int64)
        num_blocks = -(-retained.size // INFER_BLOCK)
        parts = self._lookup(proxy, video, retained, range(num_blocks), stats)
        for b in [b for b in self._blocks if b >= num_blocks]:
            # pop, not del: a service-shared cache may see a sibling
            # session trim the same stale block concurrently.
            self._blocks.pop(b, None)
        return concat_mixtures(parts)


def _sample_indices(
    rng: np.random.Generator, num_frames: int, train: int, holdout: int
):
    total = min(train + holdout, num_frames)
    chosen = rng.choice(num_frames, size=total, replace=False)
    return chosen[:train], chosen[train:]


class Phase1Builder:
    """Phase 1 over a video that may grow.

    :meth:`bootstrap` samples, labels and trains over the current
    video, runs the difference detector and returns the entry;
    :meth:`rebuild_entry` re-runs inference (block-cached) and the
    relation build over the detector's current state. ``label_oracle``
    only reveals scores: every ledger charge comes from the
    :class:`ChargePlan`.
    """

    def __init__(
        self,
        video: SyntheticVideo,
        scoring: ScoringFunction,
        config: EverestConfig,
        unit_costs: Mapping[str, float],
        label_oracle: Oracle,
        stats=None,
    ):
        self.video = video
        self.scoring = scoring
        self.config = config
        self.unit_costs = dict(unit_costs)
        self.label_oracle = label_oracle
        self.stats = stats
        self.diff = DifferenceDetector(config.diff)
        self.blocks = BlockInferenceCache()
        self.known_scores: Dict[int, float] = {}
        self.grid_result: Optional[GridResult] = None
        self.proxy: Optional[ProxyScorer] = None
        self.train_idx = np.zeros(0, dtype=np.int64)
        self.holdout_idx = np.zeros(0, dtype=np.int64)
        self._train_scores = np.zeros(0)
        self._holdout_scores = np.zeros(0)
        self.sample_epochs = 0

    def bootstrap(self, cost_model: Optional[CostModel] = None) \
            -> Phase1Entry:
        """Steps 1-5 over the current video; charges ``cost_model``."""
        video, config = self.video, self.config
        phase1 = config.phase1
        rng = np.random.default_rng(config.seed)
        # ``sample_prefix`` restricts both the sampling pool and the
        # sample-size arithmetic to a leading slice of the video — the
        # anchor streaming sessions train against.
        pool = phase1.sample_pool(len(video))
        train_idx, holdout_idx = _sample_indices(
            rng, pool, phase1.train_sample_size(pool),
            phase1.holdout_sample_size(pool))

        # 1. Oracle-label the samples.
        train_scores = self.label_oracle.score(video, train_idx)
        holdout_scores = self.label_oracle.score(video, holdout_idx)
        for idx, score in zip(train_idx, train_scores):
            self.known_scores[int(idx)] = float(score)
        for idx, score in zip(holdout_idx, holdout_scores):
            self.known_scores[int(idx)] = float(score)
        self.train_idx, self.holdout_idx = train_idx, holdout_idx
        self._train_scores = np.asarray(train_scores, dtype=np.float64)
        self._holdout_scores = np.asarray(holdout_scores, dtype=np.float64)

        # 2. Train the (g, h) grid; select by holdout NLL.
        self.grid_result = train_proxy_grid(
            video.batch_pixels(train_idx),
            train_scores,
            video.batch_pixels(holdout_idx),
            holdout_scores,
            config=phase1,
            input_hw=video.resolution,
            seed=config.seed,
        )
        self.proxy = self.grid_result.proxy
        self.sample_epochs = self.grid_result.sample_epochs

        # 3. Difference detection over the whole video; 4 + 5 follow.
        self.diff.run(video)
        return self.rebuild_entry(cost_model)

    def rebuild_entry(self, cost_model: Optional[CostModel] = None) \
            -> Phase1Entry:
        """Steps 4-5 over the detector's current state."""
        diff_result = self.diff.result()
        retained = diff_result.retained
        mixtures = self.blocks.mixtures_for(
            self.proxy, self.video, retained, self.stats)
        relation = build_relation(
            retained,
            mixtures,
            floor=self.scoring.score_floor,
            step=self.quantization_step,
            known_scores=self.known_scores,
            truncate_sigmas=self.config.phase1.truncate_sigmas,
        )
        return self.entry(relation, mixtures, diff_result, cost_model)

    @property
    def quantization_step(self) -> float:
        step = self.config.phase1.quantization_step
        return self.scoring.step if step is None else step

    def ledger(self, num_retained: int,
               cost_model: Optional[CostModel] = None) -> CostModel:
        """``cost_model`` (default: a fresh ledger) charged by the plan."""
        if cost_model is None:
            cost_model = CostModel(self.unit_costs)
        ChargePlan(
            train_labels=int(self.train_idx.size),
            holdout_labels=int(self.holdout_idx.size),
            sample_epochs=self.sample_epochs,
            num_frames=len(self.video),
            num_retained=num_retained,
        ).apply(cost_model)
        return cost_model

    def entry(
        self,
        relation: UncertainRelation,
        mixtures: GaussianMixture,
        diff_result: DiffResult,
        cost_model: Optional[CostModel] = None,
    ) -> Phase1Entry:
        """Package a relation with the artifacts and ledger behind it."""
        result = Phase1Result(
            relation=relation,
            proxy=self.proxy,
            grid_result=self.grid_result,
            diff_result=diff_result,
            known_scores=self.known_scores,
            mixtures=mixtures,
        )
        return Phase1Entry(
            result=result,
            oracle_calls=int(self.train_idx.size + self.holdout_idx.size),
            cost_model=self.ledger(diff_result.num_retained, cost_model),
        )


def run_phase1(
    video: SyntheticVideo,
    scoring: ScoringFunction,
    config: EverestConfig,
    cost_model: CostModel,
) -> Phase1Entry:
    """Build D0 for ``video``: the builder over one closed segment.

    ``cost_model`` receives the build's charges; the builder and its
    block cache are dropped on return.
    """
    builder = Phase1Builder(
        video, scoring, config, cost_model.unit_costs,
        Oracle(scoring, cost_key="oracle_label"))
    return builder.bootstrap(cost_model)
