"""Difference detector (paper Section 3.5).

Everest discards frames that are too similar to a nearby retained
frame before building the uncertain relation. This (a) removes
uninformative frames and (b) approximates independence between the
retained frames, justifying the x-tuple model.

Following the paper (and NoScope), similarity is mean-squared-error
between pixel arrays. To parallelize, the video is split into clips of
``c`` frames; every frame in a clip is compared against the clip's
middle frame and discarded when the MSE falls below the threshold. The
middle frame is always retained and *represents* the discarded frames,
which is what the window aggregation (Section 3.4) builds its segments
from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..config import DiffDetectorConfig
from ..errors import ConfigurationError
from .synthetic import SyntheticVideo


@dataclass(frozen=True)
class DiffResult:
    """Output of the difference detector over one video.

    Attributes
    ----------
    retained:
        Sorted frame indices kept for the uncertain relation.
    representative:
        ``representative[i]`` is the retained frame index that stands in
        for frame ``i`` (``i`` itself when ``i`` is retained).
    num_frames:
        Total frames in the source video.
    """

    retained: np.ndarray
    representative: np.ndarray
    num_frames: int

    @property
    def num_retained(self) -> int:
        return int(self.retained.size)

    @property
    def reduction_ratio(self) -> float:
        """Fraction of frames discarded, in ``[0, 1)``."""
        if self.num_frames == 0:
            return 0.0
        return 1.0 - self.num_retained / self.num_frames

    def segments(self) -> List[np.ndarray]:
        """Maximal runs of consecutive frames sharing a representative.

        The window model (Section 3.4) treats each segment as one
        independent retained frame weighted by the segment length.
        """
        if self.num_frames == 0:
            return []
        change = np.flatnonzero(np.diff(self.representative)) + 1
        return np.split(np.arange(self.num_frames), change)


class DifferenceDetector:
    """MSE-based duplicate-frame suppressor with clip-level splitting.

    Clip boundaries are multiples of ``clip_size`` in global frame
    coordinates, and a clip's decisions depend only on its own frames.
    So the detector can also follow a growing video: :meth:`extend`
    reprocesses only the clips that gained frames — the one
    *provisional* clip straddling the old end (its anchor moves when
    it grows, which can flip retain decisions) plus the arrivals — and
    :meth:`run` is one extension from an empty state over the whole
    video.
    """

    def __init__(self, config: DiffDetectorConfig = DiffDetectorConfig()):
        self.config = config
        self.representative = np.zeros(0, dtype=np.int64)
        self.retained_mask = np.zeros(0, dtype=bool)
        self.processed = 0

    def mse(self, a: np.ndarray, b: np.ndarray) -> float:
        """Mean squared error between two equally shaped frames."""
        diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
        return float(np.mean(diff * diff))

    def run(self, video: SyntheticVideo) -> DiffResult:
        """Detect near-duplicate frames across the whole video.

        Every clip is (re)processed, independently of any earlier
        state (the paper runs clips in parallel; the computation is
        identical either way and this implementation is vectorized
        within a clip).
        """
        self.processed = 0
        self.extend(video, len(video))
        return self.result()

    def extend(self, video: SyntheticVideo, watermark: int) -> int:
        """Fold frames ``[processed, watermark)`` in.

        Returns the first frame index whose retain decision may have
        changed.
        """
        c = self.config.clip_size
        threshold = self.config.mse_threshold
        if watermark < self.processed:
            raise ConfigurationError("watermark cannot move backwards")
        grow = watermark - self.representative.size
        if grow > 0:
            self.representative = np.concatenate(
                [self.representative, np.zeros(grow, dtype=np.int64)])
            self.retained_mask = np.concatenate(
                [self.retained_mask, np.zeros(grow, dtype=bool)])
        # Reprocess from the start of the clip containing the old end:
        # that clip was provisional (its anchor can move).
        start = self.processed - self.processed % c
        for s in range(start, watermark, c):
            indices = np.arange(s, min(s + c, watermark), dtype=np.int64)
            keep = _process_clip(video, indices, threshold)
            self.retained_mask[indices] = keep
            self.representative[indices] = np.where(
                keep, indices, indices[len(indices) // 2])
        self.processed = watermark
        return start

    def result(self) -> DiffResult:
        return DiffResult(
            retained=np.flatnonzero(self.retained_mask[:self.processed]),
            representative=self.representative[:self.processed].copy(),
            num_frames=self.processed,
        )


def _process_clip(
    video: SyntheticVideo, indices: np.ndarray, threshold: float
) -> np.ndarray:
    """Keep mask for one clip: MSE against the middle-frame anchor."""
    pixels = video.batch_pixels(indices).astype(np.float64)
    mid = len(indices) // 2
    anchor = pixels[mid]
    errors = np.mean((pixels - anchor[None, :, :]) ** 2, axis=(1, 2))
    keep = errors >= threshold
    keep[mid] = True  # the anchor is always retained
    return keep
