"""Processing-scale estimation from a first-pass detection.

The detector performs best when the median text ascender is near
``TARGET_ASCENDER`` pixels; ``estimate_scale`` derives the resampling
factor that moves a page toward that size.  Actual raster resampling is the
caller's job; this module only computes factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import Rng
from .channels import ChannelMaps

TARGET_ASCENDER = 12.0
DEFAULT_SCALE_THRESHOLD = 0.3  # raw base-channel value that marks a text pixel


@dataclass(frozen=True)
class ScaleEstimate:
    median_ascender: float
    scale_factor: float
    target_ascender: float = TARGET_ASCENDER

    def as_dict(self) -> dict:
        return {
            "median_ascender": self.median_ascender,
            "scale_factor": self.scale_factor,
            "target_ascender": self.target_ascender,
        }


def estimate_scale(maps: ChannelMaps, raw_threshold: float = DEFAULT_SCALE_THRESHOLD) -> ScaleEstimate:
    """Median ascender over pixels where the raw base channel passes the threshold."""
    mask = maps.base >= raw_threshold
    if not mask.any():
        raise ValueError("no text detected")
    med = float(np.median(maps.asc[mask]))
    if med <= 0:
        raise ValueError("no text detected")
    return ScaleEstimate(med, TARGET_ASCENDER / med)


def sample_scale_augmentation(seed: int, count: int | None = None):
    """Random training-scale factor(s) 2**x with x ~ N(0, 1), seeded.

    Returns a float for ``count=None``, the first factor of ``count=1``,
    otherwise an ndarray of ``count`` factors from the same deterministic
    stream.
    """
    factors = 2.0 ** Rng(seed).normal_array(1 if count is None else count)
    return float(factors[0]) if count is None else factors
