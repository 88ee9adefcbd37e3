"""Reference implementations of the training objective as numeric kernels.

The masked MSE terms are evaluated only on pixels selected by the mask, so
values anywhere else cannot influence the result (bit-exactly).  The Dice
term uses the squared-denominator soft formulation.  Degenerate cases
(empty mask, both maps all zero) return 0 with a diagnostic instead of NaN
so the kernels stay total functions.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .channels import ChannelMaps

logger = logging.getLogger("pagelayout.losses")

DEFAULT_HEIGHT_WEIGHT = 0.01


def _check_shapes(pred, gt, mask=None):
    if pred.shape != gt.shape or (mask is not None and mask.shape != pred.shape):
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")


def masked_mse(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray) -> float:
    """Weighted mean squared error over the mask; 0 when the mask is empty."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    mask = np.asarray(mask)
    _check_shapes(pred, gt, mask)
    sel = mask > 0
    if not sel.any():
        logger.debug("empty mask in masked_mse, returning 0")
        return 0.0
    w = mask[sel].astype(np.float64)
    err = pred[sel].astype(np.float64) - gt[sel].astype(np.float64)
    return float((err * err * w).sum() / w.sum())


def dice_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """Soft Dice loss 1 - 2*sum(p*g) / (sum(p^2) + sum(g^2)); 0 when both maps are empty."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    _check_shapes(pred, gt)
    denom = (pred * pred).sum() + (gt * gt).sum()
    if denom <= 0.0:
        logger.debug("both maps empty in dice_loss, returning 0")
        return 0.0
    return float(1.0 - 2.0 * (pred * gt).sum() / denom)


@dataclass(frozen=True)
class LossBreakdown:
    masked_mse_asc: float
    masked_mse_des: float
    dice_base: float
    dice_end: float
    dice_block: float
    lam: float
    total: float

    def as_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d


def total_loss(pred: ChannelMaps, gt: ChannelMaps, lam: float = DEFAULT_HEIGHT_WEIGHT) -> LossBreakdown:
    """Combined objective: lam * (height MSEs masked by gt.base) + three Dice terms (shapes checked by each kernel)."""
    mse_asc = masked_mse(pred.asc, gt.asc, gt.base)
    mse_des = masked_mse(pred.des, gt.des, gt.base)
    d_base = dice_loss(pred.base, gt.base)
    d_end = dice_loss(pred.end, gt.end)
    d_block = dice_loss(pred.block, gt.block)
    total = lam * (mse_asc + mse_des) + d_base + d_end + d_block
    return LossBreakdown(mse_asc, mse_des, d_base, d_end, d_block, lam, total)
