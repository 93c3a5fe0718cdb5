"""Domain types and risk accounting for selective model deployment.

A deployment decision at time t is a probability vector over {abstain,
model 1, ..., model t}.  Deploying that vector means: abstain with the
first weight's probability (incurring a fixed cost), otherwise predict
with the weighted average of the candidate models.  Everything here is
immutable and purely functional so replicates can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .numerics import outside

__all__ = [
    "MonitoringBatch",
    "LossFunction",
    "AugmentedLossConfig",
    "CandidateModel",
    "candidate_scores",
    "affine_loss_mean",
    "deployed_risks",
    "mixture_risks",
]

@dataclass(frozen=True)
class MonitoringBatch:
    """The labelled observations collected at one time step.

    ``features`` has shape (n, d) and ``labels`` shape (n,); rows are IID
    draws from the step's data distribution.
    """

    time_index: int
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=float))
        if self.time_index < 0:
            raise ValueError("time_index must be >= 0")
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be (n, d) and labels (n,)")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels must have equal length")
        if len(self.labels) < 1:
            raise ValueError("a batch needs at least one observation")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

_MARGIN_KINDS = ("clipped_hinge", "zero_one")
_KINDS = ("clipped_hinge", "zero_one", "scaled_absolute")


@dataclass(frozen=True)
class LossFunction:
    """A loss on (prediction, label) pairs with outputs in [0, 1].

    Kinds:
      clipped_hinge   min(1, max(0, 1 - z*y) / scale); labels in {-1, +1}.
                      A scale of 2 or more keeps the loss unclipped, hence
                      affine in z, for scores z in [-1, 1] (see ``affine``).
      zero_one        1{z*y <= 0}; labels in {-1, +1}.
      scaled_absolute min(1, |z - y| / scale).
    """

    kind: str = "clipped_hinge"
    scale: float = 2.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind in ("clipped_hinge", "scaled_absolute") and self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def affine(self) -> bool:
        """True when the loss is exactly ``(1 - z*y) / scale`` for every score
        z in [-1, 1] and label y in {-1, +1}, so the loss of an ensemble is
        the same mixture of its members' losses: the clipped hinge with
        scale >= 2 never clips there."""
        return self.kind == "clipped_hinge" and self.scale >= 2.0

    def check_labels(self, y: np.ndarray) -> None:
        if self.kind in _MARGIN_KINDS and not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError(f"{self.kind} loss requires labels in {{-1, +1}}")

    def of_array(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised loss; broadcasting follows numpy rules."""
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        self.check_labels(y)
        if self.kind == "clipped_hinge":
            return np.clip((1.0 - z * y) / self.scale, 0.0, 1.0)
        if self.kind == "zero_one":
            return (z * y <= 0).astype(float)
        return np.minimum(1.0, np.abs(z - y) / self.scale)

    def __call__(self, z: float, y: float) -> float:
        return float(self.of_array(np.asarray(z, dtype=float), np.asarray(y, dtype=float)))


@dataclass(frozen=True)
class AugmentedLossConfig:
    """Base loss plus the fixed cost charged when the system abstains."""

    base: LossFunction
    abstain_cost: float

    def __post_init__(self):
        if not 0.0 < self.abstain_cost < 1.0:
            raise ValueError("abstain_cost must lie in (0, 1)")


def candidate_scores(coefs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every candidate's score ``2 * sigmoid(x @ w + b) - 1`` on the rows of
    ``x``, one column (w, b) of ``coefs`` (shape (d + 1, t), intercept
    last) each: shape (n, t), in the dtype of ``x``.

    The one scorer of candidate models.  ``2 sigma - 1`` is applied in
    place on the margins, so only one (n, t) array is allocated.
    """
    out = x @ coefs[:-1]
    out += coefs[-1]
    np.negative(out, out=out)
    # exp may overflow to inf for very negative margins; 1/(1+inf) is the
    # correct 0
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    out *= 2.0
    out -= 1.0
    return out


@dataclass(frozen=True)
class CandidateModel:
    """A locked candidate: one fitted logistic coefficient vector (d + 1,),
    intercept last."""

    coef: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The candidate's scores on the rows of ``x``, shape (n,)."""
        return candidate_scores(self.coef[:, None], x)[:, 0]


def _check_statuses(statuses) -> np.ndarray:
    """A (k, t+1) status matrix as float64, each row a probability vector
    over {abstain, model 1, ..., model t}; raises ``ValueError`` otherwise."""
    w = np.asarray(statuses, dtype=float)
    if w.ndim != 2 or w.shape[1] < 2:
        raise ValueError("statuses must have shape (k, t + 1) with t >= 1")
    if outside(w, 0.0, np.inf):
        raise ValueError("status weights must be non-negative")
    if outside(w.sum(axis=1), 1.0 - 1e-9, 1.0 + 1e-9):
        raise ValueError("each status must sum to one")
    return w


def _status_columns(statuses) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check a (k, t+1) status matrix and split it into the abstention
    weights p0 (k,), the indices of the statuses with model mass, and their
    model weights renormalised to sum to one, one column per such status
    (shape (t, live))."""
    w = _check_statuses(statuses)
    mass = w[:, 1:].sum(axis=1)
    live = np.flatnonzero(mass > 0.0)
    # C order: a Fortran-order operand takes another BLAS path, whose
    # float32 rounding differs by up to 1e-8 in the risks
    cols = np.ascontiguousarray((w[live, 1:] / mass[live, None]).T)
    return w[:, 0], live, cols


def affine_loss_mean(label_scores, scale: float):
    """Mean affine loss ``(1 - z*y) / scale`` of rows whose label-weighted
    scores ``z*y`` average ``label_scores``."""
    return (1.0 - label_scores) / scale


def mixture_risks(statuses: np.ndarray, risk_row: np.ndarray) -> np.ndarray:
    """Expected augmented loss of each deployed status under an affine loss
    (``LossFunction.affine``): ``statuses @ risk_row``.

    Row k of ``statuses`` (shape (k, t+1)) is a probability vector over
    {abstain, model 1, ..., model t}; ``risk_row`` (shape (t+1,)) holds the
    abstain cost, then each real candidate's risk on the same data, all in
    [0, 1].  An affine loss of the ensemble is the same mixture of its
    candidates' losses, so a status with abstention weight p0 and model
    weights w costs ``p0 * abstain_cost + sum_j w_j R_j``; pure abstention
    costs exactly the abstain cost.  Raises ``ValueError`` for a status
    that is not a probability vector or a row of the wrong length or
    outside [0, 1] (nan included).
    """
    w = _check_statuses(statuses)
    row = np.asarray(risk_row, dtype=float)
    if row.shape != (w.shape[1],):
        raise ValueError("risk_row must have one entry per candidate plus abstain")
    if outside(row, 0.0, 1.0):
        raise ValueError("risks must lie in [0, 1]")
    return w @ row


def deployed_risks(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    statuses: np.ndarray,
    cfg: AugmentedLossConfig,
) -> np.ndarray:
    """Expected augmented loss of each deployed status on one sample, for
    any loss.

    Row k of ``statuses`` (shape (k, t+1)) is a probability vector over
    {abstain, model 1, ..., model t}.  ``blocks`` yields ``(scores,
    labels)`` row blocks that together cover the sample once: ``scores``
    holds every real candidate's scores on the block's rows, shape (n_b, t).
    A status deploys ``p0 * abstain_cost + (1 - p0) * loss(ensemble)``,
    where p0 is its abstention weight and the ensemble averages the
    candidates' scores under the model weights renormalised to sum to one;
    the abstention coin is integrated out analytically.  Each block scores
    every status's ensemble in one matrix product and sums its losses.  The
    abstention mix is applied once, to the sample mean, so a status with no
    model mass costs exactly the abstain cost.  When no status has model
    mass the blocks are not drawn.
    """
    p0, live, cols = _status_columns(statuses)
    delta = cfg.abstain_cost
    out = np.full(len(p0), delta)
    if not live.size:
        return out
    acc = np.zeros(len(live))
    rows = 0
    for scores, labels in blocks:
        if scores.shape[1] != len(cols):
            raise ValueError("statuses must have one entry per candidate plus abstain")
        ens = scores @ cols.astype(scores.dtype, copy=False)
        acc += cfg.base.of_array(ens, labels[:, None]).sum(axis=0)
        rows += len(labels)
    out[live] = p0[live] * delta + (1.0 - p0[live]) * (acc / rows)
    return out
