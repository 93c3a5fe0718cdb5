"""Domain types and risk accounting for selective model deployment.

A deployment decision at time t is a probability vector over {abstain,
model 1, ..., model t}.  Deploying that vector means: abstain with the
first weight's probability (incurring a fixed cost), otherwise predict
with the weighted average of the candidate models.  Everything here is
immutable and purely functional so replicates can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "MonitoringBatch",
    "LossFunction",
    "AugmentedLossConfig",
    "CandidateModel",
    "ModelRegistry",
    "ApprovalStatus",
    "InvalidEnsembleError",
    "pure_abstain",
    "deployed_risks",
    "cumulative_average_risk",
]

class InvalidEnsembleError(ValueError):
    """Raised when the abstain-only model is asked for a prediction."""


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
_KINDS = ("clipped_hinge", "zero_one", "scaled_absolute", "custom")


@dataclass(frozen=True)
class LossFunction:
    """A loss on (prediction, label) pairs with outputs in [0, 1].

    Kinds:
      clipped_hinge   min(1, max(0, 1 - z*y) / scale); labels in {-1, +1}.
                      The default scale 2 keeps the loss unclipped (hence
                      convex) for scores z in [-1, 1].
      zero_one        1{z*y <= 0}; labels in {-1, +1}.
      scaled_absolute min(1, |z - y| / scale).
      custom          user callable (z_array, y_array) -> array in [0, 1].
    """

    kind: str = "clipped_hinge"
    scale: float = 2.0
    fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind in ("clipped_hinge", "scaled_absolute") and self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom loss requires fn")

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
        if self.kind == "scaled_absolute":
            return np.minimum(1.0, np.abs(z - y) / self.scale)
        out = np.asarray(self.fn(z, y), dtype=float)
        if np.any(out < 0) or np.any(out > 1):
            raise ValueError("custom loss returned values outside [0, 1]")
        return out

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


@dataclass(frozen=True)
class CandidateModel:
    """A locked candidate predictor.

    ``model_id`` 0 is reserved for the abstain-only model, which has no
    predictor.  ``predictor`` maps a feature matrix (n, d) to scores (n,)
    inside the convex hull of the outcome set.
    """

    model_id: int
    predictor: Optional[Callable[[np.ndarray], np.ndarray]]
    birth_time: int = 0

    def __post_init__(self):
        if self.model_id < 0:
            raise ValueError("model_id must be >= 0")
        if self.model_id == 0 and self.predictor is not None:
            raise ValueError("model 0 always abstains and takes no predictor")
        if self.model_id > 0 and self.predictor is None:
            raise ValueError("a real candidate needs a predictor")

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.predictor is None:
            raise InvalidEnsembleError("the abstain-only model cannot predict")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.predictor(x), dtype=float).reshape(len(x))


class ModelRegistry:
    """Ordered pool of candidate models with contiguous ids 0..t."""

    def __init__(self, models: Optional[Sequence[CandidateModel]] = None):
        self._models: list[CandidateModel] = [CandidateModel(0, None)]
        for m in models or ():
            self.add(m)

    def add(self, model: CandidateModel) -> None:
        if model.model_id != len(self._models):
            raise ValueError(
                f"expected model id {len(self._models)}, got {model.model_id}"
            )
        self._models.append(model)

    def __len__(self) -> int:
        return len(self._models)

    def __getitem__(self, model_id: int) -> CandidateModel:
        return self._models[model_id]

    @property
    def latest_id(self) -> int:
        return len(self._models) - 1

    @property
    def models(self) -> tuple[CandidateModel, ...]:
        return tuple(self._models)

@dataclass(frozen=True)
class ApprovalStatus:
    """Probability vector over {abstain, model 1, ..., model t}."""

    time_index: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or len(w) != self.time_index + 1:
            raise ValueError("weights must have length time_index + 1")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to one")

    @classmethod
    def from_weights(cls, time_index: int, weights: np.ndarray) -> "ApprovalStatus":
        """Build a status from non-negative weights, normalising exactly."""
        w = np.asarray(weights, dtype=float)
        total = float(w.sum())
        if total <= 0:
            raise ValueError("weights must have positive total mass")
        return cls(time_index, w / total)

    @property
    def abstain_prob(self) -> float:
        return float(self.weights[0])

    @property
    def model_mass(self) -> float:
        return float(self.weights[1:].sum())

    def top_model(self) -> int:
        """Index with the largest weight (0 means abstain)."""
        return int(np.argmax(self.weights))


def pure_abstain(time_index: int) -> ApprovalStatus:
    """The status that abstains with certainty."""
    w = np.zeros(time_index + 1)
    w[0] = 1.0
    return ApprovalStatus(time_index, w)


def deployed_risks(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    statuses: Sequence[ApprovalStatus],
    cfg: AugmentedLossConfig,
) -> np.ndarray:
    """Expected augmented loss of each deployed status on one sample.

    ``blocks`` yields ``(scores, labels)`` row blocks that together cover
    the sample once: ``scores`` holds every real candidate's scores on the
    block's rows, shape (n_b, t).  A status deploys ``p0 * abstain_cost +
    (1 - p0) * loss(ensemble)``, where p0 is its abstention weight and the
    ensemble averages the candidates' scores under the model weights
    renormalised to sum to one; the abstention coin is integrated out
    analytically.  Each block adds its per-status loss sums (all statuses
    in one matrix product); the abstention mix is applied once, to the
    sample mean, so a status with no model mass costs exactly the abstain
    cost.  When no status has model mass the blocks are not drawn.
    """
    delta = cfg.abstain_cost
    out = np.full(len(statuses), delta)
    live = [k for k, s in enumerate(statuses) if s.model_mass > 0.0]
    if not live:
        return out
    cols = np.column_stack([statuses[k].weights[1:] / statuses[k].model_mass for k in live])
    sums = np.zeros(len(live))
    rows = 0
    for scores, labels in blocks:
        ens = scores @ cols.astype(scores.dtype, copy=False)
        sums += cfg.base.of_array(ens, labels[:, None]).sum(axis=0)
        rows += len(labels)
    mean = sums / rows
    for i, k in enumerate(live):
        p0 = statuses[k].abstain_prob
        out[k] = p0 * delta + (1.0 - p0) * float(mean[i])
    return out


def cumulative_average_risk(per_step_risks: Sequence[float]) -> float:
    """Arithmetic mean with compensated summation, reproducible to 1e-12."""
    risks = list(per_step_risks)
    if not risks:
        raise ValueError("need at least one per-step risk")
    for r in risks:
        if not 0.0 <= r <= 1.0:
            raise ValueError("risks must lie in [0, 1]")
    return math.fsum(risks) / len(risks)
