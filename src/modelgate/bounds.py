"""Per-step upper confidence bounds on candidate-model risk.

At decision time t each live candidate gets a Hoeffding upper confidence
bound computed from the monitoring batches in a trailing window, at level
alpha/t so the union over candidates miscovers with probability at most
alpha.  The newest candidate, which was trained on part of the latest
batch, is scored on the held-out part instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import AugmentedLossConfig, CandidateModel, MonitoringBatch

__all__ = [
    "BoundConfig",
    "RiskBoundTable",
    "window_start",
    "hoeffding_ucb",
    "LossLedger",
    "build_bound_table",
]


@dataclass(frozen=True)
class BoundConfig:
    """Settings for bound construction.

    alpha is the total per-step miscoverage budget (split across candidates
    by a Bonferroni correction); window is how many trailing batches may be
    pooled; validation_fraction is the share of the newest batch held out
    for the newest candidate.
    """

    alpha: float = 0.1
    window: int = 3
    validation_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class RiskBoundTable:
    """Upper confidence bounds for every live candidate at one time step.

    Index 0 is the abstain option, whose cost is known exactly, so
    ``bounds[0]`` equals the abstain cost.  Bounds are left unclipped; the
    feasibility comparison downstream uses the raw values.
    """

    time_index: int
    bounds: np.ndarray
    window_starts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bounds", np.asarray(self.bounds, dtype=float))
        object.__setattr__(self, "window_starts", np.asarray(self.window_starts, dtype=int))
        if len(self.bounds) != self.time_index + 1:
            raise ValueError("bounds must have length time_index + 1")
        if len(self.window_starts) != len(self.bounds):
            raise ValueError("window_starts must match bounds length")

    def feasible(self, abstain_cost: float, step_margin: float) -> np.ndarray:
        """Mask of candidates whose bound is within the per-step margin.

        The abstain entry always qualifies, so the mask is never all-false.
        """
        mask = self.bounds <= abstain_cost + step_margin + 1e-12
        mask[0] = True
        return mask


def window_start(t: int, j: int, window: int) -> int:
    """First batch index pooled for candidate j at decision time t.

    Candidates older than the newest pool the trailing ``window`` batches
    back to their birth time; the newest candidate is scored on (a held-out
    part of) the single latest batch.
    """
    if not 1 <= j <= t:
        raise ValueError("candidate index must satisfy 1 <= j <= t")
    if j == t:
        return t - 1
    return max(j, t - window)


def hoeffding_ucb(mean: float, count: int, alpha: float) -> float:
    """mean + sqrt(ln(1/alpha) / (2 count)) for the mean of ``count``
    losses bounded in [0, 1]."""
    if count < 1:
        raise ValueError("need at least one loss")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    half_width = math.sqrt(math.log(1.0 / alpha) / (2.0 * count))
    return float(mean) + half_width


class LossLedger:
    """Each monitoring batch's loss sum per candidate, and its row count.

    Row s holds batch s, recorded once at the step it arrives, for the
    candidates 1..s alive then; column 0 stays unused because abstention
    has a known cost.  The bound table pools a trailing slice of rows, so
    no candidate is ever scored on a batch twice.
    """

    def __init__(self, horizon: int):
        self.sums = np.zeros((horizon + 1, horizon + 1))
        self.counts = np.zeros(horizon + 1, dtype=int)

    def record(self, s: int, losses: np.ndarray) -> None:
        """Store batch s from its (rows, s) loss matrix over candidates 1..s."""
        if losses.ndim != 2 or losses.shape[1] != s:
            raise ValueError(f"batch {s} needs losses of candidates 1..{s}")
        self.sums[s, 1 : s + 1] = losses.sum(axis=0)
        self.counts[s] = len(losses)

    def row(self, s: int, abstain_cost: float) -> np.ndarray:
        """Mean loss on batch s of abstention (index 0) and of every candidate."""
        out = np.empty(s + 1)
        out[0] = abstain_cost
        out[1:] = self.sums[s, 1 : s + 1] / self.counts[s]
        return out


def build_bound_table(
    t: int,
    candidates: Sequence[Optional[CandidateModel]],
    ledger: LossLedger,
    newest_split: tuple[MonitoringBatch, MonitoringBatch],
    cfg: BoundConfig,
    loss_cfg: AugmentedLossConfig,
) -> RiskBoundTable:
    """Construct the bound table for decision time t.

    ``candidates`` holds t + 1 entries, index 0 standing for abstention;
    only the newest, ``candidates[t]``, is scored here.  ``ledger`` holds
    the loss sums of monitoring batches 1..t-1 (prospective for every
    candidate older than the newest).  ``newest_split`` is the (train,
    validation) partition of the latest available batch; only its
    validation part is prospective for the newest candidate.  Each bound
    is a Hoeffding UCB at level alpha/t, so simultaneous coverage holds at
    level alpha by the union bound.  Batches are pooled with equal weight
    per observation, matching a uniform mixture when batch sizes are equal.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if len(candidates) != t + 1:
        raise ValueError(f"candidates must hold abstention and candidates 1..{t}")
    level = cfg.alpha / t

    bounds = np.empty(t + 1)
    starts = np.empty(t + 1, dtype=int)
    bounds[0] = loss_cfg.abstain_cost
    starts[0] = max(0, t - cfg.window)

    # candidate j pools batches max(j, lo)..t-1 (``window_start``): one
    # slice of the ledger, masked where s < j.  A masked cell adds 0.0 and
    # each column adds its batches one by one in batch order.
    lo = max(1, t - cfg.window)
    older = np.arange(1, t)
    pooled = np.arange(lo, t)[:, None] >= older
    counts = (ledger.counts[lo:t, None] * pooled).sum(axis=0)
    if not counts.all():
        raise ValueError(f"candidate {older[counts == 0][0]} has an empty evaluation window")
    sums = np.where(pooled, ledger.sums[lo:t, 1:t], 0.0).sum(axis=0)
    # hoeffding_ucb elementwise: np.sqrt rounds correctly, like math.sqrt
    bounds[1:t] = sums / counts + np.sqrt(math.log(1.0 / level) / (2.0 * counts))
    starts[1:t] = np.maximum(older, lo)

    _, validation = newest_split
    val_losses = loss_cfg.base.of_array(candidates[t].predict(validation.features), validation.labels)
    bounds[t] = hoeffding_ucb(val_losses.mean(), val_losses.size, level)
    starts[t] = window_start(t, t, cfg.window)
    return RiskBoundTable(t, bounds, starts)
