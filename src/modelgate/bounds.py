"""Per-step upper confidence bounds on candidate-model risk.

At decision time t each live candidate gets a Hoeffding upper confidence
bound computed from the monitoring batches in a trailing window, at level
alpha/t so the union over candidates miscovers with probability at most
alpha.  The newest candidate, which was trained on part of the latest
batch, is scored on the held-out part instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import CandidateModel, LossFunction, MonitoringBatch

__all__ = [
    "RiskBoundTable",
    "window_start",
    "hoeffding_ucb",
    "LossLedger",
    "build_bound_table",
]


@dataclass(frozen=True)
class RiskBoundTable:
    """Upper confidence bounds for every live candidate at one time step,
    and the veto they imply.

    Index 0 is the abstain option, whose cost is known exactly, so
    ``bounds[0]`` equals the abstain cost.  Bounds are left unclipped.
    ``feasible`` marks the candidates whose bound is within the abstain
    cost plus ``step_margin`` (1e-12 of rounding slack); the abstain entry
    always qualifies, so the mask is never all-false.  It is the one
    veto every approval strategy obeys.

    ``stack`` views the tables of several replicates at one step as one
    table: ``bounds`` and ``feasible`` gain a leading replicate axis and
    ``step_margin`` holds one margin per replicate.
    """

    bounds: np.ndarray
    step_margin: float | np.ndarray
    feasible: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bounds = np.asarray(self.bounds, dtype=float)
        object.__setattr__(self, "bounds", bounds)
        if not 0.0 < bounds[0] < 1.0:
            raise ValueError("abstain_cost must lie in (0, 1)")
        if not self.step_margin >= 0.0:
            raise ValueError("step_margin must be >= 0")
        mask = bounds <= bounds[0] + self.step_margin + 1e-12
        mask[0] = True
        object.__setattr__(self, "feasible", mask)

    @classmethod
    def stack(cls, tables: Sequence["RiskBoundTable"]) -> "RiskBoundTable":
        """The tables of one step, one per replicate, as one stacked table.
        Each was checked and masked when it was built, so the stack takes
        their arrays as they are."""
        stacked = object.__new__(cls)
        object.__setattr__(stacked, "bounds", np.array([tb.bounds for tb in tables]))
        object.__setattr__(stacked, "step_margin", np.array([tb.step_margin for tb in tables]))
        object.__setattr__(stacked, "feasible", np.array([tb.feasible for tb in tables]))
        return stacked

    @property
    def time_index(self) -> int:
        return self.bounds.shape[-1] - 1


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


def hoeffding_ucb(mean, count, alpha: float):
    """mean + sqrt(ln(1/alpha) / (2 count)) for the mean of ``count``
    losses bounded in [0, 1]; ``mean`` and ``count`` may be arrays of one
    shape, one bound per entry."""
    count = np.asarray(count)
    if np.any(count < 1):
        raise ValueError("need at least one loss")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return mean + np.sqrt(math.log(1.0 / alpha) / (2.0 * count))


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
    validation: MonitoringBatch,
    loss: LossFunction,
    abstain_cost: float,
    *,
    alpha: float,
    window: int,
    step_margin: float,
) -> RiskBoundTable:
    """Construct the bound table for decision time t.

    ``candidates`` holds t + 1 entries, index 0 standing for abstention;
    only the newest, ``candidates[t]``, is scored here.  ``ledger`` holds
    the loss sums of monitoring batches 1..t-1 (prospective for every
    candidate older than the newest).  ``validation`` is the held-out part
    of the latest available batch, the only part of it that is prospective
    for the newest candidate, which was trained on the rest.  Older
    candidates pool at most the trailing ``window`` batches.  Each bound
    is a Hoeffding UCB at level alpha/t, so simultaneous coverage holds at
    level alpha by the union bound.  Batches are pooled with equal weight
    per observation, matching a uniform mixture when batch sizes are equal.
    The table vetoes every candidate whose bound exceeds
    ``abstain_cost + step_margin``.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if len(candidates) != t + 1:
        raise ValueError(f"candidates must hold abstention and candidates 1..{t}")
    level = alpha / t

    bounds = np.empty(t + 1)
    bounds[0] = abstain_cost

    # candidate j pools batches max(j, lo)..t-1 (``window_start``): one
    # slice of the ledger, masked where s < j.  A masked cell adds 0.0 and
    # each column adds its batches one by one in batch order.
    lo = max(1, t - window)
    older = np.arange(1, t)
    pooled = np.arange(lo, t)[:, None] >= older
    counts = (ledger.counts[lo:t, None] * pooled).sum(axis=0)
    if not counts.all():
        raise ValueError(f"candidate {older[counts == 0][0]} has an empty evaluation window")
    sums = np.where(pooled, ledger.sums[lo:t, 1:t], 0.0).sum(axis=0)

    # the newest candidate's one batch is its validation rows
    val_losses = loss.of_array(candidates[t].predict(validation.features), validation.labels)
    sums = np.append(sums, val_losses.sum())
    counts = np.append(counts, val_losses.size)
    bounds[1:] = hoeffding_ucb(sums / counts, counts, level)
    return RiskBoundTable(bounds, step_margin)
