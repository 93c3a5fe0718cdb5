"""The approval strategies: one constrained multiplicative-weights recursion
run for every (approve_prob, optimism, learn_rate) row at once.

Each strategy keeps a weight vector over {abstain, model 1, ..., model t}
backed by a Markov prior on hard approval sequences.  Each step it

  1. reweights by the exponentiated risk bounds (optimism) and zeroes any
     candidate whose bound exceeds the abstain cost plus a per-step margin,
  2. deploys the resulting status,
  3. reweights by the exponentiated empirical batch losses, and
  4. pushes the weights through the prior's transition, which admits the
     next candidate.

Constraint masks are folded into the carried weights, so a candidate that
ever violated the bound constraint loses the mass it had accumulated and
can only re-enter at the rate the prior's transitions allow.  That makes
the recursion agree exactly with brute-force enumeration over hard
approval sequences (``brute_force_status``), which is the test oracle.

A ``StrategyBank`` holds m strategies as one (m, t+1) log-weight array
with one hyperparameter triple per row; a single strategy is a one-row
bank.  The prior either stays (probability 1 - approve_prob) or hops
uniformly to a newer state, a fixed-share update (Herbster & Warmuth
1998), so one cumulative sum applies it in O(t) per row.

A bank may also stack R replicates' weights, (R, m, t+1), under one set
of rows; with a stacked table (``RiskBoundTable.stack``) each step then
costs one call for all replicates.  Every operation is elementwise or
along the last axis, so each replicate's weights are bit for bit the
ones it has in a bank of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bounds import RiskBoundTable
from .numerics import NEG_INF, logsumexp, outside, safe_log, softmax

__all__ = [
    "StrategyBank",
    "transition_matrix",
    "init_bank",
    "optimistic_step",
    "advance",
    "step",
    "REPEATED_TTEST",
    "brute_force_status",
]

RENORM_TOL = 1e-10
BRUTE_FORCE_CAP = 6

#: The repeated non-inferiority tester as a strategy row: huge optimism
#: concentrates on the lowest feasible risk bound at every step.
REPEATED_TTEST = (0.5, 1e4, 0.0)


@dataclass(frozen=True)
class StrategyBank:
    """Carried weights of m strategies entering decision time ``time_index``.

    Row i of ``log_weights`` (shape (m, time_index + 1), or (R, m,
    time_index + 1) for a stack of R replicates) is strategy i's
    pre-optimism probability over {abstain, candidates}; ``approve_prob``,
    ``optimism`` and ``learn_rate`` hold its row of hyperparameters.  The
    abstain cost and the veto come from each step's ``RiskBoundTable``.
    """

    log_weights: np.ndarray
    approve_prob: np.ndarray
    optimism: np.ndarray
    learn_rate: np.ndarray

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        object.__setattr__(self, "log_weights", lw)
        for name in ("approve_prob", "optimism", "learn_rate"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if lw.ndim not in (2, 3):
            raise ValueError("log_weights must have shape ([replicates,] m, time_index + 1)")
        if any(len(p) != lw.shape[-2] for p in (self.approve_prob, self.optimism, self.learn_rate)):
            raise ValueError("one approve_prob, optimism and learn_rate per row required")
        if outside(self.approve_prob, 0.0, 1.0):
            raise ValueError("approve_prob must lie in [0, 1]")
        if outside(np.r_[self.optimism, self.learn_rate], 0.0, np.inf):
            raise ValueError("optimism and learn_rate must be >= 0")
        err = np.abs(np.exp(logsumexp(lw)) - 1.0)
        if outside(err, 0.0, RENORM_TOL):
            raise ValueError(f"weights are not normalised (error {np.max(err):.2e})")

    @property
    def time_index(self) -> int:
        return self.log_weights.shape[-1] - 1

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def transition_matrix(t: int, approve_prob: float) -> np.ndarray:
    """Transition from states {0..t-1} into states {0..t}, shape (t+1, t).

    Column k stays at k with probability 1 - approve_prob and hops to each
    of the newer states k+1..t with probability approve_prob / (t - k).
    No backward moves, so approvals are monotone.  Every column sums to 1.
    ``advance`` applies the same map with a cumulative sum; this dense form
    is the reference the oracle and the tests use.
    """
    if t < 2:
        raise ValueError("transitions only exist from t = 2 onward")
    if not 0.0 <= approve_prob <= 1.0:
        raise ValueError("approve_prob must lie in [0, 1]")
    A = np.zeros((t + 1, t))
    for k in range(t):
        A[k, k] = 1.0 - approve_prob
        A[k + 1 : t + 1, k] = approve_prob / (t - k)
    return A


def init_bank(rows: Sequence[Sequence[float]]) -> StrategyBank:
    """Bank entering t = 1, one strategy per (approve_prob, optimism, learn_rate) row.

    The all-zero row is the fail-safe and starts on abstention, (1, 0); any
    other row starts from the even split over {abstain, model 1}.
    """
    params = np.asarray(rows, dtype=float).reshape(-1, 3)
    log_weights = np.full((len(params), 2), np.log(0.5))
    log_weights[~params.any(axis=1)] = (0.0, NEG_INF)
    a, o, l = params.T
    return StrategyBank(log_weights, a, o, l)


def _check_table(bank: StrategyBank, table: RiskBoundTable) -> None:
    if table.time_index != bank.time_index:
        raise ValueError("bound table and bank refer to different times")
    if table.bounds.shape[:-1] != bank.log_weights.shape[:-2]:
        raise ValueError("bound table and bank stack different replicates")


def optimistic_step(bank: StrategyBank, table: RiskBoundTable) -> np.ndarray:
    """Statuses deployed at time t, shape (m, t+1), or (R, m, t+1) for a
    stacked bank and table: carried weights, reweighted by the bounds.

    Each entry is proportional to w_j * exp(-optimism * bound_j), with
    the candidates the table vetoes zeroed.  Abstention always
    passes, so a row is well defined unless the prior itself puts no mass
    on any feasible entry, in which case the only feasible act is pure
    abstention.
    """
    _check_table(bank, table)
    logw = bank.log_weights - bank.optimism[:, None] * table.bounds[..., None, :]
    return softmax(np.where(table.feasible[..., None, :], logw, NEG_INF))


def advance(bank: StrategyBank, batch_losses: np.ndarray, table: RiskBoundTable) -> StrategyBank:
    """Move to time t+1: loss update, then the prior's transition.

    ``batch_losses`` holds the empirical augmented risk of every entry on
    the step's monitoring batch (index 0 is the abstain cost), one row per
    replicate for a stacked bank and table.  Each row is
    reweighted by exp(-learn_rate * loss); the step's ``table.feasible``
    zeroes the entries that violated the bound constraint first, keeping
    the recursion consistent with the sequence-level constraints (a row
    left with no mass abstains).  The transition is
    ``nxt[k] = (1 - a) v[k] + sum_{i<k} a v[i] / (t + 1 - i)``.
    """
    losses = np.asarray(batch_losses, dtype=float)
    t = bank.time_index
    _check_table(bank, table)
    if losses.shape != table.bounds.shape:
        raise ValueError("batch_losses must have length time_index + 1")
    if outside(losses, -1e-12, 1.0 + 1e-12):
        raise ValueError("losses must lie in [0, 1]")
    if outside(losses[..., 0] - table.bounds[..., 0], -1e-9, 1e-9):
        raise ValueError("entry 0 of batch_losses must equal the abstain cost")
    logv = bank.log_weights - bank.learn_rate[:, None] * losses[..., None, :]
    v = softmax(np.where(table.feasible[..., None, :], logv, NEG_INF))
    a = bank.approve_prob[:, None]
    nxt = np.zeros(v.shape[:-1] + (t + 2,))
    nxt[..., : t + 1] = (1.0 - a) * v
    nxt[..., 1:] += a * np.cumsum(v / (t + 1 - np.arange(t + 1)), axis=-1)
    total = nxt.sum(axis=-1, keepdims=True)
    if outside(total, 1.0 - RENORM_TOL, 1.0 + RENORM_TOL):
        raise ValueError("advanced weights are not normalised")
    return replace(bank, log_weights=safe_log(nxt / total))


def step(
    bank: StrategyBank,
    table: RiskBoundTable,
    batch_losses: np.ndarray,
) -> tuple[np.ndarray, StrategyBank]:
    """One full decision step: emit the statuses, then absorb the batch.

    The table's veto is applied both to the emitted statuses and to the
    carried weights, so vetoed candidates forfeit their accumulated mass.
    """
    return optimistic_step(bank, table), advance(bank, batch_losses, table)


def brute_force_status(
    t: int,
    losses_by_time: Sequence[np.ndarray],
    tables: Sequence[RiskBoundTable],
    row: Sequence[float],
    initial: tuple[float, float],
    cap: int = BRUTE_FORCE_CAP,
) -> np.ndarray:
    """Status at time t of the strategy ``row`` = (approve_prob, optimism,
    learn_rate) started from ``initial`` over {abstain, model 1}, by
    explicit enumeration of hard approval sequences.

    Every sequence (s_1, ..., s_t) with s_k in {0..k} is weighted by

        prior(s) * exp(-learn_rate * sum of its batch losses through t-1
                       - optimism * bound_t[s_t])

    and dropped entirely if any visited state is vetoed by that step's
    table.  Aggregating sequence weights by final state reproduces the
    recursion's output; this is the test oracle for the recursion and is
    deliberately independent of it.
    """
    if t > cap:
        raise ValueError(f"refusing brute force beyond t = {cap}")
    if len(losses_by_time) != t - 1:
        raise ValueError("losses_by_time must cover steps 1..t-1")
    if len(tables) != t:
        raise ValueError("tables must cover steps 1..t")

    approve_prob, optimism, learn_rate = (float(v) for v in row)
    log_init = safe_log(np.array(initial))
    log_trans = [safe_log(transition_matrix(s, approve_prob)) for s in range(2, t + 1)]

    per_state = [[] for _ in range(t + 1)]
    for seq in itertools.product(*(range(s + 1) for s in range(1, t + 1))):
        logw = log_init[seq[0]] if seq[0] <= 1 else NEG_INF
        for s in range(2, t + 1):
            logw += log_trans[s - 2][seq[s - 1], seq[s - 2]]
        for s, state_k in enumerate(seq, start=1):
            if not tables[s - 1].feasible[state_k]:
                logw = NEG_INF
                break
        if logw == NEG_INF:
            continue
        for s, losses in enumerate(losses_by_time, start=1):
            logw -= learn_rate * float(losses[seq[s - 1]])
        logw -= optimism * float(tables[-1].bounds[seq[-1]])
        per_state[seq[-1]].append(logw)

    agg = np.array([logsumexp(v) if v else NEG_INF for v in per_state])
    return softmax(agg[None, :])[0]
