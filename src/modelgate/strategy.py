"""One approval strategy: a constrained multiplicative-weights recursion.

A strategy keeps a weight vector over {abstain, model 1, ..., model t}
backed by a Markov prior on hard approval sequences.  Each step it

  1. reweights by the exponentiated risk bounds (optimism) and zeroes any
     candidate whose bound exceeds the abstain cost plus a per-step margin,
  2. deploys the resulting status,
  3. reweights by the exponentiated empirical batch losses, and
  4. pushes the weights through the prior's transition matrix, which
     admits the next candidate.

Constraint masks are folded into the carried weights, so a candidate that
ever violated the bound constraint loses the mass it had accumulated and
can only re-enter at the rate the prior's transitions allow.  That makes
the recursion agree exactly with brute-force enumeration over hard
approval sequences (``brute_force_status``), which is the test oracle.

Three scalar hyperparameters steer the behaviour: ``approve_prob`` (the
prior's chance of hopping to a newer model), ``optimism`` (weight on the
risk bounds), and ``learn_rate`` (weight on observed batch losses).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import RiskBoundTable
from .core import ApprovalStatus, pure_abstain
from .numerics import NEG_INF, logsumexp, safe_log, softmax

__all__ = [
    "MarkovPrior",
    "StrategyParams",
    "StrategyState",
    "transition_matrix",
    "init_state",
    "constraint_mask",
    "optimistic_step",
    "loss_update",
    "advance",
    "step",
    "REPEATED_TTEST",
    "strategy_from_row",
    "brute_force_status",
]

RENORM_TOL = 1e-10
BRUTE_FORCE_CAP = 6

#: The repeated non-inferiority tester as a strategy row: huge optimism
#: concentrates on the lowest feasible risk bound at every step.
REPEATED_TTEST = (0.5, 1e4, 0.0)


@dataclass(frozen=True)
class MarkovPrior:
    """Markov chain over approval sequences: stay put, or hop forward.

    ``approve_prob`` is the chance of moving to one of the newer candidates
    (split equally among them); ``initial`` is the starting split between
    the abstain option and the first candidate.
    """

    approve_prob: float
    initial: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if not 0.0 <= self.approve_prob <= 1.0:
            raise ValueError("approve_prob must lie in [0, 1]")
        a0, a1 = self.initial
        if a0 < 0 or a1 < 0 or abs(a0 + a1 - 1.0) > 1e-12:
            raise ValueError("initial must be a 2-point probability vector")


@dataclass(frozen=True)
class StrategyParams:
    """Hyperparameters of one approval strategy."""

    approve_prob: float
    optimism: float
    learn_rate: float
    step_margin: float
    abstain_cost: float

    def __post_init__(self):
        if not 0.0 <= self.approve_prob <= 1.0:
            raise ValueError("approve_prob must lie in [0, 1]")
        if self.optimism < 0 or self.learn_rate < 0 or self.step_margin < 0:
            raise ValueError("optimism, learn_rate and step_margin must be >= 0")
        if not 0.0 < self.abstain_cost < 1.0:
            raise ValueError("abstain_cost must lie in (0, 1)")

    @property
    def row(self) -> tuple[float, float, float]:
        return (self.approve_prob, self.optimism, self.learn_rate)


@dataclass(frozen=True)
class StrategyState:
    """Weights of one strategy entering decision time ``time_index``.

    ``log_weights`` has length time_index + 1 and describes the carried
    (pre-optimism) probability over {abstain, candidates}.
    """

    time_index: int
    log_weights: np.ndarray
    params: StrategyParams
    prior: MarkovPrior

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        object.__setattr__(self, "log_weights", lw)
        if len(lw) != self.time_index + 1:
            raise ValueError("log_weights must have length time_index + 1")
        err = abs(np.exp(logsumexp(lw)) - 1.0)
        if err > RENORM_TOL:
            raise ValueError(f"weights are not normalised (error {err:.2e})")

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def transition_matrix(t: int, approve_prob: float) -> np.ndarray:
    """Transition from states {0..t-1} into states {0..t}, shape (t+1, t).

    Column k stays at k with probability 1 - approve_prob and hops to each
    of the newer states k+1..t with probability approve_prob / (t - k).
    No backward moves, so approvals are monotone.  Every column sums to 1.
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


def init_state(params: StrategyParams, prior: MarkovPrior) -> StrategyState:
    """State entering t = 1: the prior's initial split over {abstain, model 1}."""
    if prior.approve_prob != params.approve_prob:
        raise ValueError("prior and params disagree on approve_prob")
    return StrategyState(1, safe_log(np.array(prior.initial)), params, prior)


def constraint_mask(table: RiskBoundTable, params: StrategyParams) -> np.ndarray:
    return table.feasible(params.abstain_cost, params.step_margin)


def optimistic_step(state: StrategyState, table: RiskBoundTable) -> ApprovalStatus:
    """Status deployed at time t: carried weights, reweighted by the bounds.

    Each entry is proportional to w_j * exp(-optimism * bound_j), with
    candidates failing the bound constraint zeroed.  Abstention always
    passes, so the output is well defined unless the prior itself puts no
    mass on any feasible entry, in which case the only feasible act is
    pure abstention.
    """
    if table.time_index != state.time_index:
        raise ValueError("bound table and state refer to different times")
    mask = constraint_mask(table, state.params)
    logw = state.log_weights - state.params.optimism * table.bounds
    logw = np.where(mask, logw, NEG_INF)
    if not np.isfinite(logsumexp(logw)):
        return pure_abstain(state.time_index)
    return ApprovalStatus(state.time_index, softmax(logw))


def loss_update(
    state: StrategyState,
    batch_losses: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Posterior weights after one batch: w_j * exp(-learn_rate * loss_j).

    ``batch_losses`` holds the empirical augmented risk of every entry on
    the step's monitoring batch (index 0 is the abstain cost).  ``mask``,
    when given, zeroes entries that violated the step's bound constraint
    before the update, keeping the recursion consistent with the
    sequence-level constraints.
    """
    losses = np.asarray(batch_losses, dtype=float)
    if len(losses) != state.time_index + 1:
        raise ValueError("batch_losses must have length time_index + 1")
    if np.any(losses < -1e-12) or np.any(losses > 1.0 + 1e-12):
        raise ValueError("losses must lie in [0, 1]")
    if abs(losses[0] - state.params.abstain_cost) > 1e-9:
        raise ValueError("entry 0 of batch_losses must equal the abstain cost")
    logv = state.log_weights - state.params.learn_rate * losses
    if mask is not None:
        logv = np.where(mask, logv, NEG_INF)
        if not np.isfinite(logsumexp(logv)):
            return pure_abstain(state.time_index).weights
    v = softmax(logv)
    assert abs(v.sum() - 1.0) < RENORM_TOL
    return v


def advance(
    state: StrategyState,
    batch_losses: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> StrategyState:
    """Move to time t+1: loss update, then the prior's transition matrix."""
    v = loss_update(state, batch_losses, mask)
    A = transition_matrix(state.time_index + 1, state.params.approve_prob)
    nxt = A @ v
    total = float(nxt.sum())
    assert abs(total - 1.0) < RENORM_TOL
    return StrategyState(state.time_index + 1, safe_log(nxt / total), state.params, state.prior)


def step(
    state: StrategyState,
    table: RiskBoundTable,
    batch_losses: np.ndarray,
) -> tuple[ApprovalStatus, StrategyState]:
    """One full decision step: emit the status, then absorb the batch.

    The constraint mask derived from the step's bound table is applied both
    to the emitted status and to the carried weights, so masked candidates
    forfeit their accumulated mass.
    """
    status = optimistic_step(state, table)
    mask = constraint_mask(table, state.params)
    return status, advance(state, batch_losses, mask)


def strategy_from_row(
    row: Sequence[float],
    abstain_cost: float,
    step_margin: float,
) -> tuple[StrategyParams, MarkovPrior]:
    """Build a strategy from an (approve_prob, optimism, learn_rate) triple.

    The all-zero row is the fail-safe and gets the abstain-only prior; any
    other row starts from the even split over {abstain, model 1}.
    """
    a, o, l = (float(v) for v in row)
    initial = (1.0, 0.0) if (a, o, l) == (0.0, 0.0, 0.0) else (0.5, 0.5)
    params = StrategyParams(a, o, l, step_margin, abstain_cost)
    return params, MarkovPrior(a, initial)


def brute_force_status(
    t: int,
    losses_by_time: Sequence[np.ndarray],
    tables: Sequence[RiskBoundTable],
    params: StrategyParams,
    prior: MarkovPrior,
    cap: int = BRUTE_FORCE_CAP,
) -> ApprovalStatus:
    """Status at time t by explicit enumeration of hard approval sequences.

    Every sequence (s_1, ..., s_t) with s_k in {0..k} is weighted by

        prior(s) * exp(-learn_rate * sum of its batch losses through t-1
                       - optimism * bound_t[s_t])

    and dropped entirely if any visited state violates that step's bound
    constraint.  Aggregating sequence weights by final state reproduces the
    recursion's output; this is the test oracle for the recursion and is
    deliberately independent of it.
    """
    if t > cap:
        raise ValueError(f"refusing brute force beyond t = {cap}")
    if len(losses_by_time) != t - 1:
        raise ValueError("losses_by_time must cover steps 1..t-1")
    if len(tables) != t:
        raise ValueError("tables must cover steps 1..t")

    masks = [constraint_mask(tb, params) for tb in tables]
    log_init = safe_log(np.array(prior.initial))
    log_trans = [
        safe_log(transition_matrix(s, prior.approve_prob)) for s in range(2, t + 1)
    ]

    per_state = [[] for _ in range(t + 1)]
    for seq in itertools.product(*(range(s + 1) for s in range(1, t + 1))):
        logw = log_init[seq[0]] if seq[0] <= 1 else NEG_INF
        for s in range(2, t + 1):
            logw += log_trans[s - 2][seq[s - 1], seq[s - 2]]
        for s, state_k in enumerate(seq, start=1):
            if not masks[s - 1][state_k]:
                logw = NEG_INF
                break
        if logw == NEG_INF:
            continue
        for s, losses in enumerate(losses_by_time, start=1):
            logw -= params.learn_rate * float(losses[seq[s - 1]])
        logw -= params.optimism * float(tables[-1].bounds[seq[-1]])
        per_state[seq[-1]].append(logw)

    agg = np.array([
        logsumexp(np.array(v)) if v else NEG_INF for v in per_state
    ])
    if not np.isfinite(logsumexp(agg)):
        return pure_abstain(t)
    return ApprovalStatus(t, softmax(agg))
