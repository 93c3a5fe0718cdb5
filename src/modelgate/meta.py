"""Meta-forecaster over approval strategies, and its average-risk guarantee.

The forecaster keeps multiplicative weights over m candidate strategies
(strategy 0 is always the abstain-only fail-safe), deploys the weighted
mixture of their statuses, and reweights each strategy by the
exponentiated empirical risk its own status incurred on the latest batch.

The forecaster side takes a leading replicate axis: a ``MetaState``
built by ``init_meta`` with one rate per replicate carries R replicates'
weights and banks, and ``strategy_statuses``, ``combine`` and
``meta_advance`` then serve every replicate in one call, each replicate's
values bit for bit the ones it has on its own.

The guarantee side bounds the expected average risk of that forecaster
when per-step distribution drift is bounded and the risk bounds used by
the strategies have known coverage.  It is used to pick the largest
meta learning rate that still certifies a target average risk.
``RiskBoundInputs`` holds the problem alone; the rate is an argument of
every bound function, so the rate solver passes each rate it tries as it
is.  The bound's formula runs on numpy alone, for one slack or an array of
them, and its free slack is chosen on a grid, then on a refined grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .bounds import RiskBoundTable
from .numerics import log_normalize, outside
from .strategy import StrategyBank, init_bank, optimistic_step, advance as strategy_advance

__all__ = [
    "MetaState",
    "RiskBoundInputs",
    "InfeasibleRateError",
    "init_meta",
    "strategy_statuses",
    "combine",
    "meta_update",
    "meta_advance",
    "tail_alpha",
    "mgf_rate",
    "risk_bound",
    "optimize_slack",
    "max_learning_rate",
    "classical_ewaf_bound",
]

RATE_CAP = 20.0


class InfeasibleRateError(ValueError):
    """No learning rate certifies the requested average-risk target."""


@dataclass(frozen=True)
class MetaState:
    """Forecaster weights plus the strategy bank at one time step.

    For a stack of R replicates ``log_weights`` has shape (R, m), the bank
    is stacked and ``meta_rate`` holds one rate per replicate.
    """

    log_weights: np.ndarray
    meta_rate: float | np.ndarray
    bank: StrategyBank

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        object.__setattr__(self, "log_weights", lw)
        if lw.shape != self.bank.log_weights.shape[:-1]:
            raise ValueError("one weight per strategy required")
        rate = np.asarray(self.meta_rate)
        if rate.shape != lw.shape[:-1]:
            raise ValueError("one meta_rate per replicate required")
        if rate.min() < 0:
            raise ValueError("meta_rate must be >= 0")
        b = self.bank
        if (b.approve_prob[0], b.optimism[0], b.learn_rate[0]) != (0.0, 0.0, 0.0):
            raise ValueError("strategy 0 must be the abstain-only fail-safe")

    @property
    def time_index(self) -> int:
        return self.bank.time_index

    @property
    def weights(self) -> np.ndarray:
        return np.exp(log_normalize(self.log_weights))


def init_meta(rows: Sequence[Sequence[float]], meta_rate: float | np.ndarray) -> MetaState:
    """Uniform weights over the given (approve_prob, optimism, learn_rate) rows.

    Row 0 must be the all-zero fail-safe.  A ``meta_rate`` array of shape
    (R,) starts a stack of R replicates, one rate each.
    """
    if len(rows) < 1:
        raise ValueError("need at least one strategy row")
    m = len(rows)
    lead = np.shape(meta_rate)
    bank = init_bank(rows)
    if lead:
        bank = replace(bank, log_weights=np.broadcast_to(bank.log_weights, lead + bank.log_weights.shape).copy())
    return MetaState(np.full(lead + (m,), -math.log(m)), meta_rate, bank)


def strategy_statuses(state: MetaState, table: RiskBoundTable) -> np.ndarray:
    """Every strategy's deployed status, shape (m, t+1), or (R, m, t+1)
    for a stacked state and table."""
    return optimistic_step(state.bank, table)


def combine(statuses: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The weighted mixture of the rows of ``statuses``, normalised exactly.

    A stack of statuses (R, m, n) with weights (R, m) gives one mixture per
    replicate, each from its own vector-matrix product: a batched product
    may sum in another order.
    """
    statuses = np.asarray(statuses, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if statuses.ndim not in (2, 3) or weights.shape != statuses.shape[:-1]:
        raise ValueError("one weight per status row required")
    if statuses.ndim == 2:
        mixed = weights @ statuses
    else:
        mixed = np.array([w @ s for w, s in zip(weights, statuses)])
    total = mixed.sum(axis=-1, keepdims=True)
    if not total.min() > 0:
        raise ValueError("weights must have positive total mass")
    return mixed / total


def _updated_log_weights(state: MetaState, strategy_batch_risks: np.ndarray) -> np.ndarray:
    risks = np.asarray(strategy_batch_risks, dtype=float)
    if risks.shape != state.log_weights.shape:
        raise ValueError("one risk per strategy required")
    if outside(risks, -1e-12, 1.0 + 1e-12):
        raise ValueError("risks must lie in [0, 1]")
    rate = np.asarray(state.meta_rate)[..., None]
    return log_normalize(state.log_weights - rate * risks)


def meta_update(state: MetaState, strategy_batch_risks: np.ndarray) -> MetaState:
    """Reweight strategies by their deployed empirical risk on one batch
    (one row of risks per replicate for a stack)."""
    return replace(state, log_weights=_updated_log_weights(state, strategy_batch_risks))


def meta_advance(
    state: MetaState,
    table: RiskBoundTable,
    batch_losses: np.ndarray,
    strategy_batch_risks: np.ndarray,
) -> MetaState:
    """Absorb the step's batch: update the weights (``meta_update``),
    advance the bank."""
    logw = _updated_log_weights(state, strategy_batch_risks)
    return replace(state, log_weights=logw, bank=strategy_advance(state.bank, batch_losses, table))


# ---------------------------------------------------------------------------
# Average-risk guarantee


@dataclass(frozen=True)
class RiskBoundInputs:
    """Ingredients of the average-risk guarantee, everything but the rate.

    ``batch_size`` / ``holdout_size`` of None mean infinite data (their
    concentration terms drop out).  The tail-miscoverage probability follows
    from the slack (``tail_alpha``), the free analysis parameter trading
    coverage level against bound tightness, and ``risk_bound`` minimises the
    bound over it at a given rate.
    """

    abstain_cost: float
    step_margin: float
    drift: float
    cover_alpha: float
    n_strategies: int
    horizon: int
    batch_size: Optional[int] = None
    holdout_size: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.cover_alpha <= 1.0:
            raise ValueError("cover_alpha must lie in [0, 1]")
        if self.n_strategies < 1 or self.horizon < 1:
            raise ValueError("n_strategies and horizon must be >= 1")
        if self.abstain_cost + self.step_margin + self.drift <= 0:
            raise ValueError("abstain_cost + step_margin + drift must be > 0")


def tail_alpha(
    slack: float | np.ndarray,
    batch_size: Optional[int],
    holdout_size: Optional[int],
    horizon: int,
) -> float | np.ndarray:
    """Probability any risk bound fails by more than ``slack``.

    (T - 1) exp(-8 z^2 n) + exp(-8 z^2 n'), capped at 1; a Hoeffding tail
    for each of the monitored candidates plus one for the held-out newest.
    Infinite sample sizes contribute nothing.  So slack 0 gives 1 when a
    finite holdout size is given, or a finite batch size with T >= 2, and 0
    when neither is (no sampled data: the tail is 0 at every slack).
    ``slack`` is a float or an array of slacks, evaluated elementwise, and
    the result has the slack's shape.
    """
    if np.any(slack < 0):
        raise ValueError("slack must be >= 0")
    total = np.zeros(np.shape(slack))
    if batch_size is not None:
        total += (horizon - 1) * np.exp(-8.0 * slack * slack * batch_size)
    if holdout_size is not None:
        total += np.exp(-8.0 * slack * slack * holdout_size)
    return np.minimum(1.0, total)


def _rate_term(rate: float, s: float | np.ndarray) -> float | np.ndarray:
    return (np.exp(-rate * s) - 1.0) / s


def mgf_rate(inputs: RiskBoundInputs, rate: float, slack: float | np.ndarray) -> float | np.ndarray:
    """The (negative) exponential-moment coefficient of the guarantee.

    A three-case mixture of (exp(-rate * s) - 1) / s evaluated at
    s = cost + margin + drift, at s + slack, and at 1, weighted by the
    coverage split (1 - a1 - a2, a1, a2) with a2 = ``tail_alpha(slack)``.
    Negative for any positive rate (0 only where exp(-rate * s) rounds to
    1, for rate * s below about 1.1e-16); a rate <= 0 is rejected.
    ``slack`` is a float or an array of slacks.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0")
    a1 = inputs.cover_alpha
    a2 = tail_alpha(slack, inputs.batch_size, inputs.holdout_size, inputs.horizon)
    s0 = inputs.abstain_cost + inputs.step_margin + inputs.drift
    w0 = np.maximum(0.0, 1.0 - a1 - a2)
    c = _rate_term(rate, s0) * w0
    c += _rate_term(rate, s0 + slack) * a1
    c += (math.exp(-rate) - 1.0) * a2
    return c


def _bound_at(inputs: RiskBoundInputs, rate: float, slack: float | np.ndarray) -> float | np.ndarray:
    """The bound at one slack or, elementwise, at an array of slacks.
    Raises ValueError where ``mgf_rate`` rounds to 0, which would give -inf."""
    c = mgf_rate(inputs, rate, slack)
    if np.any(c == 0.0):
        s0 = inputs.abstain_cost + inputs.step_margin + inputs.drift
        raise ValueError(
            f"the exponential-moment coefficient rounds to 0 at rate {rate!r}"
            f" and abstain cost + margin + drift {s0!r}"
        )
    numer = rate * inputs.abstain_cost + math.log(inputs.n_strategies) / inputs.horizon
    if inputs.batch_size is not None:
        numer += rate**2 / (8.0 * inputs.batch_size)
    return -numer / c


def optimize_slack(inputs: RiskBoundInputs, rate: float, grid: int = 200) -> tuple[float, float]:
    """Minimise the bound at ``rate`` over slack in [0, 1]; returns
    ``(slack, bound)``.

    Two array passes of ``grid + 1`` slacks each: the whole interval, then
    the span between the first pass's argmin and its two neighbours (clipped
    to [0, 1]).  Every slack gives a valid bound, so the second pass's
    minimum is a certificate.  With no sampled data the tail is 0 at every
    slack, the bound rises with the slack, and slack 0 is the exact optimum.
    """
    zs = np.linspace(0.0, 1.0, grid + 1)
    k = int(np.argmin(_bound_at(inputs, rate, zs)))
    zs = np.linspace(zs[max(0, k - 1)], zs[min(grid, k + 1)], grid + 1)
    vals = _bound_at(inputs, rate, zs)
    k = int(np.argmin(vals))
    return float(zs[k]), float(vals[k])


def risk_bound(inputs: RiskBoundInputs, rate: float) -> float:
    """Upper bound on the forecaster's expected average risk at ``rate``.

    Evaluates -(rate * cost + ln(m)/T + rate^2/(8 n)) / c at the slack
    ``optimize_slack`` picks and returns it as a Python float.  The value is
    reported untruncated and can exceed 1 for small rates.
    """
    return optimize_slack(inputs, rate)[1]


@lru_cache(maxsize=64)
def max_learning_rate(
    target: float,
    inputs: RiskBoundInputs,
    cap: float = RATE_CAP,
    grid: int = 200,
) -> float:
    """Largest rate in (0, cap] whose bound ``risk_bound(inputs, rate)``
    stays at or below target.

    The bound diverges at both ends of the rate axis, so feasibility is an
    interior interval: an ascending grid scan stops at the first infeasible
    rate after a feasible one, and bisection polishes that upper edge until
    the midpoint rounds onto an end.  Raises InfeasibleRateError when no
    rate qualifies.  Each distinct ``(target, inputs)`` is solved once: the
    replicates of a replayed stream with a fixed abstain cost all ask for
    the same rate.
    """
    lo = hi = None
    for i in range(grid):
        rate = cap * (i + 1) / grid
        if risk_bound(inputs, rate) <= target:
            lo = rate
        elif lo is not None:
            hi = rate
            break
    if lo is None:
        raise InfeasibleRateError(
            f"no rate in (0, {cap}] certifies average risk <= {target:.6g}"
        )
    if hi is None:
        return cap
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if risk_bound(inputs, mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def classical_ewaf_bound(rate: float, abstain_cost: float, n_strategies: int, horizon: int) -> float:
    """Textbook exponentially-weighted-forecaster bound, for comparison:
    (rate * cost + ln(m) / T) / (1 - exp(-rate)).  Raises ValueError for a
    rate <= 0, or one so small (below about 1.1e-16) that exp(-rate)
    rounds to 1."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if math.exp(-rate) == 1.0:
        raise ValueError(f"1 - exp(-rate) rounds to 0 at rate {rate!r}")
    return (rate * abstain_cost + math.log(n_strategies) / horizon) / (1.0 - math.exp(-rate))
