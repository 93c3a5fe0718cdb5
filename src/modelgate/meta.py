"""Meta-forecaster over approval strategies, and its average-risk guarantee.

The forecaster keeps multiplicative weights over m candidate strategies
(strategy 0 is always the abstain-only fail-safe), deploys the weighted
mixture of their statuses, and reweights each strategy by the
exponentiated empirical risk its own status incurred on the latest batch.

The guarantee side bounds the expected average risk of that forecaster
when per-step distribution drift is bounded and the risk bounds used by
the strategies have known coverage.  It is used to pick the largest
meta learning rate that still certifies a target average risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .bounds import RiskBoundTable
from .core import ApprovalStatus
from .numerics import log_normalize
from .strategy import (
    StrategyState,
    constraint_mask,
    init_state,
    optimistic_step,
    advance as strategy_advance,
    strategy_from_row,
)

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
    """Forecaster weights plus the per-strategy states at one time step."""

    time_index: int
    log_weights: np.ndarray
    meta_rate: float
    strategies: tuple[StrategyState, ...]

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        object.__setattr__(self, "log_weights", lw)
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if len(lw) != len(self.strategies):
            raise ValueError("one weight per strategy required")
        if self.meta_rate < 0:
            raise ValueError("meta_rate must be >= 0")
        if self.strategies and self.strategies[0].params.row != (0.0, 0.0, 0.0):
            raise ValueError("strategy 0 must be the abstain-only fail-safe")

    @property
    def weights(self) -> np.ndarray:
        return np.exp(log_normalize(self.log_weights))


def init_meta(
    rows: Sequence[Sequence[float]],
    meta_rate: float,
    abstain_cost: float,
    step_margin: float,
) -> MetaState:
    """Uniform weights over the given (approve_prob, optimism, learn_rate) rows.

    Row 0 must be the all-zero fail-safe.
    """
    if len(rows) < 1:
        raise ValueError("need at least one strategy row")
    if tuple(float(v) for v in rows[0]) != (0.0, 0.0, 0.0):
        raise ValueError("row 0 must be the fail-safe (0, 0, 0)")
    states = []
    for row in rows:
        params, prior = strategy_from_row(row, abstain_cost, step_margin)
        states.append(init_state(params, prior))
    m = len(states)
    return MetaState(1, np.full(m, -math.log(m)), meta_rate, tuple(states))


def strategy_statuses(state: MetaState, table: RiskBoundTable) -> list[ApprovalStatus]:
    return [optimistic_step(s, table) for s in state.strategies]


def combine(statuses: Sequence[ApprovalStatus], weights: np.ndarray) -> ApprovalStatus:
    """Entrywise convex combination of equally-long statuses."""
    if len(statuses) != len(weights):
        raise ValueError("one weight per status required")
    t = statuses[0].time_index
    if any(s.time_index != t for s in statuses):
        raise ValueError("statuses must share a time index")
    stacked = np.stack([s.weights for s in statuses])
    mixed = np.asarray(weights, dtype=float) @ stacked
    return ApprovalStatus.from_weights(t, mixed)


def meta_update(state: MetaState, strategy_batch_risks: np.ndarray) -> MetaState:
    """Reweight strategies by their deployed empirical risk on one batch."""
    risks = np.asarray(strategy_batch_risks, dtype=float)
    if len(risks) != len(state.strategies):
        raise ValueError("one risk per strategy required")
    if np.any(risks < -1e-12) or np.any(risks > 1.0 + 1e-12):
        raise ValueError("risks must lie in [0, 1]")
    logw = log_normalize(state.log_weights - state.meta_rate * risks)
    return replace(state, log_weights=logw)


def meta_advance(
    state: MetaState,
    table: RiskBoundTable,
    batch_losses: np.ndarray,
    strategy_batch_risks: np.ndarray,
) -> MetaState:
    """Absorb the step's batch: update weights, advance every strategy."""
    updated = meta_update(state, strategy_batch_risks)
    nxt = tuple(
        strategy_advance(s, batch_losses, constraint_mask(table, s.params))
        for s in state.strategies
    )
    return MetaState(state.time_index + 1, updated.log_weights, state.meta_rate, nxt)


# ---------------------------------------------------------------------------
# Average-risk guarantee


@dataclass(frozen=True)
class RiskBoundInputs:
    """Ingredients of the average-risk guarantee.

    ``batch_size`` / ``holdout_size`` of None mean infinite data (their
    concentration terms drop out).  ``slack`` is the free analysis
    parameter trading coverage level against bound tightness; leave it
    None to have the bound minimised over it.  ``tail`` overrides the
    derived tail-miscoverage probability when set.
    """

    abstain_cost: float
    step_margin: float
    drift: float
    rate: float
    cover_alpha: float
    n_strategies: int
    horizon: int
    batch_size: Optional[int] = None
    holdout_size: Optional[int] = None
    slack: Optional[float] = None
    tail: Optional[float] = None

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if not 0.0 <= self.cover_alpha <= 1.0:
            raise ValueError("cover_alpha must lie in [0, 1]")
        if self.n_strategies < 1 or self.horizon < 1:
            raise ValueError("n_strategies and horizon must be >= 1")
        if self.abstain_cost + self.step_margin + self.drift <= 0:
            raise ValueError("abstain_cost + step_margin + drift must be > 0")


class _FloatOps:
    """The math-module and builtin counterparts of the numpy functions the
    bound formula uses, so one formula serves a float and an array."""

    exp = staticmethod(math.exp)
    minimum = staticmethod(min)
    maximum = staticmethod(max)
    any = staticmethod(bool)


def _ops(slack: float | np.ndarray):
    """numpy for an array of slacks (the grid), math and builtins for one
    float (the golden-section polish, where numpy's per-call cost on a
    scalar would exceed the arithmetic)."""
    return np if isinstance(slack, np.ndarray) else _FloatOps


def tail_alpha(
    slack: float | np.ndarray,
    batch_size: Optional[int],
    holdout_size: Optional[int],
    horizon: int,
) -> float | np.ndarray:
    """Probability any risk bound fails by more than ``slack``.

    (T - 1) exp(-8 z^2 n) + exp(-8 z^2 n'), capped at 1; a Hoeffding tail
    for each of the monitored candidates plus one for the held-out newest.
    Infinite sample sizes contribute nothing, and slack 0 gives 1.
    ``slack`` is a float or an array of slacks, evaluated elementwise.
    """
    xp = _ops(slack)
    if xp.any(slack < 0):
        raise ValueError("slack must be >= 0")
    total = 0.0
    if batch_size is not None:
        total += (horizon - 1) * xp.exp(-8.0 * slack * slack * batch_size)
    if holdout_size is not None:
        total += xp.exp(-8.0 * slack * slack * holdout_size)
    # adding 1 where slack == 0 (exactly 0 elsewhere) lifts that entry to the cap
    return xp.minimum(1.0, total + (slack == 0))


def _rate_term(rate: float, s: float | np.ndarray, xp) -> float | np.ndarray:
    return (xp.exp(-rate * s) - 1.0) / s


def _resolve_tail(inputs: RiskBoundInputs, slack: float | np.ndarray) -> float | np.ndarray:
    if inputs.tail is not None:
        return inputs.tail
    return tail_alpha(slack, inputs.batch_size, inputs.holdout_size, inputs.horizon)


def mgf_rate(inputs: RiskBoundInputs, slack: float | np.ndarray | None = None) -> float | np.ndarray:
    """The (negative) exponential-moment coefficient of the guarantee.

    A three-case mixture of (exp(-rate * s) - 1) / s evaluated at
    s = cost + margin + drift, at s + slack, and at 1, weighted by the
    coverage split (1 - a1 - a2, a1, a2).  Strictly negative for any
    positive rate.  ``slack`` is a float or an array of slacks.
    """
    z = inputs.slack if slack is None else slack
    if z is None:
        raise ValueError("slack must be provided or set on the inputs")
    if inputs.rate <= 0:
        raise ValueError("rate must be > 0")
    xp = _ops(z)
    a1 = inputs.cover_alpha
    a2 = _resolve_tail(inputs, z)
    s0 = inputs.abstain_cost + inputs.step_margin + inputs.drift
    w0 = xp.maximum(0.0, 1.0 - a1 - a2)
    c = _rate_term(inputs.rate, s0, xp) * w0
    c += _rate_term(inputs.rate, s0 + z, xp) * a1
    c += (math.exp(-inputs.rate) - 1.0) * a2
    return c


def _bound_at(inputs: RiskBoundInputs, slack: float | np.ndarray) -> float | np.ndarray:
    """The bound at one slack or, elementwise, at an array of slacks."""
    c = mgf_rate(inputs, slack)
    numer = inputs.rate * inputs.abstain_cost + math.log(inputs.n_strategies) / inputs.horizon
    if inputs.batch_size is not None:
        numer += inputs.rate**2 / (8.0 * inputs.batch_size)
    return -numer / c


def optimize_slack(inputs: RiskBoundInputs, grid: int = 200) -> tuple[float, float]:
    """Minimise the bound over slack in [0, 1]: coarse grid, then golden section."""
    zs = np.linspace(0.0, 1.0, grid + 1)
    vals = _bound_at(inputs, zs)
    k = int(np.argmin(vals))
    lo = float(zs[max(0, k - 1)])
    hi = float(zs[min(grid, k + 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    f1, f2 = _bound_at(inputs, c1), _bound_at(inputs, c2)
    while b - a > 1e-9:
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = _bound_at(inputs, c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = _bound_at(inputs, c2)
    z_star = (a + b) / 2.0
    best = min((float(vals[k]), float(zs[k])), (_bound_at(inputs, z_star), z_star))
    return best[1], best[0]


def risk_bound(inputs: RiskBoundInputs) -> float:
    """Upper bound on the forecaster's expected average risk.

    Evaluates -(rate * cost + ln(m)/T + rate^2/(8 n)) / c at the given
    slack, or at the slack minimising the bound when none is set.  The
    value is reported untruncated and can exceed 1 for small rates.
    """
    if inputs.slack is not None or inputs.tail is not None:
        return _bound_at(inputs, inputs.slack if inputs.slack is not None else 0.0)
    return optimize_slack(inputs)[1]


def max_learning_rate(
    target: float,
    inputs: RiskBoundInputs,
    cap: float = RATE_CAP,
    grid: int = 200,
) -> float:
    """Largest rate in (0, cap] whose optimised bound stays at or below target.

    The bound diverges at both ends of the rate axis, so feasibility is an
    interior interval; a grid scan finds it and bisection polishes its
    upper edge.  Raises InfeasibleRateError when no rate qualifies.
    """

    def bound(rate: float) -> float:
        return risk_bound(replace(inputs, rate=rate, slack=None, tail=None))

    rates = [cap * (i + 1) / grid for i in range(grid)]
    feasible = [r for r in rates if bound(r) <= target]
    if not feasible:
        raise InfeasibleRateError(
            f"no rate in (0, {cap}] certifies average risk <= {target:.6g}"
        )
    lo = max(feasible)
    later = [r for r in rates if r > lo]
    if not later:
        return cap
    hi = min(later)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if bound(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def classical_ewaf_bound(rate: float, abstain_cost: float, n_strategies: int, horizon: int) -> float:
    """Textbook exponentially-weighted-forecaster bound, for comparison:
    (rate * cost + ln(m) / T) / (1 - exp(-rate))."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    return (rate * abstain_cost + math.log(n_strategies) / horizon) / (1.0 - math.exp(-rate))
