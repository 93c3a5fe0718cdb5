"""Non-stationary stream generators, the model developer, and the full loop.

Four synthetic scenarios drive a binary-classification stream whose
label law is logistic in the features, at the coefficient norm whose exact
best-in-class risk is the configured one (``solve_signal_scale``).  A
distribution shift moves the generating coefficients as far as the drift
budget allows: its windowed risk change over the live candidate models
(``_window_gaps``, a finite-class stand-in for the worst case over all
predictors) stays within SHIFT_SAFETY x budget.  A rotation stops at the
last feasible multiple of 2**-SHIFT_GRID_BITS along its path
(``_budgeted_move``); a sign flip keeps the longest feasible prefix of its
coordinates (``_flip_subset``).

The experiment loop steps a run's replicates in lockstep, each reading
its own stream, replayed or generated: each replicate proposes a model
and builds its bound table, one stacked call lets every replicate's
strategies and meta-forecaster deploy, each replicate observes its
stream's batch, and one stacked call updates them.  Everything is
deterministic given (seed, replicate), and a replicate's trace does not
depend on which others share its loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .bounds import LossLedger, RiskBoundTable, build_bound_table
from .core import (
    CandidateModel,
    LossFunction,
    MonitoringBatch,
    affine_loss_mean,
    candidate_scores,
    deployed_risks,
    mixture_risks,
)
from .meta import (
    RiskBoundInputs,
    combine,
    init_meta,
    max_learning_rate,
    meta_advance,
    strategy_statuses,
)
from .strategy import REPEATED_TTEST, advance as strategy_advance, init_bank, optimistic_step

if TYPE_CHECKING:
    from .config import RunConfig

__all__ = [
    "ScenarioKind",
    "FitConfig",
    "DeveloperPolicy",
    "TrainingRows",
    "GeneratorState",
    "ReplicateTrace",
    "DriftReport",
    "GRID4",
    "GRID12",
    "sigmoid",
    "bayes_hinge_risk",
    "label_score_means",
    "solve_signal_scale",
    "logistic_objective",
    "fit_logistic",
    "developer_propose",
    "policy_for_scenario",
    "generate_batch",
    "holdout_size",
    "split_batch",
    "apply_shift",
    "verify_drift",
    "exact_drift",
    "run_experiment",
    "run_replicate",
    "run_replicates",
]

#: Strategy grids searched by the meta-forecaster.  Row 0 is the fail-safe.
GRID4: tuple[tuple[float, float, float], ...] = (
    (0.0, 0.0, 0.0),
    (0.0, 0.0, 0.99),
    REPEATED_TTEST,
    (0.3, 0.0, 1.5),
)

GRID12: tuple[tuple[float, float, float], ...] = (
    (0.0, 0.0, 0.0),
    (0.0, 0.0, 0.99),
    REPEATED_TTEST,
    (0.3, 0.0, 10.0),
    (0.3, 10.0, 10.0),
    (0.3, 100.0, 10.0),
    (0.5, 0.0, 10.0),
    (0.5, 10.0, 10.0),
    (0.5, 100.0, 10.0),
    (0.8, 0.0, 10.0),
    (0.8, 10.0, 10.0),
    (0.8, 100.0, 10.0),
)

# Shift proposals are scaled to this fraction of the drift budget so the
# post-hoc empirical certification has headroom over sampling noise.  The
# windowed budget check at proposal time already accounts for earlier
# shifts still inside the lookback window; the gap only rules out
# back-to-back moves.
SHIFT_SAFETY = 0.85
MIN_SHIFT_GAP = 2
WARMUP_STEPS = 4
# feature rows of each shift's Monte Carlo probe.  SHIFT_SAFETY's headroom
# absorbs its sampling error: at production defaults, seeds 11-30, the worst
# exact windowed change (``exact_drift``) of either shifting scenario is
# 0.875 of budget
MMD_PROBE = 5000
# the small-shift scenario's rotation path ends this far from its start
ROTATION_ANGLE = math.pi / 2
# A budgeted shift moves to a multiple of 2**-SHIFT_GRID_BITS along its path
# (the grid a 40-halving bisection reaches), found by ITP (``_last_feasible``):
# truncation ITP_KAPPA1 * width**2 with the width in path units, and ITP_N0
# probes of slack over bisection's worst case
SHIFT_GRID_BITS = 40
ITP_KAPPA1 = 0.1
ITP_N0 = 1
# rows scored per block when measuring deployed risk by Monte Carlo: a
# block's (rows, t) score and loss temporaries stay in cache, where the
# whole 100k-row evaluation sample's would not
EVAL_BLOCK_ROWS = 4096
# True-risk quadrature over standard-normal features (``label_score_means``):
# the trapezoid rule in both coordinates, step QUAD_STEP on
# [-QUAD_HALF_WIDTH, QUAD_HALF_WIDTH]
QUAD_STEP = 0.1
QUAD_HALF_WIDTH = 8.5
# fit_logistic stops once the objective's largest gradient entry is this small.
# Newton converges quadratically, so the tight value costs about one more
# iteration; it pins each fit to its data's optimum to within 1e-9 per
# coefficient whether the fit starts cold or warm (at 1e-10 the two differ
# by up to 2e-8)
FIT_GRAD_TOL = 1e-12
# Armijo sufficient-decrease fraction and step halvings per Newton iteration
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 40
# the developer's refit windows (``DeveloperPolicy``): last_k's batch count and
# the longest window cycling reaches
LAST_K = 4
CYCLE = 5


class ScenarioKind(Enum):
    ADAPTIVE_SHIFTS = "adaptive_shifts"
    SMALL_FREQUENT_SHIFTS = "small_frequent_shifts"
    IID_GOOD_MODELS = "iid_good_models"
    IID_RANDOM_MODELS = "iid_random_models"
    INGESTED = "ingested"


@dataclass(frozen=True)
class FitConfig:
    """Settings for the developer's logistic refits.

    ``l2`` is the ridge penalty on the feature coefficients (the intercept
    is free).  ``iterations`` caps the Newton iterations of
    ``fit_logistic``, which stops earlier, once the largest gradient entry
    is at most ``FIT_GRAD_TOL``; on the simulated and ingested streams that
    takes about 7-8 from zero, 5-6 when warm-started at a candidate fitted
    on another window and 3-4 when that candidate's rows are a prefix of
    the window's.
    """

    iterations: int = 50
    l2: float = 1e-3

    def __post_init__(self):
        if not self.l2 >= 0:
            raise ValueError("l2 must be >= 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


#: The developer's refits, and the initial model's fit on pre-deployment
#: data: a heavier ridge penalty keeps the realized abstain cost stable
#: across replicates.
DEVELOPER_FIT = FitConfig()
INITIAL_FIT = FitConfig(l2=0.065)


def sigmoid(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.dtype.kind != "f":
        m = m.astype(float)
    # exp may overflow to inf for very negative margins; 1/(1+inf) is the
    # correct 0, so just silence the warning instead of branching
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-m))


def _trapezoid_nodes() -> tuple[np.ndarray, np.ndarray]:
    half = round(QUAD_HALF_WIDTH / QUAD_STEP)
    z = QUAD_STEP * np.arange(-half, half + 1)
    return z, QUAD_STEP * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


_NODES, _WEIGHTS = _trapezoid_nodes()


def label_score_means(
    beta: np.ndarray, coefs: np.ndarray, columns: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Each candidate's expected label-times-score under the label law of
    ``beta``: ``E[(2 sigma(beta.x) - 1) (2 sigma(w.x + b) - 1)]`` for x
    standard normal, one per column (w, b) of ``coefs`` (shape (dim + 1, k)),
    or one per index in ``columns``, in that order, when it is given.

    Only two directions of x matter.  With z1 = beta.x / |beta| and z2 the
    standard-normal part of w.x orthogonal to it, the label margin is
    |beta| z1 and the score margin a z1 + r z2 + b, where a = w.beta / |beta|
    and r = sqrt(|w|^2 - a^2).  The 2-D integral is the trapezoid rule in
    both coordinates; ``2 sigma(m) - 1`` is written ``tanh(m / 2)``.  The
    integrand is analytic in a strip of half-width pi / n, with n the larger
    of |beta| and |w|, so the rule's error falls like exp(-2 pi^2 / (n *
    QUAD_STEP)): for beta's own column it is 3.5e-8 at |beta| = 10 and
    1.1e-5 at 15.  Each candidate is integrated on
    its own, from a view of its column of ``coefs``, so its value does not
    depend on which others share the call.  (A contiguous copy of the
    column may take another BLAS path for ``beta @ w`` and change the last
    bits.)
    """
    coefs = np.asarray(coefs, dtype=float)
    if columns is None:
        columns = range(coefs.shape[1])
    out = np.zeros(len(columns))
    norm = float(np.linalg.norm(beta))
    if norm == 0.0:
        return out  # labels are fair coins
    label = np.tanh(0.5 * norm * _NODES) * _WEIGHTS
    # one grid, filled in place for every candidate: a fresh (171, 171)
    # array per temporary costs an allocation and its page faults each time
    grid = np.empty((len(_NODES), len(_NODES)))
    for i, j in enumerate(columns):
        w, b = coefs[:-1, j], coefs[-1, j]
        a = float(beta @ w) / norm
        r = math.sqrt(max(float(w @ w) - a * a, 0.0))
        np.add(a * _NODES[:, None], r * _NODES + b, out=grid)
        grid *= 0.5
        np.tanh(grid, out=grid)
        out[i] = (grid @ _WEIGHTS) @ label
    return out


def bayes_hinge_risk(signal_scale: float) -> float:
    """Clipped-hinge risk (scale 2) at coefficient norm ``signal_scale`` of
    the true-coefficient predictor: its own label law's column, intercept 0."""
    beta = np.array([signal_scale])
    return float(affine_loss_mean(label_score_means(beta, np.array([[signal_scale], [0.0]]))[0], 2.0))


#: ``solve_signal_scale`` searches norms [0, MAX_SIGNAL_SCALE], up to which
#: ``bayes_hinge_risk`` is within 1e-5 of exact (5.5e-6 at 15, 8.2e-5 at 20);
#: MIN_BAYES_RISK, its value there (about 0.0528), is the least target.
MAX_SIGNAL_SCALE = 15.0
MIN_BAYES_RISK = bayes_hinge_risk(MAX_SIGNAL_SCALE)


@lru_cache(maxsize=64)
def solve_signal_scale(target_risk: float) -> float:
    """Coefficient norm in [0, MAX_SIGNAL_SCALE] at which the exact
    best-in-class risk, ``bayes_hinge_risk``, hits the target: to 1.25e-8
    over [0.08, 0.5), to 1e-5 below.  A target below MIN_BAYES_RISK, which
    no norm in the bracket reaches, raises ValueError.

    Bisection stops once the midpoint rounds onto an end, where the
    bracket can no longer shrink.
    """
    if not MIN_BAYES_RISK <= target_risk < 0.5:
        raise ValueError(
            f"target risk must lie in [{MIN_BAYES_RISK!r}, 0.5): a smaller one needs"
            f" a coefficient norm above {MAX_SIGNAL_SCALE!r}"
        )
    lo, hi = 0.0, MAX_SIGNAL_SCALE
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if bayes_hinge_risk(mid) > target_risk:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _logistic_terms(
    coef: np.ndarray, xd: np.ndarray, y01: np.ndarray, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """``(value, gradient, p)`` of the penalised mean logistic loss at
    ``coef`` on the design ``xd`` (features with a trailing column of ones),
    with ``p = sigmoid(xd @ coef)``, from one exponential ``e = exp(-|m|)``
    of the margins m: ``log(1 + exp(m)) = max(m, 0) + log1p(e)``, as in
    ``np.logaddexp``, and ``p = (1 if m >= 0 else e) / (1 + e)``.  The
    exponent is never positive, so nothing overflows at any margin.
    """
    n = len(y01)
    margin = xd @ coef
    e = np.exp(-np.abs(margin))
    w = coef[:-1]
    value = float(np.maximum(margin, 0.0).sum() + np.log1p(e).sum() - y01 @ margin) / n
    value += 0.5 * l2 * float(w @ w)
    p = np.where(margin >= 0.0, 1.0, e)
    p /= 1.0 + e
    grad = (p - y01) @ xd / n
    grad[:-1] += l2 * w
    return value, grad, p


def _design(features: np.ndarray) -> np.ndarray:
    return np.hstack([features, np.ones((len(features), 1))])


def logistic_objective(
    coef: np.ndarray,
    features: np.ndarray,
    labels01: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray]:
    """Mean logistic negative log-likelihood with an L2 penalty (intercept free).

    Returns (value, gradient), computed by the same kernel that
    ``fit_logistic`` minimises; the analytic gradient is checked against
    central finite differences in the test suite.
    """
    coef = np.asarray(coef, dtype=float)
    features = np.asarray(features, dtype=float)
    value, grad, _ = _logistic_terms(coef, _design(features), np.asarray(labels01, dtype=float), l2)
    return value, grad


def _newton(xd: np.ndarray, y01: np.ndarray, cfg: FitConfig, start: Optional[np.ndarray]) -> np.ndarray:
    """``fit_logistic`` on the design ``xd`` (features with a trailing
    column of ones) and labels ``y01`` in {0, 1}: the kernel that the
    developer's refits also call, on a window of their resident design."""
    n, d = xd.shape[0], xd.shape[1] - 1
    if y01.min() == y01.max():
        rate = (y01.sum() + 1.0) / (n + 2.0)
        coef = np.zeros(d + 1)
        coef[-1] = math.log(rate / (1.0 - rate))
        return coef
    coef = np.zeros(d + 1) if start is None else np.array(start, dtype=float)
    value, grad, p = _logistic_terms(coef, xd, y01, cfg.l2)
    for _ in range(cfg.iterations):
        largest = np.abs(grad).max()
        if largest <= FIT_GRAD_TOL:
            break
        hess = (xd * (p * (1.0 - p))[:, None]).T @ xd / n
        # the ridge on the feature coefficients' diagonal; the intercept is free
        hess.ravel()[: -1 : d + 2] += cfg.l2
        step = np.linalg.solve(hess, grad)
        decrease = ARMIJO_C * float(grad @ step)
        rounding = 100.0 * np.finfo(float).eps * abs(value)
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = coef - t * step
            trial_value, trial_grad, trial_p = _logistic_terms(trial, xd, y01, cfg.l2)
            if trial_value <= value - t * decrease or (
                abs(trial_value - value) <= rounding and np.abs(trial_grad).max() < largest
            ):
                break
            t *= 0.5
        else:
            break
        coef, value, grad, p = trial, trial_value, trial_grad, trial_p
    if not (np.isfinite(coef).all() and np.isfinite(grad).all()):
        raise ValueError("logistic fit produced non-finite coefficients or gradient")
    return coef


def fit_logistic(
    features: np.ndarray,
    labels: np.ndarray,
    cfg: FitConfig,
    start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Minimise ``logistic_objective`` by damped Newton (IRLS) from ``start``
    (coefficients with the intercept last), or from zero when it is None,
    and return the fitted coefficients (d + 1,), intercept last.

    Each iteration solves the (d+1) x (d+1) Newton system and backtracks on
    the objective until the Armijo condition holds; the Hessian weights
    reuse the probabilities of the accepted point.  Near the optimum the
    objective's change drops below its rounding error; a step is then
    accepted when it lowers the largest gradient entry instead.  The fit
    stops once that entry is at most ``FIT_GRAD_TOL``, after
    ``cfg.iterations`` iterations, or when no step makes progress.  The
    tolerance is tight enough that the optimum reached does not depend on
    the start to within 1e-9, so a warm start only saves iterations, the
    most when the start was fitted on a prefix of the same rows.
    ``features`` and ``labels`` may be views into a larger array, such as
    a ``TrainingRows`` window; the fit keeps no reference to them.
    Labels may be {-1, +1} or {0, 1}.  Single-class training data falls
    back to an intercept-only model at the smoothed class rate.  Raises
    ValueError when the coefficients or their gradient are non-finite, and
    numpy's LinAlgError (also a ValueError) on a singular Newton system,
    which needs ``l2 = 0``.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if len(labels) == 0:
        raise ValueError("training set must be nonempty")
    return _newton(_design(features), np.where(labels > 0, 1.0, 0.0), cfg, start)


@dataclass(frozen=True)
class DeveloperPolicy:
    """Which trailing batches the developer refits on at each step.

    kind:
      last_k        the most recent LAST_K batches
      cycling       window length cycles 1..CYCLE with step index
      all_data      every batch so far
      mostly_last2  last two batches, except every fourth step uses all
    """

    kind: str

    def window(self, t: int) -> range:
        """Batch indices (1-based) used to train the proposal at time t."""
        if t < 2:
            raise ValueError("proposals from monitoring data start at t = 2")
        if self.kind == "last_k":
            lo = max(1, t - LAST_K)
        elif self.kind == "cycling":
            length = ((t - 1) % CYCLE) + 1
            lo = max(1, t - length)
        elif self.kind == "all_data":
            lo = 1
        elif self.kind == "mostly_last2":
            lo = 1 if t % 4 == 0 else max(1, t - 2)
        else:
            raise ValueError(f"unknown developer policy {self.kind!r}")
        return range(lo, t)


def policy_for_scenario(kind: ScenarioKind) -> DeveloperPolicy:
    return {
        ScenarioKind.ADAPTIVE_SHIFTS: DeveloperPolicy("last_k"),
        ScenarioKind.SMALL_FREQUENT_SHIFTS: DeveloperPolicy("cycling"),
        ScenarioKind.IID_GOOD_MODELS: DeveloperPolicy("all_data"),
        ScenarioKind.IID_RANDOM_MODELS: DeveloperPolicy("mostly_last2"),
        ScenarioKind.INGESTED: DeveloperPolicy("all_data"),
    }[kind]


def holdout_size(n: int, validation_fraction: float) -> int:
    """Rows of an n-row batch held out for validation: floor(fraction * n),
    which must leave both parts nonempty."""
    n_val = int(validation_fraction * n)
    if not 0 < n_val < n:
        raise ValueError(f"validation fraction {validation_fraction} leaves an empty part")
    return n_val


def split_batch(
    batch: MonitoringBatch, validation_fraction: float, rng: np.random.Generator
) -> tuple[MonitoringBatch, MonitoringBatch]:
    """Random ``(train, validation)`` partition with ``holdout_size``
    validation rows."""
    n_val = holdout_size(batch.size, validation_fraction)
    perm = rng.permutation(batch.size)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    mk = lambda idx: MonitoringBatch(batch.features[idx], batch.labels[idx])
    return mk(train_idx), mk(val_idx)


class TrainingRows:
    """The developer's training data: monitoring batches 1, 2, ... in one
    preallocated design (the feature rows with a trailing column of ones,
    the form ``fit_logistic``'s kernel fits on) and one array of labels in
    {0, 1}, in batch order and each batch in its own row order.  The newest
    batch holds only its training split (its validation split stays
    prospective for the bound); when the next batch is added it is widened
    to the full batch, and the new batch's training split follows it.  So
    every developer window is one contiguous view, equal in value to
    stacking its batches."""

    def __init__(self, capacity: int, dim: int):
        self.design = np.ones((capacity, dim + 1))
        self.labels = np.empty(capacity)
        self._starts = [0]  # first row of batch s at index s - 1
        self._end = 0
        self._newest: Optional[MonitoringBatch] = None

    @property
    def batches(self) -> int:
        return len(self._starts) if self._newest is not None else 0

    def _put(self, lo: int, part: MonitoringBatch) -> int:
        hi = lo + part.size
        self.design[lo:hi, :-1] = part.features
        self.labels[lo:hi] = part.labels > 0
        return hi

    def add(self, batch: MonitoringBatch, train: MonitoringBatch) -> None:
        """Append ``batch``, of which only ``train`` is visible until the next
        batch is added."""
        if self._newest is not None:
            self._starts.append(self._put(self._starts[-1], self._newest))
        self._end = self._put(self._starts[-1], train)
        self._newest = batch

    def window(self, first: int) -> tuple[np.ndarray, np.ndarray]:
        """Design rows and {0, 1} labels of batches ``first`` through the
        newest."""
        lo = self._starts[first - 1]
        return self.design[lo : self._end], self.labels[lo : self._end]


def developer_propose(
    policy: DeveloperPolicy,
    rows: TrainingRows,
    coefs: np.ndarray,
    t: int,
    cfg: FitConfig,
) -> np.ndarray:
    """Refit on the policy's window of ``rows``, which must hold batches
    1..t-1, and return candidate t's coefficients; the newest batch
    contributes only its training split.

    ``coefs`` holds candidates 1..t-1 as columns.  The fit is warm-started
    at the newest candidate whose window began at the same batch, since
    its rows are a prefix of this window's, or else at the newest
    candidate (see ``fit_logistic``).  Only ``mostly_last2``'s all-data
    refits find an older one: each starts from the previous all-data
    candidate, four steps back.  The start moves the candidate only within
    the fit's stopping tolerance.  The fit runs ``fit_logistic``'s kernel
    on a view of the rows' resident design, so no window is copied."""
    if rows.batches != t - 1:
        raise ValueError(f"the developer at t = {t} needs batches 1..{t - 1}")
    first = policy.window(t).start
    design, y01 = rows.window(first)
    # a candidate whose window began at batch `first` was fitted on a prefix
    # of these rows; candidate s's window ends at batch s - 1 >= first
    same = (s for s in range(t - 1, first, -1) if policy.window(s).start == first)
    return _newton(design, y01, cfg, coefs[:, next(same, t - 1) - 1])


# ---------------------------------------------------------------------------
# Stream generation and drift


@dataclass
class GeneratorState:
    """Mutable state of the data-generating process for one replicate.

    ``shift_times`` lists the steps at which ``apply_shift`` moved the
    distribution."""

    coeff_history: list[np.ndarray]
    rng: np.random.Generator
    budget: float = 0.0
    shift_times: list[int] = field(default_factory=list)
    pending_shift: bool = False
    shadow_top: int = 0

    @property
    def coefficients(self) -> np.ndarray:
        return self.coeff_history[-1]


def _draw(rng: np.random.Generator, beta: np.ndarray, rows: int, dtype=float):
    """``(x, y)``: ``rows`` standard-normal feature rows in ``dtype`` and
    their labels in {-1, +1} (same dtype) under the logistic law of
    ``beta``, drawn features first."""
    x = rng.standard_normal((rows, len(beta)), dtype=dtype)
    p = sigmoid(x @ beta.astype(dtype, copy=False))
    y = np.where(rng.random(rows) < p, dtype(1.0), dtype(-1.0))
    return x, y


def generate_batch(gen: GeneratorState, cfg: RunConfig, time_index: int) -> MonitoringBatch:
    """Draw ``cfg.batch_size`` IID observations from the distribution
    realized at ``time_index``."""
    beta = gen.coeff_history[min(time_index, len(gen.coeff_history) - 1)]
    return MonitoringBatch(*_draw(gen.rng, beta, cfg.batch_size))


def _probe_risks(coefs: np.ndarray, probe: np.ndarray, loss: LossFunction):
    """The map from coefficients beta to each candidate column's risk under
    the label law of beta, on the feature rows ``probe``: the label
    expectation is analytic, only the feature average is Monte Carlo.

    With p the probability of label +1, a row's expected loss is
    ``loss(-1) + p * (loss(+1) - loss(-1))``, so one product with the
    per-row differences serves any loss.  An affine loss
    ``(1 - z y) / scale`` gives both terms in closed form in the scores z:
    ``loss(-1) = (1 + z) / scale`` and a difference of ``-2 z / scale``."""
    scores = candidate_scores(coefs, probe)
    if loss.affine:
        mean_minus = (1.0 + scores.mean(axis=0)) / loss.scale
        diff = np.multiply(scores, -2.0 / loss.scale, out=scores)
    else:
        loss_minus = loss.of_array(scores, -1.0)
        diff = loss.of_array(scores, 1.0) - loss_minus
        mean_minus = loss_minus.mean(axis=0)
    n = len(probe)
    return lambda beta: mean_minus + sigmoid(probe @ beta) @ diff / n


def _window_discrepancy(gen: GeneratorState, t_new: int, window: int, coefs: np.ndarray, loss: LossFunction):
    """The map from candidate coefficients for time ``t_new`` to their
    windowed risk change: the largest, over the candidate columns ``coefs``
    and the windows 1..``window``, of the gap between the new risk and the
    window's mean risk (``_window_gaps``, which the drift certificates also
    use).  Risks are ``_probe_risks`` on a fresh MMD_PROBE-row probe, drawn
    from ``gen.rng`` here; each distinct history entry is evaluated once
    (``_per_distinct``)."""
    risks = _probe_risks(coefs, gen.rng.standard_normal((MMD_PROBE, len(gen.coefficients))), loss)
    # a short history means the distribution has been sitting at its latest
    # value since then
    last = len(gen.coeff_history) - 1
    betas = [gen.coeff_history[min(s, last)] for s in range(max(0, t_new - window), t_new)]
    gaps = _window_gaps(_per_distinct(betas, risks), window)
    return lambda beta: float(np.max(gaps(risks(beta))))


def _per_distinct(betas: Sequence[np.ndarray], evaluate) -> np.ndarray:
    """``evaluate(beta)`` for every coefficient vector of ``betas``, one row
    each, with each distinct vector evaluated once, in order of first
    appearance: a later repeat reuses the first one's row."""
    rows = {}
    for beta in betas:
        key = beta.tobytes()
        if key not in rows:
            rows[key] = evaluate(beta)
    return np.array([rows[beta.tobytes()] for beta in betas])


def _window_gaps(history: np.ndarray, window: int):
    """The map from a row of candidate risks to its windowed risk changes
    against ``history``, a (steps, candidates) matrix of the same
    candidates' risks under the distributions of the steps before, oldest
    first: entry w - 1 is the largest, over the candidates, of the gap
    between the row and the mean of the last w history rows (of all of
    them when there are fewer), for w = 1..``window``."""
    means = np.array([history[-w:].mean(axis=0) for w in range(1, window + 1)])
    return lambda risks: np.max(np.abs(risks - means), axis=1)


def _last_feasible(f, target: float, f_one: float) -> float:
    """Largest multiple s of 2**-SHIFT_GRID_BITS in [0, 1) with
    ``f(s) <= target``, or 0 if ``f(0)`` is not.

    When the predicate is monotone along the path (feasible up to some
    point, infeasible after it), this is bit for bit the point that
    SHIFT_GRID_BITS halvings of [0, 1] reach, though it is found with far
    fewer evaluations of ``f``.  The search is ITP (interpolate, truncate,
    project: Oliveira & Takahashi, ACM TOMS 47(1), 2020) on the integer
    grid.  The bracket [a, b] keeps ``f(a)`` feasible and ``f(b)`` not;
    each probe is the regula falsi point, pulled toward the midpoint by
    ITP_KAPPA1 * width**2 and kept within ITP's radius of it, so no search
    takes more than SHIFT_GRID_BITS + ITP_N0 probes after ``f(0)``.
    ``f_one`` is ``f(1)``, which callers already have; it serves only the
    interpolation.  A NaN value counts as infeasible, as under ``<=``.
    """
    n = 1 << SHIFT_GRID_BITS
    unit = 1.0 / n
    fa = f(0.0)
    if not fa <= target:
        return 0.0
    a, b, fb = 0, n, f_one
    probes = 0
    while b - a > 1:
        width = b - a
        mid = (a + b) / 2
        # any probe within this radius of the midpoint leaves a bracket no
        # wider than 2**(SHIFT_GRID_BITS + ITP_N0 - 1 - probes), which is 1
        # after the last allowed probe
        radius = 2.0 ** (SHIFT_GRID_BITS + ITP_N0 - 1 - probes) - width / 2
        x = mid
        ga, gb = fa - target, fb - target
        if gb > 0:
            xf = (a * gb - b * ga) / (gb - ga)
            if math.isfinite(xf):
                delta = ITP_KAPPA1 * width * width * unit
                sigma = math.copysign(1.0, mid - xf)
                xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
                x = xt if abs(xt - mid) <= radius else mid - sigma * radius
        k = min(max(round(x), a + 1, math.ceil(mid - radius)), b - 1, math.floor(mid + radius))
        fk = f(k * unit)
        if fk <= target:
            a, fa = k, fk
        else:
            b, fb = k, fk
        probes += 1
    return a * unit


def _budgeted_move(mmd, path, target: float, f_one: Optional[float] = None) -> Optional[np.ndarray]:
    """Furthest point along ``path`` (a map [0, 1] -> coefficients) whose
    windowed risk change ``mmd`` stays at or below ``target``: the whole
    path if it fits, else the last feasible multiple of 2**-SHIFT_GRID_BITS
    found by ``_last_feasible``, which is exact when the risk change grows
    monotonically along the path; None when no step fits.  A caller that
    already has ``f_one = mmd(path(1.0))``, above ``target``, passes it."""
    if f_one is None:
        end = path(1.0)
        f_one = mmd(end)
        if f_one <= target:
            return end
    s = _last_feasible(lambda s: mmd(path(s)), target, f_one)
    return path(s) if s > 0 else None


def _rotation_path(beta: np.ndarray, rng: np.random.Generator):
    """Rotate the coefficients toward a random tangent direction, by up to
    ROTATION_ANGLE.

    Rotation preserves the coefficient norm, so the best-in-class risk is
    unchanged and only the alignment of existing models degrades.
    """
    norm = float(np.linalg.norm(beta))
    unit = beta / norm
    raw = rng.standard_normal(len(beta))
    tang = raw - (raw @ unit) * unit
    tn = float(np.linalg.norm(tang))
    if tn < 1e-12:
        tang = np.zeros_like(beta)
        tang[0] = 1.0
        tang -= (tang @ unit) * unit
        tn = float(np.linalg.norm(tang))
    tang /= tn

    def path(s: float) -> np.ndarray:
        angle = s * ROTATION_ANGLE
        return norm * (math.cos(angle) * unit + math.sin(angle) * tang)

    return path


def _flip_subset(mmd, beta: np.ndarray, order: np.ndarray, target: float) -> Optional[np.ndarray]:
    """Sign-flip the longest prefix of the coordinate ``order`` whose
    windowed risk change ``mmd`` fits the budget ``target``.

    Full flips preserve the coefficient norm; when even the first whole
    coordinate overshoots, it is flipped partially instead: scaled by
    ``1 - 2 s`` with s the last feasible point ``_budgeted_move`` finds.
    """

    def flipped(k: int) -> np.ndarray:
        out = beta.copy()
        out[order[:k]] = -out[order[:k]]
        return out

    f_one = mmd(flipped(1))
    if f_one <= target:
        best = 1
        while best < len(beta) and mmd(flipped(best + 1)) <= target:
            best += 1
        return flipped(best)

    coord = order[0]

    def path(s: float) -> np.ndarray:
        out = beta.copy()
        out[coord] = (1.0 - 2.0 * s) * out[coord]
        return out

    # path(1.0) is flipped(1) bit for bit (-1.0 * x == -x), so f_one is its value
    return _budgeted_move(mmd, path, target, f_one)


def apply_shift(
    gen: GeneratorState,
    cfg: RunConfig,
    t_new: int,
    feedback: bool,
    coefs: np.ndarray,
    loss: LossFunction,
) -> bool:
    """Realize the distribution for time ``t_new`` and append its
    coefficients; return whether they moved, in which case ``t_new`` is
    appended to ``gen.shift_times``.

    Called at the start of step ``t_new``, before any data from that step
    is drawn: the shift function may depend on everything observed so far,
    including the decision the shadow tester is about to deploy.  IID
    scenarios never move.  The small-shift scenario rotates the
    coefficients by a random amount every fourth step; the adaptive
    scenario sign-flips a budget-sized coordinate subset the moment the
    shadow tester approves a new candidate, so the approved model walks
    straight into the shifted distribution.  The coordinates that
    candidate (the shadow tester's latest approval) leans on hardest are
    flipped first, so the budget is spent where it hurts it most; before
    any approval the order is random.  A warm-up and a minimum gap keep
    early steps stationary and rule out back-to-back moves.  Every move is
    budget-checked by ``_window_discrepancy`` against the windows
    1..``cfg.bound_window``, the bound table's lookback, over the candidate
    columns ``coefs`` (shape (dim + 1, k), k >= 1; ``ValueError`` otherwise).  A
    move that must stop partway along its path stops at the last feasible
    multiple of 2**-SHIFT_GRID_BITS, located by an ITP search
    (``_last_feasible``): the point 40 halvings of the path would reach
    whenever the risk change grows monotonically along it.
    """
    if coefs.shape[1] == 0:
        raise ValueError("a shift is measured against at least one candidate column")
    beta = gen.coefficients
    shifted = None
    if cfg.scenario is ScenarioKind.SMALL_FREQUENT_SHIFTS and t_new % 4 == 0:
        # small relative to the budget: trackable by short-window refits
        target = gen.rng.uniform(0.1, 0.35) * SHIFT_SAFETY * gen.budget
        path = _rotation_path(beta, gen.rng)
        mmd = _window_discrepancy(gen, t_new, cfg.bound_window, coefs, loss)
        shifted = _budgeted_move(mmd, path, target)
    elif cfg.scenario is ScenarioKind.ADAPTIVE_SHIFTS:
        if feedback:
            gen.pending_shift = True
        allowed = t_new > WARMUP_STEPS and (
            not gen.shift_times or t_new - gen.shift_times[-1] >= MIN_SHIFT_GAP
        )
        if gen.pending_shift and allowed:
            # the probe is drawn before the coordinate order, which may use the rng
            mmd = _window_discrepancy(gen, t_new, cfg.bound_window, coefs, loss)
            if gen.shadow_top > 0:
                order = np.argsort(-(coefs[:-1, gen.shadow_top - 1] * beta))
            else:
                order = gen.rng.permutation(len(beta))
            shifted = _flip_subset(mmd, beta, order, SHIFT_SAFETY * gen.budget)
            gen.pending_shift = False
    moved = shifted is not None and not np.array_equal(shifted, beta)
    gen.coeff_history.append(shifted if moved else beta)
    if moved:
        gen.shift_times.append(t_new)
    return moved


def _sample_risks(coefs: np.ndarray, x: np.ndarray, y: np.ndarray, loss: LossFunction) -> np.ndarray:
    """Each candidate column's mean loss on the labelled rows ``(x, y)``.

    An affine loss (``LossFunction.affine``) averages ``(1 - z y) / scale``
    as ``(1 - mean(y z)) / scale``: one product with the labels in place of
    the (rows, candidates) loss matrix."""
    scores = candidate_scores(coefs, x)
    if loss.affine:
        loss.check_labels(y)
        return (1.0 - y @ scores / len(y)) / loss.scale
    return loss.of_array(scores, y[:, None]).mean(axis=0)


@dataclass(frozen=True)
class DriftReport:
    """Outcome of certifying a generator trace against the drift budget."""

    budget: float
    tolerance: float
    max_value: float
    violations: tuple[tuple[int, int, float], ...]
    values: np.ndarray  # (T, window) matrix of windowed discrepancies

    @property
    def ok(self) -> bool:
        return not self.violations


def _certify(coeff_history, evaluate, budget: float, tolerance: float, window: int, by_step: bool) -> DriftReport:
    """The drift certificate of a generator trace: risks ``evaluate(beta)``
    (a row of candidate risks) once per distinct distribution of the
    history (``_per_distinct``), and at each (t, w) the windowed risk
    change ``_window_gaps`` over the candidates: the first t of them when
    ``by_step``, else all.  A value above ``budget + tolerance`` is a
    violation."""
    if window < 1:
        raise ValueError("window must be >= 1")
    risks = _per_distinct(np.asarray(coeff_history, dtype=float), evaluate)
    values = np.zeros((len(risks) - 1, window))
    for t in range(1, len(risks)):
        cols = t if by_step else None
        values[t - 1] = _window_gaps(risks[max(0, t - window) : t, :cols], window)(risks[t, :cols])
    flagged = zip(*np.nonzero(values > budget + tolerance))
    violations = tuple((int(t) + 1, int(w) + 1, float(values[t, w])) for t, w in flagged)
    return DriftReport(budget, tolerance, float(values.max(initial=0.0)), violations, values)


def verify_drift(
    coeff_history: Sequence[np.ndarray],
    budget: float,
    window: int,
    coefs: np.ndarray,
    loss: LossFunction,
    n_check: int = 20000,
    tolerance: float = 0.02,
    seed: int = 1234,
) -> DriftReport:
    """Empirically check every windowed discrepancy against the budget.

    Draws one ``n_check``-row labelled sample per distinct distribution of
    the history, in order of first appearance, and takes each candidate
    column's mean loss on it, over the columns ``coefs`` (shape (d + 1, k),
    k >= 1; ``ValueError`` otherwise).  The discrepancy at (t, w) is the
    largest, over the columns, of the gap between a column's risk at t and
    its mean risk over the w steps before t (all of them when t < w), as
    ``_window_gaps`` takes it: a finite-class lower bound on the population
    discrepancy.  Abstention costs the same under every distribution and
    contributes nothing.  A value above budget + tolerance is a violation;
    the tolerance is the pre-registered allowance for sampling noise at the
    default ``n_check``.  A window below 1 raises ValueError.
    """
    if coefs.shape[1] == 0:
        raise ValueError("need at least one candidate column")
    rng = np.random.default_rng(seed)
    risks = lambda beta: _sample_risks(coefs, *_draw(rng, beta, n_check), loss)
    return _certify(coeff_history, risks, budget, tolerance, window, by_step=False)


def exact_drift(
    coeff_history: Sequence[np.ndarray],
    model_coefs: np.ndarray,
    budget: float,
    window: int,
    loss: LossFunction,
) -> DriftReport:
    """Certify a generator trace against the drift budget with exact risks.

    The discrepancy at (t, w) is the windowed risk change that
    ``apply_shift`` bounds (``_window_gaps``): the largest, over the
    candidates registered by step t (the first t columns of
    ``model_coefs``, one per step), of the gap between a candidate's risk
    under ``coeff_history[t]`` and its mean risk under the distributions of
    the w steps before t (all of them when t < w).  Candidate j's risk under
    beta is ``(1 - E[y z_j]) / scale``, with the expectation from
    ``label_score_means`` integrated once per distinct coefficient vector
    of the history; that form needs an affine loss (``LossFunction.affine``),
    and any other raises ValueError, as does a window below 1.  With no
    sampling noise to allow for, the tolerance is 0: every value above the
    budget is a violation.
    """
    if not loss.affine:
        raise ValueError(f"exact drift needs an affine loss, not {loss}")
    if model_coefs.shape[1] < len(coeff_history) - 1:
        raise ValueError("need one candidate column per step")
    risks = lambda beta: affine_loss_mean(label_score_means(beta, model_coefs), loss.scale)
    return _certify(coeff_history, risks, budget, 0.0, window, by_step=True)


# ---------------------------------------------------------------------------
# The experiment loop


@dataclass
class ReplicateTrace:
    """Per-step record of one replicate.

    Arrays are indexed by step (0-based for step t = index + 1).  The
    ``strategy_*`` blocks track each candidate strategy deployed on its
    own, which is what the forecaster's weights respond to.
    """

    replicate: int
    abstain_cost: float
    meta_rate: float
    true_risk: np.ndarray
    emp_risk: np.ndarray
    abstain_prob: np.ndarray
    meta_weights: np.ndarray
    meta_top: np.ndarray
    strategy_true_risk: np.ndarray
    strategy_abstain: np.ndarray
    coeff_history: np.ndarray
    shift_times: tuple[int, ...]
    model_coefs: np.ndarray  # fitted (dim + 1, n_models) columns, for audits

    @property
    def horizon(self) -> int:
        return len(self.true_risk)

    def cum_avg_true(self) -> np.ndarray:
        return np.cumsum(self.true_risk) / np.arange(1, self.horizon + 1)

    def strategy_cum_avg_true(self) -> np.ndarray:
        steps = np.arange(1, self.horizon + 1)[:, None]
        return np.cumsum(self.strategy_true_risk, axis=0) / steps


def _score_blocks(coefs: np.ndarray, x: np.ndarray, labels: np.ndarray):
    """``(scores, labels)`` for consecutive blocks of EVAL_BLOCK_ROWS rows,
    the input ``core.deployed_risks`` sums over."""
    for lo in range(0, len(labels), EVAL_BLOCK_ROWS):
        hi = lo + EVAL_BLOCK_ROWS
        yield candidate_scores(coefs, x[lo:hi]), labels[lo:hi]


class _Stream:
    """Where a replicate's monitoring data and true risks come from.  Each
    kind sets ``initial`` (the batch the initial model is fitted on),
    ``horizon``, ``dim``, ``capacity`` (training rows over the run) and
    ``solver_batch`` (the rate solver's batch size), and its ``step(t,
    table, coefs, deployed)`` returns step t's true deployed risks (None
    when the batch is its own evaluation sample) and batch."""

    def costs(self, first: CandidateModel) -> tuple[float, float]:
        """``(abstain cost, drift budget)``: ``cfg.abstain_cost`` when set,
        else the initial model's risk at step 1, kept in [1e-6, 1 - 1e-6];
        and ``cfg.drift`` when set, else that cost."""
        cost = self.cfg.abstain_cost
        cost = min(max(self._first_risk(first) if cost is None else cost, 1e-6), 1.0 - 1e-6)
        return cost, self.cfg.drift if self.cfg.drift is not None else cost

    def observe(self, table, batch_losses: np.ndarray) -> None:
        """Take a finished step's bound table and batch loss row."""


class _Replay(_Stream):
    """The given batches: batch 0 fits the initial model and batch t is step
    t's only evidence, so its risks are the step's true ones."""

    def __init__(self, cfg: RunConfig, batches: Sequence[MonitoringBatch]):
        if len(batches) < 2:
            raise ValueError("an ingested stream needs at least two batches")
        self.cfg, self.loss, self.batches, self.initial = cfg, cfg.loss, batches, batches[0]
        self.horizon, self.dim = len(batches) - 1, batches[0].dim
        self.capacity = sum(b.size for b in batches[1:])
        self.solver_batch = min(b.size for b in batches[1:])

    def _first_risk(self, first: CandidateModel) -> float:
        batch = self.batches[1]
        return float(np.mean(self.loss.of_array(first.predict(batch.features), batch.labels)))

    def step(self, t, table, coefs, deployed):
        return None, self.batches[t]

    def history(self) -> tuple[np.ndarray, tuple[int, ...]]:
        return np.zeros((0, self.dim)), ()


class _Generated(_Stream):
    """A simulated scenario, drawn from the replicate's rng, scaled so that
    the exact best-in-class risk is ``cfg.bayes_risk`` (``solve_signal_scale``:
    norm 7.7731 at the default 0.10).  The initial model
    sees ``cfg.initial_batches`` batches of the first distribution, which
    step 1 keeps (no shift fires inside the warm-up).  The adaptive
    scenario's shadow tester lives here: only the shift reacts to it."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        self.cfg, self.loss, self.horizon, self.dim = cfg, cfg.loss, cfg.horizon, cfg.dim
        self.capacity, self.solver_batch = cfg.horizon * cfg.batch_size, cfg.batch_size
        b0 = rng.standard_normal(cfg.dim)
        beta0 = solve_signal_scale(cfg.bayes_risk) * b0 / np.linalg.norm(b0)
        self.gen = GeneratorState(coeff_history=[beta0], rng=rng)
        self.initial = MonitoringBatch(*_draw(rng, beta0, cfg.initial_batches * cfg.batch_size))
        adaptive = cfg.scenario is ScenarioKind.ADAPTIVE_SHIFTS
        self.shadow = init_bank([REPEATED_TTEST]) if adaptive else None

    def costs(self, first: CandidateModel) -> tuple[float, float]:
        self.cost, self.gen.budget = super().costs(first)
        return self.cost, self.gen.budget

    def step(self, t, table, coefs, deployed):
        # the distribution for step t is realized before any data from step
        # t is drawn; the shift may react to the approval the shadow tester
        # is about to make, since that decision only uses data through t - 1
        approved = False
        if self.shadow is not None:
            top = int(np.argmax(optimistic_step(self.shadow, table)[0]))
            approved = top > 0 and top != self.gen.shadow_top
            if top > 0:
                self.gen.shadow_top = top
        shifted = apply_shift(self.gen, self.cfg, t, approved, coefs, self.loss)
        risks = self._true_risks(t, coefs, deployed, shifted)
        return risks, generate_batch(self.gen, self.cfg, t)

    def observe(self, table, batch_losses: np.ndarray) -> None:
        if self.shadow is not None:
            self.shadow = strategy_advance(self.shadow, batch_losses, table)

    def history(self) -> tuple[np.ndarray, tuple[int, ...]]:
        return np.stack(self.gen.coeff_history[: self.horizon + 1]), tuple(self.gen.shift_times)


class _Exact(_Generated):
    """A generated stream under an affine loss (``LossFunction.affine``):
    the default abstain cost and every true risk are exact, from each
    candidate's E[label x score] under the realized distribution
    (``label_score_means``).  A step integrates only the candidates that a
    deployed status weights and that lack a value under the current
    distribution, and a shift forgets every value.  The others get a finite
    placeholder risk, which ``core.mixture_risks`` multiplies by exact
    zeros, so every true risk is bit for bit the all-candidate one."""

    def costs(self, first: CandidateModel) -> tuple[float, float]:
        # each candidate's E[label * score] under the current distribution,
        # NaN until some deployed status weights it
        self.label_scores = np.full(self.horizon, np.nan)
        self.label_scores[0] = label_score_means(self.gen.coefficients, first.coef[:, None])[0]
        return super().costs(first)

    def _first_risk(self, first: CandidateModel) -> float:
        return float(affine_loss_mean(self.label_scores[0], self.loss.scale))

    def _true_risks(self, t, coefs, deployed, shifted):
        if shifted:
            self.label_scores.fill(np.nan)
        need = np.flatnonzero(np.isnan(self.label_scores[:t]) & deployed[:, 1:].any(axis=0))
        self.label_scores[need] = label_score_means(self.gen.coeff_history[t], coefs, need)
        # a column without a value has zero weight in every deployed row,
        # so its placeholder (a fair coin's risk) changes no product
        filled = np.nan_to_num(self.label_scores[:t], nan=0.0)
        true_row = np.concatenate(([self.cost], affine_loss_mean(filled, self.loss.scale)))
        return mixture_risks(deployed, true_row)


class _Sampled(_Generated):
    """A generated stream under any other loss: the default abstain cost and
    each step's true risks are Monte Carlo means over fresh samples of
    ``cfg.eval_size`` rows."""

    def _first_risk(self, first: CandidateModel) -> float:
        x, y = _draw(self.gen.rng, self.gen.coefficients, self.cfg.eval_size)
        return float(np.mean(self.loss.of_array(first.predict(x), y)))

    def _true_risks(self, t, coefs, deployed, shifted):
        # float32 is plenty for a Monte Carlo risk estimate and halves the
        # cost of the widest arrays in the loop
        x, y = _draw(self.gen.rng, self.gen.coeff_history[t], self.cfg.eval_size, np.float32)
        return deployed_risks(_score_blocks(coefs.astype(np.float32), x, y), deployed, self.loss, self.cost)


class _Replicate:
    """One replicate's own work in the lockstep loop of ``run_replicates``:
    its rng and stream, the developer's refits, its bound tables, batch
    scoring and loss ledger, and its trace rows, each one call per step, in
    the order and with the rng draws of a replicate run alone.

    Set-up takes the stream's initial batch, fitted with ``INITIAL_FIT``,
    its abstain cost and drift budget, and the meta learning rate: fixed,
    or the largest the guarantee certifies at cost plus margin.
    """

    def __init__(self, cfg: RunConfig, replicate: int, batches: Optional[Sequence[MonitoringBatch]]):
        self.cfg, self.loss = cfg, cfg.loss
        self.rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, replicate]))
        self.policy = policy_for_scenario(cfg.scenario)
        if batches is not None:
            self.stream = _Replay(cfg, batches)
        else:
            self.stream = (_Exact if self.loss.affine else _Sampled)(cfg, self.rng)
        stream = self.stream
        horizon, dim = stream.horizon, stream.dim

        # the newest batch's split: the bound table at the next step validates on it
        train, self.validation = split_batch(stream.initial, cfg.validation_fraction, self.rng)
        first = CandidateModel(fit_logistic(train.features, train.labels, INITIAL_FIT))
        # index 0 stands for abstention, index t for candidate t
        self.candidates = [None, first]
        self.delta, drift = stream.costs(first)
        margin = cfg.margin_mult * self.delta
        self.step_margin = cfg.step_margin_mult * margin

        if cfg.rate_mode == "fixed":
            rate = cfg.rate
        else:
            n = stream.solver_batch
            inputs = RiskBoundInputs(
                abstain_cost=self.delta, step_margin=self.step_margin, drift=drift,
                cover_alpha=cfg.bound_alpha, n_strategies=len(cfg.rows), horizon=horizon,
                batch_size=n, holdout_size=holdout_size(n, cfg.validation_fraction),
            )
            rate = max_learning_rate(self.delta + margin, inputs)

        m = len(cfg.rows)
        self.trace = ReplicateTrace(
            replicate=replicate, abstain_cost=self.delta, meta_rate=rate,
            true_risk=np.zeros(horizon), emp_risk=np.zeros(horizon), abstain_prob=np.zeros(horizon),
            meta_weights=np.zeros((horizon, m)), meta_top=np.zeros(horizon, dtype=int),
            strategy_true_risk=np.zeros((horizon, m)), strategy_abstain=np.zeros((horizon, m)),
            coeff_history=np.zeros((0, dim)), shift_times=(), model_coefs=np.zeros((dim + 1, 0)),
        )
        self.train_rows = TrainingRows(stream.capacity, dim)
        self.ledger = LossLedger(horizon)
        # column t - 1 holds candidate t
        self.coef_mat = np.zeros((dim + 1, horizon))
        self.coef_mat[:, 0] = first.coef

    def table(self, t: int):
        """Step t's bound table, after the developer proposes candidate t."""
        if t >= 2:
            self.coef_mat[:, t - 1] = developer_propose(
                self.policy, self.train_rows, self.coef_mat[:, : t - 1], t, DEVELOPER_FIT
            )
            self.candidates.append(CandidateModel(self.coef_mat[:, t - 1].copy()))
        return build_bound_table(t, self.candidates, self.ledger, self.validation, self.loss, self.delta,
                                 alpha=self.cfg.bound_alpha, window=self.cfg.bound_window,
                                 step_margin=self.step_margin)

    def deploy(self, t: int, table, statuses: np.ndarray, combined: np.ndarray, weights: np.ndarray):
        """Deploy step t's statuses on the stream's batch; record the trace
        row and return the batch's loss row and the deployed batch risks
        (each strategy's, then the mixture's)."""
        cfg, loss, delta, trace = self.cfg, self.loss, self.delta, self.trace
        coefs = self.coef_mat[:, :t]
        deployed = np.vstack([statuses, combined])
        eval_risks, batch = self.stream.step(t, table, coefs, deployed)
        batch_preds = candidate_scores(coefs, batch.features)
        self.ledger.record(t, loss.of_array(batch_preds, batch.labels[:, None]))
        blosses = self.ledger.row(t, delta)
        if loss.affine:
            batch_risks = mixture_risks(deployed, blosses)
        else:
            batch_risks = deployed_risks([(batch_preds, batch.labels)], deployed, loss, delta)
        if eval_risks is None:
            # the batch is the evaluation sample: its risks are the true ones
            eval_risks = batch_risks
        trace.true_risk[t - 1] = eval_risks[-1]
        trace.abstain_prob[t - 1] = combined[0]
        trace.meta_weights[t - 1] = weights
        trace.meta_top[t - 1] = np.argmax(combined)
        trace.strategy_true_risk[t - 1] = eval_risks[:-1]
        trace.strategy_abstain[t - 1] = statuses[:, 0]

        train, self.validation = split_batch(batch, cfg.validation_fraction, self.rng)
        self.train_rows.add(batch, train)
        trace.emp_risk[t - 1] = batch_risks[-1]
        return blosses, batch_risks

    def finish(self) -> ReplicateTrace:
        self.trace.coeff_history, self.trace.shift_times = self.stream.history()
        self.trace.model_coefs = self.coef_mat.copy()
        return self.trace


def run_replicates(
    cfg: RunConfig,
    replicates: Sequence[int],
    batches: Optional[Sequence[MonitoringBatch]] = None,
) -> list[ReplicateTrace]:
    """Run the given replicates of the run ``cfg`` in lockstep, one trace
    each, in the order given.

    Each replicate reads one stream of one of three kinds: the replay of
    ``batches``, given exactly when ``cfg.scenario`` is INGESTED
    (``ValueError`` otherwise), or a generated stream whose true risks are
    exact (``_Exact``, under an affine loss) or sampled (``_Sampled``).
    At each step every replicate's developer proposes a candidate
    (``DEVELOPER_FIT`` on a view of its run-sized ``TrainingRows``) and
    builds its bound table; then one stacked call of ``strategy_statuses``
    and ``combine`` deploys every replicate's strategies and meta-forecaster
    (``RiskBoundTable.stack``).  Each replicate draws its batch, scores it
    and records its trace row; one stacked ``meta_advance`` absorbs every
    batch.  Empirical risks under an affine loss are ``core.mixture_risks``
    of the batch's loss-ledger row; other losses score each status's
    ensemble with ``core.deployed_risks``.  A replicate's own work, from
    its rng draws to every matrix product, is one call per replicate, so
    its trace is bit for bit the one it has when run alone.
    """
    if (cfg.scenario is ScenarioKind.INGESTED) != (batches is not None):
        raise ValueError("batches are replayed exactly when the scenario kind is ingested")
    reps = [_Replicate(cfg, r, batches) for r in replicates]
    if not reps:
        return []
    horizon = reps[0].stream.horizon
    meta = init_meta(cfg.rows, np.array([rep.trace.meta_rate for rep in reps]))
    for t in range(1, horizon + 1):
        tables = [rep.table(t) for rep in reps]
        table = RiskBoundTable.stack(tables)
        weights = meta.weights
        statuses = strategy_statuses(meta, table)
        combined = combine(statuses, weights)
        rows = [rep.deploy(t, *step) for rep, *step in zip(reps, tables, statuses, combined, weights)]
        blosses, batch_risks = map(np.array, zip(*rows))
        if t < horizon:
            meta = meta_advance(meta, table, blosses, batch_risks[:, :-1])
            for rep, tb, bl in zip(reps, tables, blosses):
                rep.stream.observe(tb, bl)
    return [rep.finish() for rep in reps]


def run_replicate(
    cfg: RunConfig,
    replicate: int,
    batches: Optional[Sequence[MonitoringBatch]] = None,
) -> ReplicateTrace:
    """Run one replicate of the run ``cfg`` end to end: the lockstep loop
    of ``run_replicates`` over that replicate alone."""
    return run_replicates(cfg, [replicate], batches)[0]


def run_experiment(
    cfg: RunConfig, batches: Optional[Sequence[MonitoringBatch]] = None
) -> list[ReplicateTrace]:
    """Run the ``cfg.replicates`` replicates of one run, all in one
    lockstep loop (``run_replicates``); each trace equals its replicate's
    ``run_replicate``."""
    return run_replicates(cfg, range(cfg.replicates), batches)
