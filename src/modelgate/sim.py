"""Non-stationary stream generators, the model developer, and the full loop.

Four synthetic scenarios drive a binary-classification stream whose
label law is logistic in the features.  Distribution shifts perturb the
generating coefficients and are rejection-checked against the drift
budget, measured as the largest risk change over the live candidate
models (a finite-class stand-in for the worst case over all predictors).

The experiment loop wires everything together: propose a model, build
the bound table, let every strategy and the meta-forecaster deploy,
observe a fresh batch, update.  Everything is deterministic given
(seed, replicate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundConfig, LossLedger, build_bound_table
from .core import (
    AugmentedLossConfig,
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

__all__ = [
    "ScenarioKind",
    "FitConfig",
    "ScenarioConfig",
    "MetaConfig",
    "DeveloperPolicy",
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
    "empirical_mmd",
    "verify_drift",
    "run_experiment",
    "run_replicate",
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
MMD_PROBE = 20000
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
    takes about 7-8 from zero and 3-6 when warm-started at the previous
    candidate (3-4 when the training window only grows).
    """

    iterations: int = 50
    l2: float = 1e-3

    def __post_init__(self):
        if not self.l2 >= 0:
            raise ValueError("l2 must be >= 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class ScenarioConfig:
    """Stream settings for one scenario.

    ``drift`` of None means the budget is set to the realized abstain cost
    once the initial model has been scored.  ``bayes_risk`` fixes the
    clipped-hinge risk of the best-in-class predictor; the generating
    coefficients are scaled to hit it exactly.  The initial model is fit
    on ``initial_batches`` worth of pre-deployment data with its own,
    deliberately conservative, settings: a heavier ridge penalty keeps the
    realized abstain cost stable across replicates.
    """

    kind: ScenarioKind
    horizon: int = 50
    batch_size: int = 75
    dim: int = 10
    drift: Optional[float] = None
    seed: int = 0
    eval_size: int = 100_000
    bayes_risk: float = 0.10
    fit: FitConfig = field(default_factory=FitConfig)
    initial_batches: int = 2
    initial_fit: FitConfig = field(default_factory=lambda: FitConfig(l2=0.065))

    def __post_init__(self):
        if self.horizon < 1 or self.batch_size < 1 or self.dim < 1:
            raise ValueError("horizon, batch_size and dim must be >= 1")
        if self.drift is not None and self.drift < 0:
            raise ValueError("drift must be >= 0")
        if self.initial_batches < 1:
            raise ValueError("initial_batches must be >= 1")


@dataclass(frozen=True)
class MetaConfig:
    """Approval-side settings shared by every replicate of a run."""

    rows: tuple[tuple[float, float, float], ...] = GRID12
    bound: BoundConfig = field(default_factory=BoundConfig)
    margin_mult: float = 0.6
    step_margin_mult: float = 0.2
    rate_mode: str = "solve"
    rate: float = 1.6
    loss: LossFunction = field(default_factory=LossFunction)

    def __post_init__(self):
        if self.rate_mode not in ("solve", "fixed"):
            raise ValueError("rate_mode must be 'solve' or 'fixed'")
        if self.margin_mult < 0 or self.step_margin_mult < 0:
            raise ValueError("margin multipliers must be >= 0")
        if self.rate <= 0:
            raise ValueError("rate must be > 0")


def sigmoid(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.dtype.kind != "f":
        m = m.astype(float)
    # exp may overflow to inf for very negative margins; 1/(1+inf) is the
    # correct 0, so just silence the warning instead of branching
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-m))


@lru_cache(maxsize=64)
def bayes_hinge_risk(signal_scale: float, nodes: int = 64) -> float:
    """Clipped-hinge risk of the true-coefficient predictor.

    For standard-normal features and logistic labels the margin is
    Gaussian with standard deviation equal to the coefficient norm, and
    the risk reduces to E[1 / (2 cosh^2(m/2))], evaluated by quadrature.
    """
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    vals = 1.0 / (2.0 * np.cosh(signal_scale * x / 2.0) ** 2)
    return float(np.sum(w * vals) / math.sqrt(2.0 * math.pi))


def _trapezoid_nodes() -> tuple[np.ndarray, np.ndarray]:
    half = round(QUAD_HALF_WIDTH / QUAD_STEP)
    z = QUAD_STEP * np.arange(-half, half + 1)
    return z, QUAD_STEP * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


_NODES, _WEIGHTS = _trapezoid_nodes()


def label_score_means(beta: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Each candidate's expected label-times-score under the label law of
    ``beta``: ``E[(2 sigma(beta.x) - 1) (2 sigma(w.x + b) - 1)]`` for x
    standard normal, one per column (w, b) of ``coefs`` (shape (dim + 1, k)).

    Only two directions of x matter.  With z1 = beta.x / |beta| and z2 the
    standard-normal part of w.x orthogonal to it, the label margin is
    |beta| z1 and the score margin a z1 + r z2 + b, where a = w.beta / |beta|
    and r = sqrt(|w|^2 - a^2).  The 2-D integral is the trapezoid rule in
    both coordinates; ``2 sigma(m) - 1`` is written ``tanh(m / 2)``.  The
    integrand is analytic in a strip of half-width pi / n, with n the larger
    of |beta| and |w|, so the rule's error falls like exp(-2 pi^2 / (n *
    QUAD_STEP)): below 1e-8 up to n = 10.  Each candidate is integrated on
    its own, so its value does not depend on which others share the call.
    """
    coefs = np.asarray(coefs, dtype=float)
    out = np.zeros(coefs.shape[1])
    norm = float(np.linalg.norm(beta))
    if norm == 0.0:
        return out  # labels are fair coins
    label = np.tanh(0.5 * norm * _NODES) * _WEIGHTS
    for j, (w, b) in enumerate(zip(coefs[:-1].T, coefs[-1])):
        a = float(beta @ w) / norm
        r = math.sqrt(max(float(w @ w) - a * a, 0.0))
        score = np.tanh(0.5 * (a * _NODES[:, None] + (r * _NODES + b))) @ _WEIGHTS
        out[j] = score @ label
    return out


@lru_cache(maxsize=64)
def solve_signal_scale(target_risk: float) -> float:
    """Coefficient norm whose best-in-class clipped-hinge risk hits the target."""
    if not 0.0 < target_risk < 0.5:
        raise ValueError("target risk must lie in (0, 0.5)")
    lo, hi = 0.0, 60.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
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
    the start to within 1e-9, so a warm start only saves iterations.
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
    y01 = np.where(labels > 0, 1.0, 0.0)
    n, d = features.shape
    if y01.min() == y01.max():
        rate = (y01.sum() + 1.0) / (n + 2.0)
        coef = np.zeros(d + 1)
        coef[-1] = math.log(rate / (1.0 - rate))
        return coef
    xd = _design(features)
    penalty = np.diag(np.append(np.full(d, cfg.l2), 0.0))
    coef = np.zeros(d + 1) if start is None else np.array(start, dtype=float)
    value, grad, p = _logistic_terms(coef, xd, y01, cfg.l2)
    for _ in range(cfg.iterations):
        largest = np.max(np.abs(grad))
        if largest <= FIT_GRAD_TOL:
            break
        hess = (xd * (p * (1.0 - p))[:, None]).T @ xd / n + penalty
        step = np.linalg.solve(hess, grad)
        decrease = ARMIJO_C * float(grad @ step)
        rounding = 100.0 * np.finfo(float).eps * abs(value)
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = coef - t * step
            trial_value, trial_grad, trial_p = _logistic_terms(trial, xd, y01, cfg.l2)
            if trial_value <= value - t * decrease or (
                abs(trial_value - value) <= rounding and np.max(np.abs(trial_grad)) < largest
            ):
                break
            t *= 0.5
        else:
            break
        coef, value, grad, p = trial, trial_value, trial_grad, trial_p
    if not (np.all(np.isfinite(coef)) and np.all(np.isfinite(grad))):
        raise ValueError("logistic fit produced non-finite coefficients or gradient")
    return coef


@dataclass(frozen=True)
class DeveloperPolicy:
    """Which trailing batches the developer refits on at each step.

    kind:
      last_k        the most recent ``k`` batches
      cycling       window length cycles 1..cycle with step index
      all_data      every batch so far
      mostly_last2  last two batches, except every fourth step uses all
    """

    kind: str
    k: int = 4
    cycle: int = 5

    def window(self, t: int) -> range:
        """Batch indices (1-based) used to train the proposal at time t."""
        if t < 2:
            raise ValueError("proposals from monitoring data start at t = 2")
        if self.kind == "last_k":
            lo = max(1, t - self.k)
        elif self.kind == "cycling":
            length = ((t - 1) % self.cycle) + 1
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
        ScenarioKind.ADAPTIVE_SHIFTS: DeveloperPolicy("last_k", k=4),
        ScenarioKind.SMALL_FREQUENT_SHIFTS: DeveloperPolicy("cycling"),
        ScenarioKind.IID_GOOD_MODELS: DeveloperPolicy("all_data"),
        ScenarioKind.IID_RANDOM_MODELS: DeveloperPolicy("mostly_last2"),
        ScenarioKind.INGESTED: DeveloperPolicy("all_data"),
    }[kind]


@dataclass
class Split:
    train: MonitoringBatch
    validation: MonitoringBatch


def holdout_size(n: int, validation_fraction: float) -> int:
    """Rows of an n-row batch held out for validation: floor(fraction * n),
    which must leave both parts nonempty."""
    n_val = int(validation_fraction * n)
    if not 0 < n_val < n:
        raise ValueError(f"validation fraction {validation_fraction} leaves an empty part")
    return n_val


def split_batch(batch: MonitoringBatch, validation_fraction: float, rng: np.random.Generator) -> Split:
    """Random train/validation partition of ``holdout_size`` validation rows."""
    n_val = holdout_size(batch.size, validation_fraction)
    perm = rng.permutation(batch.size)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    mk = lambda idx: MonitoringBatch(batch.time_index, batch.features[idx], batch.labels[idx])
    return Split(train=mk(train_idx), validation=mk(val_idx))


def developer_propose(
    policy: DeveloperPolicy,
    history: Sequence[MonitoringBatch],
    splits: Sequence[Split],
    t: int,
    cfg: FitConfig,
    start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Refit on the policy's window and return the candidate's coefficients;
    the newest batch contributes only its training slice (its validation
    slice stays prospective for the bound).  ``start`` warm-starts the fit
    (see ``fit_logistic``); it changes the candidate only within the fit's
    stopping tolerance."""
    if len(history) < 1:
        raise ValueError("developer needs at least one monitoring batch")
    window = policy.window(t)
    feats, labels = [], []
    for idx in window:
        if idx == t - 1:
            part = splits[idx - 1].train
        else:
            part = history[idx - 1]
        feats.append(part.features)
        labels.append(part.labels)
    return fit_logistic(np.vstack(feats), np.concatenate(labels), cfg, start=start)


# ---------------------------------------------------------------------------
# Stream generation and drift


@dataclass
class GeneratorState:
    """Mutable state of the data-generating process for one replicate."""

    coeff_history: list[np.ndarray]
    rng: np.random.Generator
    budget: float = 0.0
    shift_count: int = 0
    last_shift_time: int = -(10**9)
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


def generate_batch(gen: GeneratorState, cfg: ScenarioConfig, time_index: int) -> MonitoringBatch:
    """Draw IID observations from the distribution realized at ``time_index``."""
    beta = gen.coeff_history[min(time_index, len(gen.coeff_history) - 1)]
    return MonitoringBatch(time_index, *_draw(gen.rng, beta, cfg.batch_size))


def _class_risks(beta: np.ndarray, probe: np.ndarray, diff: np.ndarray, mean_minus: np.ndarray) -> np.ndarray:
    """Risk of each probed model under the label law of ``beta``; the label
    expectation is analytic, only the feature average is Monte Carlo.

    With p the probability of label +1, a row's expected loss is
    ``loss(-1) + p * (loss(+1) - loss(-1))``, so one product with ``diff``
    serves any loss."""
    p = sigmoid(probe @ beta)
    return mean_minus + p @ diff / len(probe)


def _probe_losses(coefs: np.ndarray, probe: np.ndarray, loss: LossFunction):
    """``(diff, mean_minus)`` for the candidate columns ``coefs`` on the
    probe rows: ``loss(+1) - loss(-1)`` per row and candidate, shape (n, t),
    and the column means of ``loss(-1)``, the two inputs of
    ``_class_risks``.  An affine loss ``(1 - z y) / scale`` gives both in
    closed form in the scores z: ``diff = -2 z / scale`` (scaled in place)
    and ``loss(-1) = (1 + z) / scale``."""
    scores = candidate_scores(coefs, probe)
    if loss.affine:
        mean_minus = (1.0 + scores.mean(axis=0)) / loss.scale
        scores *= -2.0 / loss.scale
        return scores, mean_minus
    loss_minus = loss.of_array(scores, -1.0)
    return loss.of_array(scores, 1.0) - loss_minus, loss_minus.mean(axis=0)


class _WindowMMD:
    """Windowed discrepancy of a candidate coefficient vector against the
    recent history, with the per-history risks precomputed once."""

    def __init__(self, gen: GeneratorState, t_new: int, window: int, probe, diff, mean_minus):
        self.probe = probe
        self.diff = diff
        self.mean_minus = mean_minus
        history_risks = {}
        window_means = []
        for w in range(1, window + 1):
            lo = max(0, t_new - w)
            members = []
            for s in range(lo, t_new):
                # a short history means the distribution has been sitting
                # at its latest value since then
                beta = gen.coeff_history[min(s, len(gen.coeff_history) - 1)]
                key = id(beta)
                if key not in history_risks:
                    history_risks[key] = _class_risks(beta, probe, diff, mean_minus)
                members.append(history_risks[key])
            window_means.append(np.mean(members, axis=0))
        self.window_means = np.array(window_means)  # (window, t)

    def __call__(self, beta_new: np.ndarray) -> float:
        new = _class_risks(beta_new, self.probe, self.diff, self.mean_minus)
        return float(np.max(np.abs(new - self.window_means)))


def _window_mmd(
    gen: GeneratorState,
    t_new: int,
    window: int,
    coefs: np.ndarray,
    loss: LossFunction,
    cfg: ScenarioConfig,
) -> _WindowMMD:
    """The windowed discrepancy over the candidate columns ``coefs``,
    measured on a fresh MMD_PROBE-row probe."""
    probe = gen.rng.standard_normal((MMD_PROBE, cfg.dim))
    diff, mean_minus = _probe_losses(coefs, probe, loss)
    return _WindowMMD(gen, t_new, window, probe, diff, mean_minus)


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


def _budgeted_move(
    gen: GeneratorState,
    path,
    target: float,
    t_new: int,
    window: int,
    coefs: np.ndarray,
    loss: LossFunction,
    cfg: ScenarioConfig,
) -> Optional[np.ndarray]:
    """Furthest point along ``path`` (a map [0, 1] -> coefficients) whose
    windowed risk change stays at or below ``target``: the whole path if it
    fits, else the last feasible multiple of 2**-SHIFT_GRID_BITS found by
    ``_last_feasible``, which is exact when the risk change grows
    monotonically along the path."""
    mmd = _window_mmd(gen, t_new, window, coefs, loss, cfg)
    end = path(1.0)
    f_one = mmd(end)
    if f_one <= target:
        return end
    s = _last_feasible(lambda s: mmd(path(s)), target, f_one)
    return path(s) if s > 0 else None


def _rotation_path(beta: np.ndarray, rng: np.random.Generator, max_angle: float = math.pi / 2):
    """Rotate the coefficients toward a random tangent direction.

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
        angle = s * max_angle
        return norm * (math.cos(angle) * unit + math.sin(angle) * tang)

    return path


def _flip_subset(
    gen: GeneratorState,
    target: float,
    t_new: int,
    window: int,
    coefs: np.ndarray,
    loss: LossFunction,
    cfg: ScenarioConfig,
    victim: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Sign-flip the largest coordinate subset that fits the budget.

    Full flips preserve the coefficient norm; when even one whole
    coordinate overshoots, that coordinate is flipped partially instead:
    scaled by ``1 - 2 s`` with s the last feasible multiple of
    2**-SHIFT_GRID_BITS that ``_last_feasible`` finds, exact when the risk
    change grows monotonically in s.  Given a ``victim`` (the coefficient
    column of the candidate whose approval triggered the shift),
    coordinates it leans on hardest are flipped first, so the budget is
    spent where it hurts that candidate most.
    """
    beta = gen.coefficients
    # the probe is drawn before the coordinate order, which may use the rng
    mmd = _window_mmd(gen, t_new, window, coefs, loss, cfg)
    if victim is not None:
        order = np.argsort(-(victim[: cfg.dim] * beta))
    else:
        order = gen.rng.permutation(cfg.dim)

    def flipped(k: int) -> np.ndarray:
        out = beta.copy()
        out[order[:k]] = -out[order[:k]]
        return out

    f_one = mmd(flipped(1))
    if f_one <= target:
        best = 1
        while best < cfg.dim and mmd(flipped(best + 1)) <= target:
            best += 1
        return flipped(best)

    coord = order[0]

    def path(s: float) -> np.ndarray:
        out = beta.copy()
        out[coord] = (1.0 - 2.0 * s) * out[coord]
        return out

    # path(1.0) is flipped(1) bit for bit (-1.0 * x == -x), so f_one is f(1)
    s = _last_feasible(lambda s: mmd(path(s)), target, f_one)
    return path(s) if s > 0 else None


def apply_shift(
    gen: GeneratorState,
    cfg: ScenarioConfig,
    t_new: int,
    feedback: bool,
    coefs: np.ndarray,
    loss: LossFunction,
    window: int,
) -> None:
    """Realize the distribution for time ``t_new`` and append its coefficients.

    Called at the start of step ``t_new``, before any data from that step
    is drawn: the shift function may depend on everything observed so far,
    including the decision the shadow tester is about to deploy.  IID
    scenarios never move.  The small-shift scenario rotates the
    coefficients by a random amount every fourth step; the adaptive
    scenario sign-flips a budget-sized coordinate subset the moment the
    shadow tester approves a new candidate, so the approved model walks
    straight into the shifted distribution.  A warm-up and a minimum gap
    keep early steps stationary and rule out back-to-back moves.  Every
    move is budget-checked against the windows 1..``window``, the bound
    table's lookback, over the candidate columns ``coefs`` (shape
    (dim + 1, k), k >= 1; ``ValueError`` otherwise), on a fresh
    MMD_PROBE-row probe.  A move that must
    stop partway along its path stops at the last feasible multiple of
    2**-SHIFT_GRID_BITS, located by an ITP search (``_last_feasible``):
    the point 40 halvings of the path would reach whenever the risk change
    grows monotonically along it.
    """
    if coefs.shape[1] == 0:
        raise ValueError("a shift is measured against at least one candidate column")
    beta = gen.coefficients
    shifted = None
    if cfg.kind is ScenarioKind.SMALL_FREQUENT_SHIFTS and t_new % 4 == 0:
        # small relative to the budget: trackable by short-window refits
        target = gen.rng.uniform(0.1, 0.35) * SHIFT_SAFETY * gen.budget
        path = _rotation_path(beta, gen.rng)
        shifted = _budgeted_move(gen, path, target, t_new, window, coefs, loss, cfg)
    elif cfg.kind is ScenarioKind.ADAPTIVE_SHIFTS:
        if feedback:
            gen.pending_shift = True
        allowed = t_new > WARMUP_STEPS and t_new - gen.last_shift_time >= MIN_SHIFT_GAP
        if gen.pending_shift and allowed:
            target = SHIFT_SAFETY * gen.budget
            victim = coefs[:, gen.shadow_top - 1] if gen.shadow_top > 0 else None
            shifted = _flip_subset(gen, target, t_new, window, coefs, loss, cfg, victim)
            gen.pending_shift = False
    if shifted is not None and not np.array_equal(shifted, beta):
        gen.coeff_history.append(shifted)
        gen.shift_count += 1
        gen.last_shift_time = t_new
    else:
        gen.coeff_history.append(beta)


def empirical_mmd(
    sample_a: MonitoringBatch,
    sample_b: MonitoringBatch,
    coefs: np.ndarray,
    loss_cfg: AugmentedLossConfig,
) -> float:
    """Largest absolute risk difference between two samples over the
    candidate columns ``coefs`` (shape (d + 1, k), k >= 1).

    A finite-class lower bound on the population discrepancy; abstention
    costs the same on both samples and contributes nothing.
    """
    if coefs.shape[1] == 0:
        raise ValueError("need at least one candidate column")
    risks = [
        loss_cfg.base.of_array(candidate_scores(coefs, s.features), s.labels[:, None]).mean(axis=0)
        for s in (sample_a, sample_b)
    ]
    return float(np.max(np.abs(risks[0] - risks[1])))


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


def verify_drift(
    coeff_history: Sequence[np.ndarray],
    budget: float,
    window: int,
    coefs: np.ndarray,
    loss_cfg: AugmentedLossConfig,
    n_check: int = 20000,
    tolerance: float = 0.02,
    seed: int = 1234,
) -> DriftReport:
    """Empirically check every windowed discrepancy against the budget.

    For each time t and lookback w, draws ``n_check`` labelled samples from
    the realized distribution at t and the same number (split equally) from
    the pooled window, and compares their discrepancy over the candidate
    columns ``coefs`` (``empirical_mmd``) against budget + tolerance.
    The tolerance is the pre-registered allowance for sampling noise at
    the default ``n_check``.
    """
    rng = np.random.default_rng(seed)
    horizon = len(coeff_history) - 1
    values = np.zeros((horizon, window))
    violations = []

    for t in range(1, horizon + 1):
        current = MonitoringBatch(t, *_draw(rng, coeff_history[t], n_check))
        for w in range(1, window + 1):
            lo = max(0, t - w)
            members = list(range(lo, t))
            per = max(1, n_check // len(members))
            pooled = [_draw(rng, coeff_history[s], per) for s in members]
            mixed = MonitoringBatch(
                t,
                np.vstack([x for x, _ in pooled]),
                np.concatenate([y for _, y in pooled]),
            )
            val = empirical_mmd(current, mixed, coefs, loss_cfg)
            values[t - 1, w - 1] = val
            if val > budget + tolerance:
                violations.append((t, w, val))
    return DriftReport(
        budget=budget,
        tolerance=tolerance,
        max_value=float(values.max()) if values.size else 0.0,
        violations=tuple(violations),
        values=values,
    )


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


def run_replicate(
    scenario: ScenarioConfig,
    meta_cfg: MetaConfig,
    replicate: int,
    batches: Optional[Sequence[MonitoringBatch]] = None,
    fixed_abstain_cost: Optional[float] = None,
) -> ReplicateTrace:
    """Run one replicate end to end.

    For generated scenarios under an affine loss (``LossFunction.affine``,
    the default clipped hinge among them) the abstain cost and the per-step
    true risks are exact: each candidate's expected label-times-score
    under the realized distribution comes from ``label_score_means``, is
    integrated once when the candidate is proposed, and all of them again
    only on a step whose shift moved the distribution.  Other losses
    measure both on fresh Monte Carlo samples of ``scenario.eval_size``
    rows.  For ingested streams (``batches`` given) the batch itself is the
    only evidence and the true risk column equals the empirical one.

    Under an affine loss every deployed risk is ``core.mixture_risks`` of
    one risk row per step: the batch's loss-ledger row for the empirical
    risks, and the abstain cost followed by each candidate's exact risk for
    the true ones.  Other losses score each status's ensemble with
    ``core.deployed_risks``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, replicate]))
    ingested = batches is not None
    loss = meta_cfg.loss
    exact = not ingested and loss.affine
    policy = policy_for_scenario(scenario.kind)

    if ingested:
        if len(batches) < 2:
            raise ValueError("an ingested stream needs at least two batches")
        horizon = len(batches) - 1
        initial = batches[0]
        dim = initial.dim
    else:
        horizon = scenario.horizon
        dim = scenario.dim
        scale = solve_signal_scale(scenario.bayes_risk)
        b0 = rng.standard_normal(dim)
        beta0 = scale * b0 / np.linalg.norm(b0)
        gen = GeneratorState(coeff_history=[beta0], rng=rng)
        rows0 = scenario.initial_batches * scenario.batch_size
        initial = MonitoringBatch(0, *_draw(rng, beta0, rows0))

    split0 = split_batch(initial, meta_cfg.bound.validation_fraction, rng)
    first = CandidateModel(
        fit_logistic(split0.train.features, split0.train.labels, scenario.initial_fit)
    )
    # index 0 stands for abstention, index t for candidate t
    candidates = [None, first]
    if exact:
        # every candidate's E[label * score] under the current distribution
        label_scores = label_score_means(beta0, first.coef[:, None])

    # delta is the initial model's risk on batch 1 or, for a generated
    # stream, under the first deployment distribution, which equals the
    # initial one (shifts cannot fire inside the warm-up)
    if fixed_abstain_cost is not None:
        delta = fixed_abstain_cost
    elif ingested:
        delta = float(np.mean(loss.of_array(first.predict(batches[1].features), batches[1].labels)))
    elif exact:
        delta = float(affine_loss_mean(label_scores[0], loss.scale))
    else:
        x_cal, y_cal = _draw(rng, beta0, scenario.eval_size)
        delta = float(np.mean(loss.of_array(first.predict(x_cal), y_cal)))
        del x_cal, y_cal
    delta = min(max(delta, 1e-6), 1.0 - 1e-6)
    loss_cfg = AugmentedLossConfig(loss, delta)

    margin = meta_cfg.margin_mult * delta
    step_margin = meta_cfg.step_margin_mult * margin
    if not ingested:
        gen.budget = scenario.drift if scenario.drift is not None else delta

    if meta_cfg.rate_mode == "fixed":
        rate = meta_cfg.rate
    else:
        n = scenario.batch_size if not ingested else min(b.size for b in batches[1:])
        inputs = RiskBoundInputs(
            abstain_cost=delta,
            step_margin=step_margin,
            drift=(scenario.drift if scenario.drift is not None else delta),
            rate=1.0,
            cover_alpha=meta_cfg.bound.alpha,
            n_strategies=len(meta_cfg.rows),
            horizon=horizon,
            batch_size=n,
            holdout_size=holdout_size(n, meta_cfg.bound.validation_fraction),
        )
        rate = max_learning_rate(delta + margin, inputs)

    meta = init_meta(meta_cfg.rows, rate, delta, step_margin)
    shadow = init_bank([REPEATED_TTEST], delta, step_margin)

    m = len(meta_cfg.rows)
    trace = ReplicateTrace(
        replicate=replicate,
        abstain_cost=delta,
        meta_rate=rate,
        true_risk=np.zeros(horizon),
        emp_risk=np.zeros(horizon),
        abstain_prob=np.zeros(horizon),
        meta_weights=np.zeros((horizon, m)),
        meta_top=np.zeros(horizon, dtype=int),
        strategy_true_risk=np.zeros((horizon, m)),
        strategy_abstain=np.zeros((horizon, m)),
        coeff_history=np.zeros((0, dim)),
        shift_times=(),
        model_coefs=np.zeros((dim + 1, 0)),
    )

    history: list[MonitoringBatch] = []
    splits: list[Split] = []
    ledger = LossLedger(horizon)
    shift_times: list[int] = []
    # column t - 1 holds candidate t
    coef_mat = np.zeros((dim + 1, horizon))
    coef_mat[:, 0] = first.coef

    for t in range(1, horizon + 1):
        if t >= 2:
            # warm-started at the newest candidate, the initial model at t = 2
            coef_mat[:, t - 1] = developer_propose(policy, history, splits, t, scenario.fit,
                                                   start=coef_mat[:, t - 2])
            candidates.append(CandidateModel(coef_mat[:, t - 1].copy()))
        coefs = coef_mat[:, :t]
        newest = split0 if t == 1 else splits[t - 2]
        table = build_bound_table(
            t, candidates, ledger, (newest.train, newest.validation), meta_cfg.bound, loss_cfg
        )

        # the distribution for step t is realized now, before any data from
        # step t is drawn; the shift function may react to the approval the
        # shadow tester is about to make, since that decision only uses
        # data through t - 1
        shadow_changed = False
        if not ingested and scenario.kind is ScenarioKind.ADAPTIVE_SHIFTS:
            top = int(np.argmax(optimistic_step(shadow, table)[0]))
            shadow_changed = top > 0 and top != gen.shadow_top
            if top > 0:
                gen.shadow_top = top
        shifted = False
        if not ingested:
            before = gen.shift_count
            apply_shift(gen, scenario, t, shadow_changed, coefs, loss, meta_cfg.bound.window)
            shifted = gen.shift_count > before
            if shifted:
                shift_times.append(t)

        weights = meta.weights
        statuses = strategy_statuses(meta, table)
        combined = combine(statuses, weights)
        deployed = np.vstack([statuses, combined])

        if ingested:
            batch = batches[t]
        elif exact:
            beta_t = gen.coeff_history[t]
            if shifted:
                label_scores = label_score_means(beta_t, coefs)
            elif t >= 2:
                label_scores = np.append(label_scores, label_score_means(beta_t, coefs[:, -1:]))
            true_row = np.concatenate(([delta], affine_loss_mean(label_scores, loss.scale)))
            eval_risks = mixture_risks(deployed, true_row)
            batch = generate_batch(gen, scenario, t)
        else:
            # float32 is plenty for a Monte Carlo risk estimate and halves
            # the cost of the widest arrays in the loop
            eval_feats, eval_labels = _draw(
                rng, gen.coeff_history[t], scenario.eval_size, np.float32
            )
            eval_risks = deployed_risks(
                _score_blocks(coefs.astype(np.float32), eval_feats, eval_labels),
                deployed,
                loss_cfg,
            )
            del eval_feats, eval_labels
            batch = generate_batch(gen, scenario, t)
        batch_preds = candidate_scores(coefs, batch.features)
        ledger.record(t, loss.of_array(batch_preds, batch.labels[:, None]))
        blosses = ledger.row(t, delta)
        if loss.affine:
            batch_risks = mixture_risks(deployed, blosses)
        else:
            batch_risks = deployed_risks([(batch_preds, batch.labels)], deployed, loss_cfg)
        if ingested:
            # the batch is the evaluation sample: its risks are the true ones
            eval_risks = batch_risks
        trace.true_risk[t - 1] = eval_risks[-1]
        trace.abstain_prob[t - 1] = combined[0]
        trace.meta_weights[t - 1] = weights
        trace.meta_top[t - 1] = np.argmax(combined)
        trace.strategy_true_risk[t - 1] = eval_risks[:-1]
        trace.strategy_abstain[t - 1] = statuses[:, 0]

        history.append(batch)
        splits.append(split_batch(batch, meta_cfg.bound.validation_fraction, rng))
        trace.emp_risk[t - 1] = batch_risks[-1]
        strat_risks = batch_risks[:-1]

        if t < horizon:
            meta = meta_advance(meta, table, blosses, strat_risks)
            if not ingested and scenario.kind is ScenarioKind.ADAPTIVE_SHIFTS:
                shadow = strategy_advance(shadow, blosses, table.feasible(delta, step_margin))

    trace.coeff_history = (
        np.stack(gen.coeff_history[: horizon + 1]) if not ingested else np.zeros((0, dim))
    )
    trace.shift_times = tuple(shift_times)
    trace.model_coefs = coef_mat.copy()
    return trace


def run_experiment(
    scenario: ScenarioConfig,
    meta_cfg: MetaConfig,
    replicates: int,
    batches: Optional[Sequence[MonitoringBatch]] = None,
    fixed_abstain_cost: Optional[float] = None,
) -> list[ReplicateTrace]:
    """Run ``replicates`` independent replicates of one scenario."""
    if replicates < 1:
        raise ValueError("need at least one replicate")
    return [
        run_replicate(scenario, meta_cfg, r, batches=batches, fixed_abstain_cost=fixed_abstain_cost)
        for r in range(replicates)
    ]
