"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  The four simulated scenarios (15 replicates each) are run
once per session and shared by the criteria that need them; expect the
full module to take several minutes single-core.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from modelgate.bounds import LossLedger, RiskBoundTable, build_bound_table
from modelgate.cli import run
from modelgate.config import RunConfig, load_config
from modelgate.core import CandidateModel, LossFunction, MonitoringBatch
from modelgate.meta import RiskBoundInputs, classical_ewaf_bound, max_learning_rate
from modelgate.sim import (
    FitConfig,
    ScenarioKind,
    exact_drift,
    fit_logistic,
    logistic_objective,
    run_experiment,
    sigmoid,
    solve_signal_scale,
    verify_drift,
)
from modelgate.strategy import brute_force_status, init_bank, step

SEED = 20240801
REPLICATES = 15
TTEST_ROW = 2  # (0.5, 10000, 0) in the 12-row grid
HINGE = LossFunction("clipped_hinge", scale=2.0)

ALL_SCENARIOS = (
    ScenarioKind.ADAPTIVE_SHIFTS,
    ScenarioKind.SMALL_FREQUENT_SHIFTS,
    ScenarioKind.IID_GOOD_MODELS,
    ScenarioKind.IID_RANDOM_MODELS,
)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def experiments():
    """15 replicates of each scenario with the production defaults."""
    out = {}
    started = time.time()
    for kind in ALL_SCENARIOS:
        out[kind] = run_experiment(RunConfig(kind, seed=SEED, replicates=REPLICATES))
    out["elapsed"] = time.time() - started
    return out


def test_criterion_1_recursion_matches_enumeration():
    """Recursion output equals brute-force sequence enumeration (200 cases)."""
    started = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        t_max = int(rng.integers(1, 6))
        delta = float(rng.uniform(0.1, 0.4))
        # (approve_prob, optimism, learn_rate); approve_prob is never 0, so
        # the row is never the fail-safe and starts from the even split
        row = (
            float(rng.uniform(0.0, 1.0)),
            float(rng.choice([0.0, 0.7, 5.0, 1e2, 1e4])),
            float(rng.choice([0.0, 0.5, 2.0, 10.0])),
        )
        margin = float(rng.uniform(0.0, 0.2))
        bank = init_bank([row])
        tables, losses_hist, status = [], [], None
        for t in range(1, t_max + 1):
            bounds = np.empty(t + 1)
            bounds[0] = delta
            # spread around the feasibility threshold so masks activate
            bounds[1:] = rng.uniform(delta - 0.2, delta + margin + 0.25, size=t)
            table = RiskBoundTable(bounds, margin)
            losses = np.concatenate([[delta], rng.uniform(0.0, 1.0, size=t)])
            tables.append(table)
            losses_hist.append(losses)
            status, bank = step(bank, table, losses)
        oracle = brute_force_status(t_max, losses_hist[:-1], tables, row, (0.5, 0.5))
        worst = max(worst, float(np.max(np.abs(status[0] - oracle))))
    elapsed = time.time() - started
    report(
        1,
        worst < 1e-9 and elapsed < 30.0,
        f"max deviation {worst:.2e} over 200 instances in {elapsed:.1f}s "
        f"(needs < 1e-9 and < 30 s)",
    )


def test_criterion_2_classical_bound_anchor():
    """Classical forecaster bound hits 2*cost at rate 0.70."""
    value = classical_ewaf_bound(0.70, 0.15, 10, 50)
    report(2, abs(value - 0.300) <= 0.005, f"classical bound at rate 0.70 is {value:.4f} (0.300 +- 0.005)")


def test_criterion_3_drift_aware_bound_is_flatter():
    """Largest rate still certifying 2*cost is at least 1.8 (vs 0.70)."""
    delta = 0.15
    inputs = RiskBoundInputs(
        abstain_cost=delta, step_margin=0.0, drift=2 * delta,
        cover_alpha=0.0, n_strategies=10, horizon=50,
        batch_size=None, holdout_size=None,
    )
    rate = max_learning_rate(2 * delta, inputs)
    report(3, rate >= 1.8, f"largest certified rate {rate:.3f} (needs >= 1.8)")


def test_criterion_4_solver_magnitude(experiments):
    """Max learning rate lands in [1.0, 2.2] at simulation defaults."""

    def solver_inputs(delta):
        return RiskBoundInputs(
            abstain_cost=delta, step_margin=0.2 * 0.6 * delta, drift=delta,
            cover_alpha=0.1, n_strategies=12, horizon=50,
            batch_size=75, holdout_size=37,
        )

    grid_rates = {d: max_learning_rate(1.6 * d, solver_inputs(d)) for d in (0.15, 0.20, 0.25, 0.30)}
    grid_ok = all(1.0 <= r <= 2.2 for r in grid_rates.values())

    realized = []
    for kind in ALL_SCENARIOS:
        for tr in experiments[kind]:
            realized.append((tr.abstain_cost, tr.meta_rate))
    inside = [(d, r) for d, r in realized if 0.15 <= d <= 0.35]
    realized_ok = len(inside) == len(realized) and all(1.0 <= r <= 2.2 for _, r in inside)
    lo = min(r for _, r in realized)
    hi = max(r for _, r in realized)
    report(
        4,
        grid_ok and realized_ok,
        f"grid rates {', '.join(f'{d}:{r:.3f}' for d, r in sorted(grid_rates.items()))}; "
        f"{len(inside)}/{len(realized)} realized costs in [0.15, 0.35], "
        f"solver range [{lo:.3f}, {hi:.3f}] (needs [1.0, 2.2])",
    )


def test_criterion_5_average_risk_controlled(experiments):
    """Final cumulative true risk stays within cost + margin in every replicate."""
    worst_ratio, worst_case = 0.0, None
    for kind in ALL_SCENARIOS:
        for tr in experiments[kind]:
            ratio = tr.cum_avg_true()[-1] / (1.6 * tr.abstain_cost)
            if ratio > worst_ratio:
                worst_ratio, worst_case = ratio, (kind.value, tr.replicate)
    elapsed = experiments["elapsed"]
    report(
        5,
        worst_ratio <= 1.0 and elapsed < 600.0,
        f"worst final risk is {worst_ratio:.3f} of the 1.6*cost budget "
        f"(at {worst_case}); 60 replicates took {elapsed:.0f}s (needs < 600 s)",
    )


def test_criterion_6a_good_models_adopted(experiments):
    traces = experiments[ScenarioKind.IID_GOOD_MODELS]
    mean_abst = float(np.mean([tr.abstain_prob[-1] for tr in traces]))
    mean_final = float(np.mean([tr.cum_avg_true()[-1] for tr in traces]))
    mean_delta = float(np.mean([tr.abstain_cost for tr in traces]))
    below = sum(tr.cum_avg_true()[-1] < tr.abstain_cost for tr in traces)
    report(
        "6a",
        mean_abst < 0.2 and mean_final < mean_delta,
        f"mean final abstention {mean_abst:.3f} (< 0.2); mean final risk "
        f"{mean_final:.3f} vs cost {mean_delta:.3f}; below cost in {below}/{REPLICATES}",
    )


def test_criterion_6b_meta_beats_the_tester_under_attack(experiments):
    traces = experiments[ScenarioKind.ADAPTIVE_SHIFTS]
    wins = sum(
        tr.cum_avg_true()[-1] <= tr.strategy_cum_avg_true()[-1, TTEST_ROW] for tr in traces
    )
    report("6b", wins >= 12, f"meta-forecaster <= repeated tester in {wins}/{REPLICATES} replicates (needs >= 12)")


def test_criterion_6c_fail_safe_risk_is_exact(experiments):
    exact = True
    for kind in ALL_SCENARIOS:
        for tr in experiments[kind]:
            if not np.all(tr.strategy_true_risk[:, 0] == tr.abstain_cost):
                exact = False
    report("6c", exact, "abstain-only strategy's risk equals the abstain cost exactly at every step")


def test_criterion_7_simultaneous_coverage():
    """Any-candidate UCB failure frequency stays within the alpha budget."""
    started = time.time()
    alpha, trials, t, n, d, window = 0.1, 10_000, 4, 75, 10, 3
    rng = np.random.default_rng(SEED + 7)
    scale = solve_signal_scale(0.10)
    beta = scale * np.array([1.0] + [0.0] * (d - 1))

    def draw(count):
        x = rng.standard_normal((count, d))
        y = np.where(rng.random(count) < sigmoid(x @ beta), 1.0, -1.0)
        return x, y

    candidates = [None]  # index 0 stands for abstention
    for size in (60, 120, 200, 150):
        x, y = draw(size)
        candidates.append(CandidateModel(fit_logistic(x, y, FitConfig(iterations=200))))
    models = [c.predict for c in candidates[1:]]

    # true risks under the (stationary) stream, via a large common sample
    x_ref = rng.standard_normal((400_000, d))
    p_ref = sigmoid(x_ref @ beta)
    true_risk = np.empty(4)
    for j, model in enumerate(models):
        z = model(x_ref)
        lp = np.clip((1 - z) / 2, 0, 1)
        lm = np.clip((1 + z) / 2, 0, 1)
        true_risk[j] = float(np.mean(p_ref * lp + (1 - p_ref) * lm))

    # windows at t=4 with W=3: candidates pool batches 1..3, 2..3, 3..3 and
    # the newest is scored on the 37-observation held-out half of batch 3
    level = alpha / t
    n_val = 37
    pooled_sizes = [3 * n, 2 * n, n, n_val]
    halfwidths = [math.sqrt(math.log(1 / level) / (2 * size)) for size in pooled_sizes]

    failures = 0
    chunk = 500
    for _ in range(trials // chunk):
        x = rng.standard_normal((chunk, 3, n, d))
        p = sigmoid(np.einsum("cbnd,d->cbn", x, beta))
        y = np.where(rng.random((chunk, 3, n)) < p, 1.0, -1.0)
        any_fail = np.zeros(chunk, dtype=bool)
        losses = np.empty((4, chunk, 3, n))
        for j, model in enumerate(models):
            z = model(x.reshape(-1, d)).reshape(chunk, 3, n)
            losses[j] = np.clip((1 - z * y) / 2, 0, 1)
        for j, start in enumerate((0, 1, 2)):
            mean = losses[j, :, start:, :].reshape(chunk, -1).mean(axis=1)
            any_fail |= true_risk[j] > mean + halfwidths[j]
        val_mean = losses[3, :, 2, :n_val].mean(axis=1)
        any_fail |= true_risk[3] > val_mean + halfwidths[3]
        failures += int(any_fail.sum())

    freq = failures / trials
    limit = alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials)
    elapsed = time.time() - started

    # the vectorised UCBs must agree with the production table builder
    x, y = draw(3 * n)
    history = [MonitoringBatch(x[(s - 1) * n : s * n], y[(s - 1) * n : s * n]) for s in (1, 2, 3)]
    val = MonitoringBatch(history[2].features[:n_val], history[2].labels[:n_val])
    ledger = LossLedger(4)
    for s, b in enumerate(history, start=1):
        preds = np.column_stack([model(b.features) for model in models[:s]])
        ledger.record(s, HINGE.of_array(preds, b.labels[:, None]))
    table = build_bound_table(
        4, candidates, ledger, val, HINGE, 0.25, alpha=alpha, window=window, step_margin=0.0,
    )
    for j in range(1, 4):
        pooled = np.concatenate([
            HINGE.of_array(models[j - 1](b.features), b.labels) for b in history[j - 1 :]
        ])
        assert table.bounds[j] == pytest.approx(pooled.mean() + halfwidths[j - 1], abs=1e-12)
    report(
        7,
        freq <= limit and elapsed < 120.0,
        f"simultaneous failure frequency {freq:.4f} (limit {limit:.4f}) "
        f"in {elapsed:.0f}s (needs < 120 s)",
    )


def test_criterion_8_drift_certification(experiments):
    started = time.time()
    worst, violations = 0.0, 0
    for tr in experiments[ScenarioKind.SMALL_FREQUENT_SHIFTS]:
        n_models = tr.model_coefs.shape[1]
        picks = sorted(set(np.linspace(0, n_models - 1, 12, dtype=int).tolist()))
        rep = verify_drift(
            tr.coeff_history, budget=tr.abstain_cost, window=3, coefs=tr.model_coefs[:, picks],
            loss=HINGE, n_check=20000, tolerance=0.02, seed=SEED + tr.replicate,
        )
        worst = max(worst, rep.max_value)
        violations += len(rep.violations)
    elapsed = time.time() - started
    report(
        8,
        violations == 0 and elapsed < 10.0,
        f"0 budget violations expected, got {violations}; worst windowed "
        f"discrepancy {worst:.4f} vs budget ~0.27 (+0.02 tolerance); {elapsed:.1f}s (needs < 10 s)",
    )


def test_criterion_8b_exact_drift_certificate(experiments):
    """Both shifting scenarios, every replicate: the exact windowed risk
    change over the candidates registered by each step never exceeds the
    budget, with zero tolerance."""
    started = time.time()
    worst, violations = {}, 0
    for kind in (ScenarioKind.ADAPTIVE_SHIFTS, ScenarioKind.SMALL_FREQUENT_SHIFTS):
        worst[kind] = 0.0
        for tr in experiments[kind]:
            # the bound table's default lookback, which every shift is checked against
            rep = exact_drift(tr.coeff_history, tr.model_coefs, tr.abstain_cost, 3, HINGE)
            worst[kind] = max(worst[kind], rep.max_value / rep.budget)
            violations += len(rep.violations)
    elapsed = time.time() - started
    report(
        "8b",
        violations == 0 and elapsed < 10.0,
        f"0 exact budget violations expected, got {violations}; worst windowed change "
        f"{worst[ScenarioKind.ADAPTIVE_SHIFTS]:.3f} (adaptive_shifts) and "
        f"{worst[ScenarioKind.SMALL_FREQUENT_SHIFTS]:.3f} (small_frequent_shifts) of budget; "
        f"{elapsed:.1f}s (needs < 10 s)",
    )


def test_criterion_9_manifest_reruns_are_byte_identical(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[run]\n"
        "scenario = small_frequent_shifts\n"
        "horizon = 10\nbatch_size = 50\neval_size = 2000\nreplicates = 2\n"
        f"seed = {SEED}\nout = {tmp_path / 'a'}\n"
        "[meta]\nrate_mode = fixed\nrate = 1.5\n"
    )
    first = run(load_config(config))
    rerun_cfg = dataclasses.replace(load_config(first["manifest"]), out=str(tmp_path / "b"))
    second = run(rerun_cfg)
    same = (
        first["steps"].read_bytes() == second["steps"].read_bytes()
        and first["summary"].read_bytes() == second["summary"].read_bytes()
    )
    report(9, same, "rerun from the emitted manifest reproduced both CSVs byte for byte")


def test_criterion_10_developer_gradient_is_exact():
    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 12))
        X = rng.standard_normal((n, d))
        y01 = (rng.random(n) < 0.5).astype(float)
        coef = rng.standard_normal(d + 1)
        l2 = float(rng.uniform(0.0, 0.2))
        _, grad = logistic_objective(coef, X, y01, l2)
        eps = 1e-6
        for i in range(d + 1):
            e = np.zeros(d + 1)
            e[i] = eps
            up, _ = logistic_objective(coef + e, X, y01, l2)
            dn, _ = logistic_objective(coef - e, X, y01, l2)
            fd = (up - dn) / (2 * eps)
            worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(fd)))
    report(10, worst < 1e-5, f"max relative gradient error {worst:.2e} over 50 instances (needs < 1e-5)")
