import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modelgate.config import RunConfig
from modelgate.core import (
    CandidateModel,
    LossFunction,
    MonitoringBatch,
    affine_loss_mean,
    candidate_scores,
    deployed_risks,
)
from modelgate.sim import (
    EVAL_BLOCK_ROWS,
    FIT_GRAD_TOL,
    MAX_SIGNAL_SCALE,
    MIN_BAYES_RISK,
    DeveloperPolicy,
    FitConfig,
    GeneratorState,
    ScenarioKind,
    TrainingRows,
    apply_shift,
    bayes_hinge_risk,
    developer_propose,
    exact_drift,
    fit_logistic,
    generate_batch,
    label_score_means,
    logistic_objective,
    policy_for_scenario,
    run_experiment,
    run_replicate,
    sigmoid,
    solve_signal_scale,
    split_batch,
    verify_drift,
    _draw,
    _last_feasible,
    _logistic_terms,
    _probe_risks,
    _sample_risks,
    _score_blocks,
    _window_gaps,
)

HINGE = LossFunction("clipped_hinge", scale=2.0)

SMALL = dict(horizon=10, batch_size=40, eval_size=2000)
FIXED_RATE = dict(rate_mode="fixed", rate=1.5)


def small_scenario(kind, seed=5, **kw):
    """A short run of ``kind`` at the fixed learning rate 1.5."""
    return RunConfig(kind, seed=seed, **{**SMALL, **FIXED_RATE, **kw})


def replay_config(**kw):
    """An ingested run at the fixed learning rate 1.5, for replaying batches
    given in code (its data path is never read)."""
    return RunConfig(ScenarioKind.INGESTED, seed=0, data_path="replay.csv", **{**FIXED_RATE, **kw})


def column(coef):
    """One candidate's coefficients as a (d + 1, 1) candidate matrix."""
    return np.asarray(coef, dtype=float)[:, None]


def fine_hinge_risk(signal_scale, step=0.001, half_width=8.5):
    """The exact best-in-class clipped-hinge risk at coefficient norm s,
    ``(1 - E[tanh^2(s z / 2)]) / 2`` for z standard normal, by the 1-D
    trapezoid rule at ``step`` on [-half_width, half_width]: the integrand
    is analytic in a strip of half-width pi / s, so the rule's error is
    about exp(-2 pi^2 / (s * step)), far below rounding up to norm 60."""
    z = step * np.arange(-round(half_width / step), round(half_width / step) + 1)
    wz = step * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return float((1.0 - wz @ np.tanh(0.5 * signal_scale * z) ** 2) / 2.0)


def bisect_200_steps(target_risk):
    """``solve_signal_scale`` without its early stop: 200 bisection steps
    on [0, MAX_SIGNAL_SCALE]."""
    lo, hi = 0.0, MAX_SIGNAL_SCALE
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if bayes_hinge_risk(mid) > target_risk:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestSignalScale:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, MAX_SIGNAL_SCALE))
    def test_rule_matches_the_fine_grid_oracle(self, scale):
        # the rule's error is below 2e-8 up to norm 10 (1.8e-8 there)
        tol = 2e-8 if scale <= 10.0 else 1e-5
        assert abs(bayes_hinge_risk(scale) - fine_hinge_risk(scale)) <= tol

    # 0.10 is the default; MIN_BAYES_RISK, the rule's value at norm 15, is
    # the least target reached, and the largest float below 0.5 needs a
    # norm near 0
    @pytest.mark.parametrize(
        "target", [0.10, 0.08, 0.12, 0.2, 0.3, MIN_BAYES_RISK, 0.49999999999999994]
    )
    def test_solver_matches_the_200_step_bisection(self, target):
        assert solve_signal_scale(target) == bisect_200_steps(target)

    def test_solver_hits_target(self):
        # within 2e-8 of the exact risk wherever label_score_means is that
        # accurate (norms up to about 10: targets from 0.08 up), within 1e-5
        # below that, down to the least target
        for target, tol in [(0.08, 2e-8), (0.10, 2e-8), (0.12, 2e-8), (0.2, 2e-8), (0.3, 2e-8),
                            (0.45, 2e-8), (0.49999999999999994, 2e-8), (0.06, 1e-5),
                            (MIN_BAYES_RISK, 1e-5)]:
            assert abs(fine_hinge_risk(solve_signal_scale(target)) - target) <= tol, target

    def test_least_target_is_the_rule_at_the_top_norm(self):
        assert MAX_SIGNAL_SCALE == 15.0
        assert MIN_BAYES_RISK == bayes_hinge_risk(15.0) == pytest.approx(0.0528148, abs=1e-7)
        assert solve_signal_scale(MIN_BAYES_RISK) > 14.99
        # the top norm is where the rule stops being within 1e-5 of exact
        assert abs(bayes_hinge_risk(15.0) - fine_hinge_risk(15.0)) < 1e-5
        assert abs(bayes_hinge_risk(20.0) - fine_hinge_risk(20.0)) > 1e-5

    def test_default_risk_matches_monte_carlo(self):
        # 4M rows of standard-normal margins, logistic labels and the true
        # predictor's score under the clipped hinge at scale 2
        rng = np.random.default_rng(3)
        scale = solve_signal_scale(0.10)
        parts = []
        for _ in range(4):
            margin = scale * rng.standard_normal(1_000_000)
            y = np.where(rng.random(margin.size) < sigmoid(margin), 1.0, -1.0)
            parts.append(HINGE.of_array(2.0 * sigmoid(margin) - 1.0, y))
        rows = np.concatenate(parts)
        se = rows.std() / math.sqrt(rows.size)
        assert abs(rows.mean() - bayes_hinge_risk(scale)) <= 3.0 * se

    def test_rule_is_the_same_in_any_direction(self):
        rng = np.random.default_rng(4)
        scale = solve_signal_scale(0.10)
        beta = rng.standard_normal(10)
        beta *= scale / np.linalg.norm(beta)
        risk = affine_loss_mean(label_score_means(beta, column(np.append(beta, 0.0)))[0], 2.0)
        assert risk == pytest.approx(bayes_hinge_risk(scale), abs=1e-12)

    # below MIN_BAYES_RISK no norm in the bracket reaches the target
    @pytest.mark.parametrize(
        "target", [0.05, 1e-6, math.nextafter(MIN_BAYES_RISK, 0.0), 0.0, 0.5, math.nan]
    )
    def test_unreachable_target_raises(self, target):
        with pytest.raises(ValueError, match="target risk must lie in"):
            solve_signal_scale(target)

    def test_default_scale_is_pinned(self):
        assert solve_signal_scale(0.10) == 7.773083321558783

    @pytest.mark.parametrize("target", [0.10, MIN_BAYES_RISK, 0.49999999999999994])
    def test_solver_stops_when_the_bracket_cannot_shrink(self, target, monkeypatch):
        import modelgate.sim as sim

        calls = []
        rule = sim.bayes_hinge_risk

        def counting(scale):
            calls.append(scale)
            return rule(scale)

        monkeypatch.setattr(sim, "bayes_hinge_risk", counting)
        scale = solve_signal_scale.__wrapped__(target)
        # each step halves the bracket, which spans 15 / ulp(scale) floats
        # near the answer, so the rule is evaluated far fewer than 200 times
        assert len(calls) == len(set(calls)) <= math.log2(MAX_SIGNAL_SCALE / math.ulp(scale)) + 1

    def test_risk_decreasing_in_scale(self):
        risks = [bayes_hinge_risk(s) for s in np.linspace(0.0, MAX_SIGNAL_SCALE, 61)]
        assert risks[0] == 0.5
        assert all(b < a for a, b in zip(risks, risks[1:]))


class TestFitLogistic:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 4))
        y01 = (rng.random(30) < 0.5).astype(float)
        coef = rng.standard_normal(5)
        _, grad = logistic_objective(coef, X, y01, l2=0.01)
        eps = 1e-6
        for i in range(5):
            e = np.zeros(5)
            e[i] = eps
            up, _ = logistic_objective(coef + e, X, y01, 0.01)
            dn, _ = logistic_objective(coef - e, X, y01, 0.01)
            fd = (up - dn) / (2 * eps)
            assert abs(grad[i] - fd) / max(1.0, abs(fd)) < 1e-5

    def test_separable_toy_reaches_low_hinge_risk(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        coef = fit_logistic(X, y, FitConfig(iterations=2500, l2=1e-4))
        risk = HINGE.of_array(CandidateModel(coef).predict(X), y).mean()
        assert risk < 0.05

    def test_kernel_matches_logaddexp_and_sigmoid(self):
        # one exponential exp(-|m|) serves the loss and the probabilities;
        # at |m| = 800 it underflows to 0, where exp(m) would overflow
        margins = np.array([0.0, 1e-3, -1e-3, 30.0, -30.0, 40.0, -40.0, 800.0, -800.0])
        coef = np.array([1.0, 0.0])
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
            warnings.simplefilter("error")
            for m in margins:
                for y in (0.0, 1.0):
                    xd = np.array([[m], [1.0]])  # one feature row, then the ones
                    value, grad, p = _logistic_terms(coef, xd, np.array([y]), 0.0)
                    want_p = sigmoid(np.array([m]))
                    assert np.all(np.isfinite([value, *grad, *p]))
                    np.testing.assert_allclose(value, np.logaddexp(0.0, m) - y * m, rtol=1e-15, atol=0.0)
                    np.testing.assert_allclose(p, want_p, rtol=1e-15, atol=0.0)
                    np.testing.assert_allclose(grad, (want_p - y) * xd[:, 0], rtol=1e-15, atol=0.0)

    @staticmethod
    def refit_draws(n, draws):
        # the developer's refits: d = 10, l2 = 1e-3, one batch's training
        # slice up to every batch of a long run
        rng = np.random.default_rng(n)
        for _ in range(draws):
            X = rng.standard_normal((n, 10)) * rng.uniform(0.5, 3.0)
            y = np.where(rng.random(n) < sigmoid(X @ rng.standard_normal(10)), 1.0, -1.0)
            yield X, y

    @pytest.mark.parametrize("n, draws", [(150, 100), (14_250, 3)])
    def test_converges_to_gradient_tolerance(self, n, draws):
        # the last Newton steps change the objective by less than its
        # rounding error, so many draws are needed to show that they are
        # still taken
        for X, y in self.refit_draws(n, draws):
            coef = fit_logistic(X, y, FitConfig(l2=1e-3))
            _, grad = logistic_objective(coef, X, (y > 0).astype(float), 1e-3)
            assert np.max(np.abs(grad)) <= FIT_GRAD_TOL

    @pytest.mark.parametrize("n, draws", [(150, 100), (14_250, 3)])
    def test_warm_start_reaches_the_cold_optimum(self, n, draws):
        # started, as in a replicate, at the fit on the older part of the
        # window, one batch of the 150-row draw or most of the long one
        cfg = FitConfig(l2=1e-3)
        for X, y in self.refit_draws(n, draws):
            older = fit_logistic(X[: n // 2], y[: n // 2], cfg)
            warm = fit_logistic(X, y, cfg, start=older)
            cold = fit_logistic(X, y, cfg)
            for coef in (warm, cold):
                _, grad = logistic_objective(coef, X, (y > 0).astype(float), 1e-3)
                assert np.max(np.abs(grad)) <= FIT_GRAD_TOL
            np.testing.assert_allclose(warm, cold, rtol=0.0, atol=1e-9)

    def test_start_at_optimum_is_kept(self):
        X, y = next(self.refit_draws(150, 1))
        coef = fit_logistic(X, y, FitConfig(l2=1e-3))
        again = fit_logistic(X, y, FitConfig(l2=1e-3), start=coef)
        assert np.array_equal(again, coef)

    def test_separable_unpenalised_stops_at_cap(self):
        # with l2 = 0 the optimum is at infinity: the coefficients keep
        # growing with the cap and stay finite
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        short = fit_logistic(X, y, FitConfig(iterations=5, l2=0.0))
        long = fit_logistic(X, y, FitConfig(iterations=50, l2=0.0))
        _, grad = logistic_objective(short, X, (y > 0).astype(float), 0.0)
        assert np.max(np.abs(grad)) > FIT_GRAD_TOL
        assert np.all(np.isfinite(long))
        assert np.linalg.norm(long) > np.linalg.norm(short)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((25, 3))
        y = np.where(rng.random(25) < sigmoid(X @ np.array([1.0, -1.0, 0.5])), 1.0, -1.0)
        cfg = FitConfig(iterations=150)
        a = fit_logistic(X, y, cfg)
        b = fit_logistic(np.vstack([X, X]), np.concatenate([y, y]), cfg)
        assert np.allclose(a, b, atol=1e-12)

    def test_single_class_falls_back_to_intercept(self):
        X = np.random.default_rng(3).standard_normal((10, 3))
        # the smoothed class rate (10 + 1) / (10 + 2) and its complement
        for sign in (1.0, -1.0):
            coef = fit_logistic(X, sign * np.ones(10), FitConfig())
            assert np.array_equal(coef[:-1], np.zeros(3))
            assert coef[-1] == pytest.approx(sign * np.log(11.0), rel=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 3))
        y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        assert np.array_equal(fit_logistic(X, y, FitConfig()), fit_logistic(X, y, FitConfig()))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fit_raises(self, bad):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 3))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        X[7, 1] = bad
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError, match="non-finite"):
            fit_logistic(X, y, FitConfig())

    @pytest.mark.parametrize("kw", [dict(l2=-1e-3), dict(l2=float("nan")), dict(iterations=0)])
    def test_config_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            FitConfig(**kw)


class TestDeveloperPolicies:
    def test_scenario_mapping(self):
        assert policy_for_scenario(ScenarioKind.ADAPTIVE_SHIFTS).kind == "last_k"
        assert policy_for_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS).kind == "cycling"
        assert policy_for_scenario(ScenarioKind.IID_GOOD_MODELS).kind == "all_data"
        assert policy_for_scenario(ScenarioKind.IID_RANDOM_MODELS).kind == "mostly_last2"

    def test_last_k_truncates_at_history_start(self):
        assert list(DeveloperPolicy("last_k").window(3)) == [1, 2]

    def test_cycling_schedule_table(self):
        # window length = ((t-1) mod 5) + 1
        policy = DeveloperPolicy("cycling")
        lengths = {t: len(list(policy.window(t))) for t in range(2, 13)}
        assert lengths[7] == 2
        # schedule ((t-1) mod 5) + 1, truncated at the history start
        expected = [min(((t - 1) % 5) + 1, t - 1) for t in range(2, 13)]
        assert [lengths[t] for t in range(2, 13)] == expected

    def test_all_data_grows_by_one(self):
        policy = DeveloperPolicy("all_data")
        for t in range(2, 8):
            assert len(list(policy.window(t))) == t - 1

    def test_mostly_last2_every_fourth_uses_all(self):
        policy = DeveloperPolicy("mostly_last2")
        assert list(policy.window(8)) == list(range(1, 8))
        assert list(policy.window(7)) == [5, 6]

    def test_developer_sees_only_train_slice_of_newest(self):
        rng = np.random.default_rng(5)
        cfg = RunConfig(ScenarioKind.IID_GOOD_MODELS, **SMALL)
        gen = GeneratorState(coeff_history=[np.zeros(cfg.dim)], rng=rng)
        rows = TrainingRows(2 * cfg.batch_size, cfg.dim)
        history, trains = [], []
        for t in (1, 2):
            b = generate_batch(gen, cfg, t)
            history.append(b)
            trains.append(split_batch(b, 0.5, rng)[0])
            rows.add(b, trains[-1])
            gen.coeff_history.append(gen.coefficients)
        zero = np.zeros(cfg.dim + 1)
        coef = developer_propose(
            DeveloperPolicy("all_data"), rows, np.column_stack([zero, zero]), 3, FitConfig(iterations=50)
        )
        ref_feats = np.vstack([history[0].features, trains[1].features])
        ref_labels = np.concatenate([history[0].labels, trains[1].labels])
        ref = fit_logistic(ref_feats, ref_labels, FitConfig(iterations=50))
        assert np.allclose(coef, ref)
        # the newest candidate reaches the fit as the start, and a
        # start at the optimum is kept
        warm = developer_propose(
            DeveloperPolicy("all_data"), rows, np.column_stack([zero, ref]), 3, FitConfig(iterations=50)
        )
        assert np.array_equal(warm, ref)


def stacked_window(policy, history, splits, t):
    """The oracle for ``TrainingRows``: the developer's window at step t
    stacked batch by batch from ``history`` (batch s at index s - 1), the
    newest batch t - 1 by its training split only (the first part of its
    ``split_batch`` pair)."""
    parts = [splits[s - 1][0] if s == t - 1 else history[s - 1] for s in policy.window(t)]
    return np.vstack([p.features for p in parts]), np.concatenate([p.labels for p in parts])


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_traces_bitwise_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert bitwise_equal(x, y), f.name
        else:
            assert x == y, f.name


def recording_fits(monkeypatch, rows=None):
    """Copies of ``(design, labels01, start, resident)`` of every call of
    the Newton kernel that ``fit_logistic`` and the developer's refits
    share, made while ``monkeypatch`` is active; ``resident`` says whether
    the design passed shares memory with ``rows.design`` (None without
    ``rows``)."""
    import modelgate.sim as sim

    calls = []
    real = sim._newton

    def recording(xd, y01, cfg, start):
        resident = None if rows is None else np.shares_memory(xd, rows.design)
        calls.append((xd.copy(), y01.copy(), None if start is None else np.array(start), resident))
        return real(xd, y01, cfg, start)

    monkeypatch.setattr(sim, "_newton", recording)
    return calls


def stacking_run(monkeypatch, cfg, **kw):
    """``run_replicate`` with every refit on ``stacked_window`` of the
    batches the run split, warm-started at the newest candidate."""
    import modelgate.sim as sim

    history, splits = [], []
    real_split = sim.split_batch

    def recording_split(batch, fraction, rng):
        out = real_split(batch, fraction, rng)
        history.append(batch)
        splits.append(out)
        return out

    def stacking_propose(policy, rows, coefs, t, cfg):
        # the first split is the initial batch's, which no window holds
        features, labels = stacked_window(policy, history[1:], splits[1:], t)
        return sim.fit_logistic(features, labels, cfg, start=coefs[:, t - 2])

    with monkeypatch.context() as mp:
        mp.setattr(sim, "split_batch", recording_split)
        mp.setattr(sim, "developer_propose", stacking_propose)
        return run_replicate(cfg, 0, **kw)


def replay_batches(sizes, dim=3, seed=21):
    """Ingested-style batches 0, 1, ... of the given sizes under one logistic law."""
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(dim)
    out = []
    for n in sizes:
        x = rng.standard_normal((n, dim))
        y = np.where(rng.random(n) < sigmoid(x @ beta), 1.0, -1.0)
        out.append(MonitoringBatch(x, y))
    return out


POLICIES = [
    DeveloperPolicy("last_k"),
    DeveloperPolicy("cycling"),
    DeveloperPolicy("all_data"),
    DeveloperPolicy("mostly_last2"),
]
UNEQUAL = [37, 52, 41, 90, 13, 66, 40, 28, 75, 51, 19, 83]


class TestRefitPath:
    @pytest.mark.parametrize("sizes", [[40] * 12, UNEQUAL], ids=["equal", "unequal"])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.kind)
    def test_each_fit_gets_the_stacked_window(self, policy, sizes, monkeypatch):
        rng = np.random.default_rng(17)
        history = replay_batches([10] + sizes)[1:]
        splits = [split_batch(b, 0.3, rng) for b in history]
        rows = TrainingRows(sum(sizes), history[0].dim)
        coefs = rng.standard_normal((history[0].dim + 1, len(sizes)))
        calls = recording_fits(monkeypatch, rows)
        for t in range(2, 14):
            rows.add(history[t - 2], splits[t - 2][0])
            developer_propose(policy, rows, coefs[:, : t - 1], t, FitConfig())
            features, labels = stacked_window(policy, history, splits, t)
            assert bitwise_equal(calls[-1][0], np.vstack([features.T, np.ones(len(features))]))
            assert bitwise_equal(calls[-1][1], np.where(labels > 0, 1.0, 0.0))
            # the fit reads the resident design in place: no window is copied
            assert calls[-1][3]
        assert len(calls) == 12

    def test_developer_needs_every_earlier_batch(self):
        history = replay_batches([40, 40, 40])
        rows = TrainingRows(120, 3)
        coefs = np.zeros((4, 3))
        with pytest.raises(ValueError, match="needs batches 1..2"):
            developer_propose(DeveloperPolicy("all_data"), rows, coefs, 3, FitConfig())
        for b in history[:2]:
            rows.add(b, b)
        with pytest.raises(ValueError, match="needs batches 1..3"):
            developer_propose(DeveloperPolicy("all_data"), rows, coefs, 4, FitConfig())

    @pytest.mark.parametrize(
        "kind",
        [ScenarioKind.ADAPTIVE_SHIFTS, ScenarioKind.SMALL_FREQUENT_SHIFTS, ScenarioKind.IID_GOOD_MODELS],
    )
    def test_trace_equals_the_stacking_run(self, kind, monkeypatch):
        sc = small_scenario(kind, seed=84, horizon=13)
        assert_traces_bitwise_equal(run_replicate(sc, 0), stacking_run(monkeypatch, sc))

    def test_random_models_stay_within_the_fit_tolerance(self, monkeypatch):
        # only mostly_last2 changes starts, so only the fit's tolerance moves it
        sc = small_scenario(ScenarioKind.IID_RANDOM_MODELS, seed=84, horizon=13)
        a, b = run_replicate(sc, 0), stacking_run(monkeypatch, sc)
        assert np.max(np.abs(a.model_coefs - b.model_coefs)) <= 1e-9

    def test_all_data_refits_start_from_the_last_all_data_candidate(self, monkeypatch):
        calls = recording_fits(monkeypatch)
        sc = small_scenario(ScenarioKind.IID_RANDOM_MODELS, seed=83, horizon=14)
        tr = run_replicate(sc, 0)
        # the first call fits the initial model from zero; then one per step
        assert calls[0][2] is None and len(calls) == sc.horizon
        # mostly_last2 refits on every batch at t = 4, 8, 12; at t = 4 the
        # newest candidate's window also began at batch 1
        source = {8: 4, 12: 8}
        for t, (_, _, start, _) in enumerate(calls[1:], start=2):
            assert bitwise_equal(start, tr.model_coefs[:, source.get(t, t - 1) - 1])
        assert not np.array_equal(tr.model_coefs[:, 3], tr.model_coefs[:, 6])

    def test_replay_trace_equals_the_stacking_run(self, monkeypatch):
        batches = replay_batches([60] + UNEQUAL + [45])
        sc = replay_config(dim=3)
        assert_traces_bitwise_equal(
            run_replicate(sc, 0, batches=batches),
            stacking_run(monkeypatch, sc, batches=batches),
        )


class TestGenerator:
    def test_fixed_seed_reproduces_batch(self):
        cfg = small_scenario(ScenarioKind.IID_GOOD_MODELS)
        a = generate_batch(GeneratorState([np.ones(cfg.dim)], np.random.default_rng(9)), cfg, 0)
        b = generate_batch(GeneratorState([np.ones(cfg.dim)], np.random.default_rng(9)), cfg, 0)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_coefficients_balanced_labels(self):
        cfg = RunConfig(ScenarioKind.IID_GOOD_MODELS, horizon=5, batch_size=20000, eval_size=100)
        batch = generate_batch(GeneratorState([np.zeros(cfg.dim)], np.random.default_rng(10)), cfg, 0)
        assert batch.labels.mean() == pytest.approx(0.0, abs=0.03)

    def test_large_batch_risk_matches_monte_carlo(self):
        cfg = RunConfig(ScenarioKind.IID_GOOD_MODELS, horizon=5, batch_size=60000, eval_size=100)
        beta = np.array([1.5, -0.5, 0.25, 0, 0, 0, 0, 0, 0, 0.7])
        gen = GeneratorState([beta], np.random.default_rng(11))
        batch = generate_batch(gen, cfg, 0)
        model = CandidateModel(np.concatenate([beta, [0.0]]))
        emp = HINGE.of_array(model.predict(batch.features), batch.labels).mean()
        rng = np.random.default_rng(12)
        X = rng.standard_normal((10**6, cfg.dim))
        p = sigmoid(X @ beta)
        z = 2 * sigmoid(X @ beta) - 1
        truth = np.mean(p * np.clip((1 - z) / 2, 0, 1) + (1 - p) * np.clip((1 + z) / 2, 0, 1))
        se = 3 * 0.5 / np.sqrt(batch.size)
        assert abs(emp - truth) < se

    def test_rotation_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="dim must be >= 2"):
            small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, dim=1)
        # a sign flip and an IID stream are defined in one dimension
        for kind in (ScenarioKind.ADAPTIVE_SHIFTS, ScenarioKind.IID_GOOD_MODELS):
            assert small_scenario(kind, dim=1).dim == 1

    def test_iid_scenarios_never_shift(self):
        for kind in (ScenarioKind.IID_GOOD_MODELS, ScenarioKind.IID_RANDOM_MODELS):
            cfg = small_scenario(kind)
            gen = GeneratorState([np.ones(cfg.dim)], np.random.default_rng(13), budget=0.3)
            coefs = np.ones((cfg.dim + 1, 1))
            for t in range(1, 9):
                apply_shift(gen, cfg, t, False, coefs, HINGE)
            assert gen.shift_times == []
            assert all(np.array_equal(c, gen.coeff_history[0]) for c in gen.coeff_history)

    def test_small_frequent_shift_times(self):
        cfg = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, horizon=13)
        beta = solve_signal_scale(0.1) * np.ones(cfg.dim) / np.sqrt(cfg.dim)
        gen = GeneratorState([beta], np.random.default_rng(14), budget=0.27)
        coefs = column(np.concatenate([beta, [0.0]]))
        shifted_at = [t for t in range(1, 14) if apply_shift(gen, cfg, t, False, coefs, HINGE)]
        assert shifted_at == gen.shift_times == [4, 8, 12]

    @pytest.mark.parametrize("kind,seed", [(ScenarioKind.ADAPTIVE_SHIFTS, 2),
                                           (ScenarioKind.SMALL_FREQUENT_SHIFTS, 4)])
    def test_moves_are_reported_at_the_trace_shift_times(self, kind, seed, monkeypatch):
        import modelgate.sim as sim

        returned = []
        real = sim.apply_shift

        def recording(gen, cfg, t_new, *args):
            returned.append(real(gen, cfg, t_new, *args))
            return returned[-1]

        monkeypatch.setattr(sim, "apply_shift", recording)
        tr = run_replicate(small_scenario(kind, seed=seed, horizon=16), 0)
        assert tr.shift_times and len(returned) == tr.horizon
        assert all(type(moved) is bool for moved in returned)
        assert tuple(t for t, moved in enumerate(returned, start=1) if moved) == tr.shift_times
        # a move is a change of the coefficients, and nothing else is
        for t, moved in enumerate(returned, start=1):
            assert moved == (not np.array_equal(tr.coeff_history[t], tr.coeff_history[t - 1]))

    def test_rotation_preserves_norm(self):
        cfg = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS)
        beta = solve_signal_scale(0.1) * np.ones(cfg.dim) / np.sqrt(cfg.dim)
        gen = GeneratorState([beta], np.random.default_rng(15), budget=0.27)
        assert apply_shift(gen, cfg, 4, False, column(np.concatenate([beta, [0.0]])), HINGE)
        assert gen.shift_times == [4]
        assert np.linalg.norm(gen.coefficients) == pytest.approx(np.linalg.norm(beta), rel=1e-9)


class TestShiftProbe:
    def test_probe_risks_match_two_product_form(self):
        # the old form: per-model predict columns, then the label expectation
        # as p @ loss(+1) + (1 - p) @ loss(-1)
        rng = np.random.default_rng(21)
        n, dim = 5000, 4
        probe = rng.standard_normal((n, dim))
        coefs = rng.normal(0.0, 1.0, size=(dim + 1, 6))
        scores = np.column_stack([CandidateModel(c).predict(probe) for c in coefs.T])
        for loss in (HINGE, LossFunction("clipped_hinge", scale=1.5), LossFunction("zero_one"),
                     LossFunction("scaled_absolute", scale=2.0), LossFunction("clipped_hinge", scale=3.0)):
            risks = _probe_risks(coefs, probe, loss)
            loss_plus, loss_minus = loss.of_array(scores, 1.0), loss.of_array(scores, -1.0)
            for beta in rng.normal(0.0, 1.5, size=(5, dim)):
                p = sigmoid(probe @ beta)
                want = p @ loss_plus / n + (1.0 - p) @ loss_minus / n
                np.testing.assert_allclose(risks(beta), want, rtol=0.0, atol=1e-12)

    def test_zero_columns_rejected(self):
        # a shift is measured against the live candidates, and there is always one
        for kind in (ScenarioKind.SMALL_FREQUENT_SHIFTS, ScenarioKind.IID_GOOD_MODELS):
            cfg = small_scenario(kind)
            gen = GeneratorState([np.ones(cfg.dim)], np.random.default_rng(22), budget=0.3)
            with pytest.raises(ValueError, match="at least one candidate column"):
                apply_shift(gen, cfg, 4, False, np.zeros((cfg.dim + 1, 0)), HINGE)
            assert len(gen.coeff_history) == 1

    @pytest.mark.parametrize("lean", [7, 3, 0])
    def test_victim_column_flips_its_most_aligned_coordinate_first(self, lean):
        # the victim leans on coordinate ``lean``, then on the highest index:
        # a small budget flips ``lean`` partway, a larger one flips it whole
        # and then the next most aligned coordinate
        cfg = small_scenario(ScenarioKind.ADAPTIVE_SHIFTS, horizon=12)
        beta = solve_signal_scale(0.1) * np.ones(cfg.dim) / np.sqrt(cfg.dim)
        victim = np.append(0.01 * np.arange(cfg.dim), 0.0)
        victim[lean] = 3.0
        coefs = np.column_stack([np.append(beta, 0.0), victim])
        for budget, flipped in ((0.05, [lean]), (0.27, sorted({lean, cfg.dim - 1}))):
            gen = GeneratorState([beta], np.random.default_rng(23), budget=budget, shadow_top=2)
            assert apply_shift(gen, cfg, 6, True, coefs, HINGE)
            changed = np.flatnonzero(gen.coefficients != beta)
            assert gen.shift_times == [6] and changed.tolist() == flipped
            ratio = gen.coefficients[changed] / beta[changed]
            if budget == 0.05:
                assert 0.0 < ratio[0] < 1.0  # a partial flip
            else:
                assert ratio.tolist() == [-1.0] * len(flipped)


GRID_UNIT = 2.0 ** -40


def bisection_last_feasible(f, target):
    """The oracle: the 40-halving bisection ``_last_feasible`` replaced."""
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if f(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def counted_search(f, target, f_one=None):
    """``_last_feasible``'s answer and the number of times it called ``f``."""
    calls = []

    def counting(s):
        calls.append(s)
        return f(s)

    return _last_feasible(counting, target, f(1.0) if f_one is None else f_one), len(calls)


# nondecreasing shapes; with target f(c) the predicate turns false just past
# c (past c + 0.25 for flat_at_target, whose target c it equals on that span)
MONOTONE_SHAPES = {
    "smooth": lambda s, c: math.expm1(3.0 * s),
    "step": lambda s, c: 0.0 if s <= c else 1.0,
    "kink": lambda s, c: 0.1 * s + 5.0 * max(0.0, s - 0.5),
    "flat_at_target": lambda s, c: min(s, c) + max(0.0, s - min(1.0, c + 0.25)),
    "cubic": lambda s, c: (s - 0.3) ** 3,
    "tanh": lambda s, c: math.tanh(1e6 * (s - c)),
}

crossings = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(0, 2**40 - 1).map(lambda k: k * GRID_UNIT),  # exactly on a grid point
    st.floats(1.0 - GRID_UNIT, 1.0),  # in the last grid unit before 1
)


class TestShiftSearch:
    """``_last_feasible`` against the bisection it replaced."""

    @given(shape=st.sampled_from(sorted(MONOTONE_SHAPES)), c=crossings,
           infeasible_start=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_bisection_on_monotone_predicates(self, shape, c, infeasible_start):
        f = lambda s: MONOTONE_SHAPES[shape](s, c)  # noqa: E731
        target = f(c) if shape != "flat_at_target" else c
        if infeasible_start:
            target = f(0.0) - 1.0
        got, evaluations = counted_search(f, target)
        assert got == bisection_last_feasible(f, target)
        assert evaluations <= 42
        if infeasible_start:
            assert got == 0.0 and evaluations == 1

    @pytest.mark.parametrize("c", [0.0, GRID_UNIT, 0.25 + 3 * GRID_UNIT, 0.75, 1.0 - GRID_UNIT])
    @pytest.mark.parametrize("f_one", [1.0, math.nan, math.inf])
    def test_nan_counts_as_infeasible(self, c, f_one):
        f = lambda s: s if s <= c else math.nan  # noqa: E731
        assert _last_feasible(f, 1.0, f_one) == bisection_last_feasible(f, 1.0) == c
        assert _last_feasible(lambda s: math.nan, 1.0, f_one) == 0.0

    def test_trace_equals_the_bisection_trace(self, monkeypatch):
        import modelgate.sim as sim

        cases = [(ScenarioKind.ADAPTIVE_SHIFTS, 2, 16), (ScenarioKind.ADAPTIVE_SHIFTS, 3, 16),
                 (ScenarioKind.SMALL_FREQUENT_SHIFTS, 1, 12), (ScenarioKind.SMALL_FREQUENT_SHIFTS, 4, 12)]
        for kind, seed, horizon in cases:
            sc = small_scenario(kind, seed=seed, horizon=horizon)
            fast = run_replicate(sc, 0)
            searches = []
            with monkeypatch.context() as mp:
                mp.setattr(sim, "_last_feasible",
                           lambda f, target, f_one: searches.append(target) or bisection_last_feasible(f, target))
                slow = run_replicate(sc, 0)
            assert searches, (kind, seed)
            for name in (fl.name for fl in dataclasses.fields(fast)):
                a, b = getattr(fast, name), getattr(slow, name)
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, (kind, seed, name)

    def test_replicate_searches_are_short(self, monkeypatch):
        import modelgate.sim as sim

        counts = []

        def counting(f, target, f_one):
            out, calls = counted_search(f, target, f_one)
            counts.append(calls + 1)  # and f(1), which the caller evaluated
            return out

        monkeypatch.setattr(sim, "_last_feasible", counting)
        for seed in range(1, 5):
            run_replicate(small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=seed, horizon=50), 0)
        assert len(counts) == 48  # a rotation every fourth step
        assert np.mean(counts) <= 12 and max(counts) <= 43


def sample_mmd(sample_a, sample_b, coefs, loss):
    """The empirical discrepancy of two ``(x, y)`` samples as ``verify_drift``
    takes it: the largest gap between a candidate's mean losses on them."""
    gap = _sample_risks(coefs, *sample_a, loss) - _sample_risks(coefs, *sample_b, loss)
    return float(np.max(np.abs(gap)))


class TestEmpiricalMmd:
    """The empirical discrepancy of two samples, from ``sim._sample_risks``."""

    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(16)
        b = (rng.standard_normal((50, 3)), np.where(rng.random(50) < 0.5, 1.0, -1.0))
        assert sample_mmd(b, b, column([1.0, 0, 0, 0]), HINGE) == 0.0

    def test_single_model_gives_exact_risk_difference(self):
        rng = np.random.default_rng(17)
        a = (rng.standard_normal((40, 2)), np.ones(40))
        b = (rng.standard_normal((40, 2)), -np.ones(40))
        model = CandidateModel(np.array([1.0, 0.0, 0.0]))
        la = HINGE.of_array(model.predict(a[0]), a[1]).mean()
        lb = HINGE.of_array(model.predict(b[0]), b[1]).mean()
        assert _sample_risks(column(model.coef), *a, HINGE).tolist() == [la]
        assert sample_mmd(a, b, column(model.coef), HINGE) == pytest.approx(abs(la - lb))

    def test_known_shift_matches_monte_carlo(self):
        # mean-shifted label law: compare against a one-million-sample oracle
        d = 4
        beta1 = np.array([2.0, 0.0, 0.0, 0.0])
        beta2 = np.array([0.5, 0.0, 0.0, 0.0])
        model = CandidateModel(np.array([1.0, 0, 0, 0, 0]))
        rng = np.random.default_rng(18)

        def draw(beta, n, seed):
            r = np.random.default_rng(seed)
            X = r.standard_normal((n, d))
            y = np.where(r.random(n) < sigmoid(X @ beta), 1.0, -1.0)
            return X, y

        big = 10**6
        Xo = rng.standard_normal((big, d))
        z = model.predict(Xo)
        diff = 0.0
        for sign, beta in ((1, beta1), (-1, beta2)):
            p = sigmoid(Xo @ beta)
            lp = np.clip((1 - z) / 2, 0, 1)
            lm = np.clip((1 + z) / 2, 0, 1)
            diff += sign * np.mean(p * lp + (1 - p) * lm)
        truth = abs(diff)
        n = 30000
        got = sample_mmd(draw(beta1, n, 1), draw(beta2, n, 2), column(model.coef), HINGE)
        assert abs(got - truth) < 3 * 0.5 * np.sqrt(2.0 / n)

    @pytest.mark.parametrize("loss", [HINGE, LossFunction("zero_one"),
                                      LossFunction("clipped_hinge", scale=1.5)])
    def test_matches_the_per_model_loop(self, loss):
        rng = np.random.default_rng(19)
        for k in (1, 2, 7, 30):
            coefs = rng.normal(0.0, 1.5, size=(5, k))
            a, b = ((rng.standard_normal((n, 4)), np.where(rng.random(n) < 0.5, 1.0, -1.0))
                    for n in (500, 700))
            got = sample_mmd(a, b, coefs, loss)
            assert got == pytest.approx(per_model_mmd(a, b, coefs, loss), rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("scale", [2.0, 3.5])
    def test_affine_branch_matches_the_loss_matrix_mean(self, scale):
        loss = LossFunction("clipped_hinge", scale=scale)
        assert loss.affine
        rng = np.random.default_rng(20)
        for k in (1, 12):
            coefs = rng.normal(0.0, 2.0, size=(11, k))
            x, y = _draw(rng, rng.normal(0.0, 2.0, size=10), 20000)
            got = _sample_risks(coefs, x, y, loss)
            want = loss.of_array(candidate_scores(coefs, x), y[:, None]).mean(axis=0)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        with pytest.raises(ValueError, match="labels in"):
            _sample_risks(coefs, x, np.where(y > 0, 1.0, 0.0), loss)

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one candidate column"):
            verify_drift([np.ones(2)] * 3, budget=0.1, window=2, coefs=np.zeros((3, 0)),
                         loss=HINGE, n_check=10)


def per_model_mmd(sample_a, sample_b, coefs, loss):
    """The oracle: the discrepancy of two ``(x, y)`` samples as a loop over
    the candidates, each scored on its own by ``predict``."""
    worst = 0.0
    for coef in coefs.T:
        model = CandidateModel(coef.copy())
        la = loss.of_array(model.predict(sample_a[0]), sample_a[1])
        lb = loss.of_array(model.predict(sample_b[0]), sample_b[1])
        worst = max(worst, abs(float(la.mean()) - float(lb.mean())))
    return worst


@pytest.fixture(scope="module")
def small_shifts_trace():
    tr = run_replicate(small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=83, horizon=12), 0)
    assert tr.shift_times
    return tr


def per_model_risks(coefs, x, y, loss):
    """Each candidate's mean loss on ``(x, y)``, scored on its own by ``predict``."""
    return np.array([loss.of_array(CandidateModel(coef.copy()).predict(x), y).mean() for coef in coefs.T])


def per_distribution_drift(coeff_history, budget, window, coefs, loss, n_check, tolerance, seed,
                           score=_sample_risks):
    """The oracle: ``verify_drift``'s values and violations.  One ``n_check``-row
    sample per distinct distribution of the history, drawn by ``sim._draw`` in
    order of first appearance and scored by ``score``; each (t, w) value is
    composed from the members of its own window."""
    rng = np.random.default_rng(seed)
    by_value = {}
    for beta in coeff_history:
        key = tuple(beta.tolist())
        if key not in by_value:
            by_value[key] = score(coefs, *_draw(rng, beta, n_check), loss)
    risks = np.array([by_value[tuple(beta.tolist())] for beta in coeff_history])
    horizon = len(coeff_history) - 1
    values = np.zeros((horizon, window))
    violations = []
    for t in range(1, horizon + 1):
        for w in range(1, window + 1):
            val = float(np.max(np.abs(risks[t] - risks[max(0, t - w) : t].mean(axis=0))))
            values[t - 1, w - 1] = val
            if val > budget + tolerance:
                violations.append((t, w, val))
    return values, tuple(violations)


class TestVerifyDrift:
    def test_iid_history_is_quiet(self):
        beta = solve_signal_scale(0.1) * np.eye(1, 6, 0).ravel()
        history = [beta] * 6
        coefs = column(np.concatenate([beta, [0.0]]))
        report = verify_drift(history, budget=0.25, window=3, coefs=coefs,
                              loss=HINGE, n_check=4000, seed=1)
        assert report.ok
        assert report.max_value < 0.03

    def test_oversized_shift_flagged(self):
        scale = solve_signal_scale(0.1)
        beta = scale * np.eye(1, 6, 0).ravel()
        history = [beta, beta, -beta, -beta]  # full flip: risk gap far above budget
        coefs = column(np.concatenate([beta, [0.0]]))
        report = verify_drift(history, budget=0.1, window=3, coefs=coefs,
                              loss=HINGE, n_check=4000, seed=2)
        assert not report.ok
        assert any(t == 2 for t, _, _ in report.violations)

    def test_shifting_trace_matches_the_per_model_loop(self, small_shifts_trace):
        # a budget below most windows' discrepancy, so there are violations to compare
        tr = small_shifts_trace
        args = (3, tr.model_coefs, HINGE, 3000, 0.0, 5)
        want = per_distribution_drift(tr.coeff_history, 1.0, *args, score=per_model_risks)[0]
        # windows with the same members tie, so the budget sits midway
        # between the two middle distinct values, clear of rounding
        levels = np.unique(want)
        budget = float(levels[len(levels) // 2 - 1 : len(levels) // 2 + 1].mean())
        report = verify_drift(tr.coeff_history, budget=budget, window=3, coefs=tr.model_coefs,
                              loss=HINGE, n_check=3000, tolerance=0.0, seed=5)
        np.testing.assert_allclose(report.values, want, rtol=0.0, atol=1e-14)
        flagged = [(t, w) for t, w, _ in report.violations]
        assert flagged and flagged == [(t + 1, w + 1) for t, w in zip(*np.nonzero(want > budget))]

    @pytest.mark.parametrize("loss", [HINGE, LossFunction("clipped_hinge", scale=1.5)],
                             ids=["clipped_hinge", "clipped_hinge_scale1.5"])
    def test_values_equal_the_per_window_composition_bit_for_bit(self, loss, small_shifts_trace):
        tr = small_shifts_trace
        args = (3, tr.model_coefs, loss, 3000, 0.0, 5)
        # a budget that flags about half the windows
        budget = float(np.median(per_distribution_drift(tr.coeff_history, 1.0, *args)[0]))
        want, flagged = per_distribution_drift(tr.coeff_history, budget, *args)
        report = verify_drift(tr.coeff_history, budget=budget, window=3, coefs=tr.model_coefs,
                              loss=loss, n_check=3000, tolerance=0.0, seed=5)
        assert bitwise_equal(report.values, want)
        assert flagged and report.violations == flagged

    def test_a_window_of_one_distribution_gives_zero(self, small_shifts_trace):
        # each distribution is sampled once, so a step whose window holds
        # only its own distribution compares a sample with itself
        tr = small_shifts_trace
        report = verify_drift(tr.coeff_history, budget=1.0, window=3, coefs=tr.model_coefs,
                              loss=HINGE, n_check=3000, seed=5)
        still = moved = 0
        for t in range(1, len(tr.coeff_history)):
            for w in range(1, 4):
                window = tr.coeff_history[max(0, t - w) : t + 1]
                if np.all(window == window[0]):
                    assert report.values[t - 1, w - 1] <= 1e-15, (t, w)
                    still += 1
                else:
                    moved += report.values[t - 1, w - 1] > 1e-3
        assert still and moved

    def test_agrees_with_the_exact_certificate(self, small_shifts_trace):
        # each step's values over the candidates registered by then; the
        # hinge loss lies in [0, 1], so a sample risk's standard error is at
        # most 1 / (2 sqrt(n)), and a gap's error is a fixed combination of
        # those of the distinct distributions it weighs
        tr = small_shifts_trace
        n = 20000
        exact = exact_drift(tr.coeff_history, tr.model_coefs, 1.0, 3, HINGE)
        which = np.unique(tr.coeff_history, axis=0, return_inverse=True)[1].reshape(-1)
        for t in range(1, len(tr.coeff_history)):
            sampled = verify_drift(tr.coeff_history[: t + 1], budget=1.0, window=3,
                                   coefs=tr.model_coefs[:, :t], loss=HINGE, n_check=n, seed=6)
            for w in range(1, 4):
                members = which[max(0, t - w) : t]
                weight = np.bincount([which[t]], minlength=which.max() + 1) - np.bincount(
                    members, minlength=which.max() + 1) / len(members)
                se = 0.5 * float(np.linalg.norm(weight)) / math.sqrt(n)
                gap = abs(sampled.values[t - 1, w - 1] - exact.values[t - 1, w - 1])
                assert gap <= 5.0 * se + 1e-15, (t, w)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_raises(self, window, small_shifts_trace):
        tr = small_shifts_trace
        with pytest.raises(ValueError, match="window must be >= 1"):
            verify_drift(tr.coeff_history, budget=0.1, window=window, coefs=tr.model_coefs,
                         loss=HINGE, n_check=10)
        with pytest.raises(ValueError, match="window must be >= 1"):
            exact_drift(tr.coeff_history, tr.model_coefs, 0.1, window, HINGE)

    def test_violations_hold_python_numbers(self, small_shifts_trace):
        tr = small_shifts_trace
        reports = (
            verify_drift(tr.coeff_history, budget=0.0, window=3, coefs=tr.model_coefs,
                         loss=HINGE, n_check=500, tolerance=0.0),
            exact_drift(tr.coeff_history, tr.model_coefs, 0.0, 3, HINGE),
        )
        for report in reports:
            assert report.violations
            for t, w, value in report.violations:
                assert type(t) is int and type(w) is int and type(value) is float
            assert repr(report.violations[0]).startswith(f"({report.violations[0][0]}, ")


def per_member_exact_values(coeff_history, model_coefs, window):
    """The oracle: ``exact_drift``'s (T, window) values, each candidate's
    risk integrated afresh for every window member."""
    horizon = len(coeff_history) - 1
    values = np.zeros((horizon, window))
    for t in range(1, horizon + 1):
        coefs = model_coefs[:, :t]
        current = affine_loss_mean(label_score_means(coeff_history[t], coefs), 2.0)
        for w in range(1, window + 1):
            members = [affine_loss_mean(label_score_means(coeff_history[s], coefs), 2.0)
                       for s in range(max(0, t - w), t)]
            values[t - 1, w - 1] = np.max(np.abs(current - sum(members) / len(members)))
    return values


def monte_carlo_risks(rng, beta, coefs, rows=1_000_000, chunk=100_000):
    """Each column's hinge risk under the law of ``beta`` and its standard
    error, from ``rows`` float64 draws of features and labels."""
    total, squares = np.zeros(coefs.shape[1]), np.zeros(coefs.shape[1])
    for _ in range(rows // chunk):
        x, y = _draw(rng, beta, chunk)
        losses = HINGE.of_array(candidate_scores(coefs, x), y[:, None])
        total += losses.sum(axis=0)
        squares += (losses * losses).sum(axis=0)
    mean = total / rows
    return mean, np.sqrt((squares / rows - mean * mean) / rows)


class TestExactDrift:
    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_window_gaps_equal_the_per_member_recompute(self, window):
        rng = np.random.default_rng(31)
        for steps in (1, 4, 9):
            history, row = rng.uniform(0.0, 1.0, size=(steps, 5)), rng.uniform(0.0, 1.0, size=5)
            want = []
            for w in range(1, window + 1):
                members = history[max(0, steps - w):]
                want.append(max(abs(row[j] - math.fsum(members[:, j]) / len(members))
                                for j in range(5)))
            np.testing.assert_allclose(_window_gaps(history, window)(row), want, rtol=0.0, atol=1e-15)

    def test_values_equal_the_per_member_recompute(self, small_shifts_trace):
        tr = small_shifts_trace
        want = per_member_exact_values(tr.coeff_history, tr.model_coefs, 3)
        # a budget that flags about half the windows
        budget = float(np.median(want))
        report = exact_drift(tr.coeff_history, tr.model_coefs, budget, 3, HINGE)
        np.testing.assert_allclose(report.values, want, rtol=0.0, atol=1e-15)
        assert report.tolerance == 0.0 and report.max_value == report.values.max()
        flagged = [(t, w) for t, w, _ in report.violations]
        assert flagged and flagged == [(t + 1, w + 1) for t, w in zip(*np.nonzero(want > budget))]

    def test_matches_float64_monte_carlo(self, small_shifts_trace):
        # at the worst step, every window's value against 10^6 labelled rows
        # per distribution: each candidate's Monte Carlo gap is within five
        # standard errors of its exact gap, so the largest is too
        tr = small_shifts_trace
        report = exact_drift(tr.coeff_history, tr.model_coefs, tr.abstain_cost, 3, HINGE)
        t = int(np.argmax(report.values.max(axis=1))) + 1
        rng = np.random.default_rng(32)
        coefs = tr.model_coefs[:, :t]
        current, current_se = monte_carlo_risks(rng, tr.coeff_history[t], coefs)
        members = [monte_carlo_risks(rng, tr.coeff_history[s], coefs) for s in range(max(0, t - 3), t)]
        for w in range(1, 4):
            means, ses = zip(*members[-w:])
            gap = current - sum(means) / w
            se = np.sqrt(current_se**2 + sum(e**2 for e in ses) / w**2)
            assert abs(report.values[t - 1, w - 1] - np.max(np.abs(gap))) <= 5.0 * se.max()

    def test_counts_only_the_candidates_registered_by_each_step(self):
        # a full flip at step 3: the model aligned with the old law is hurt
        # the most, but it is only measured from the step it is registered at
        beta = solve_signal_scale(0.1) * np.eye(1, 6, 0).ravel()
        history = np.array([beta, beta, beta, -beta])
        aligned, blind = np.append(beta, 0.0), np.zeros(7)
        late = exact_drift(history, np.column_stack([blind, blind, blind, aligned]), 0.1, 2, HINGE)
        assert late.ok and late.max_value == 0.0
        early = exact_drift(history, np.column_stack([blind, blind, aligned]), 0.1, 2, HINGE)
        assert [(t, w) for t, w, _ in early.violations] == [(3, 1), (3, 2)]

    @pytest.mark.parametrize("loss", [LossFunction("zero_one"), LossFunction("scaled_absolute", scale=2.0),
                                      LossFunction("clipped_hinge", scale=1.5)],
                             ids=["zero_one", "scaled_absolute", "clipped_hinge_scale1.5"])
    def test_non_affine_loss_raises(self, loss, small_shifts_trace):
        tr = small_shifts_trace
        with pytest.raises(ValueError, match="affine loss"):
            exact_drift(tr.coeff_history, tr.model_coefs, tr.abstain_cost, 3, loss)

    def test_needs_a_candidate_per_step(self, small_shifts_trace):
        tr = small_shifts_trace
        with pytest.raises(ValueError, match="one candidate column per step"):
            exact_drift(tr.coeff_history, tr.model_coefs[:, :-1], tr.abstain_cost, 3, HINGE)


LOCKSTEP_RUNS = {
    "replay": (replay_config(dim=3, replicates=3), replay_batches([60] + UNEQUAL[:7])),
    "exact_adaptive": (small_scenario(ScenarioKind.ADAPTIVE_SHIFTS, seed=12, horizon=9, replicates=3), None),
    "sampled": (small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=13, horizon=9, replicates=3,
                               loss_scale=1.0), None),
}


class TestLockstep:
    @pytest.mark.parametrize("name", LOCKSTEP_RUNS)
    def test_experiment_equals_its_replicates_run_alone(self, name, monkeypatch):
        import modelgate.sim as sim

        cfg, batches = LOCKSTEP_RUNS[name]
        stacks = []
        real = sim.strategy_statuses

        def recording(meta, table):
            stacks.append(table.bounds.shape[0])
            return real(meta, table)

        with monkeypatch.context() as mp:
            mp.setattr(sim, "strategy_statuses", recording)
            traces = run_experiment(cfg, batches)
        # one loop steps all three replicates: one stacked call per step
        assert stacks == [3] * traces[0].horizon
        assert [tr.replicate for tr in traces] == [0, 1, 2]
        for r, tr in enumerate(traces):
            assert_traces_bitwise_equal(tr, run_replicate(cfg, r, batches=batches))

    def test_the_runs_reach_each_stream_kind(self):
        import modelgate.sim as sim

        replay, exact, sampled = (sim._Replicate(cfg, 0, b).stream for cfg, b in LOCKSTEP_RUNS.values())
        assert (type(replay), type(exact), type(sampled)) == (sim._Replay, sim._Exact, sim._Sampled)
        # the adversary moves the distribution within the short horizon
        assert run_replicate(LOCKSTEP_RUNS["exact_adaptive"][0], 1).shift_times


class TestRunReplicate:
    def test_bit_identical_reruns(self):
        sc = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=77,
                            rows=((0.0, 0.0, 0.0), (0.5, 1e4, 0.0), (0.3, 0.0, 1.5)))
        a = run_replicate(sc, 0)
        b = run_replicate(sc, 0)
        assert np.array_equal(a.true_risk, b.true_risk)
        assert np.array_equal(a.meta_weights, b.meta_weights)
        assert np.array_equal(a.coeff_history, b.coeff_history)
        assert a.shift_times == b.shift_times
        assert a.abstain_cost == b.abstain_cost

    def test_batches_exactly_when_ingested(self):
        with pytest.raises(ValueError, match="exactly when the scenario kind is ingested"):
            run_replicate(replay_config(dim=3), 0)
        with pytest.raises(ValueError, match="exactly when the scenario kind is ingested"):
            run_replicate(small_scenario(ScenarioKind.IID_GOOD_MODELS, dim=3), 0,
                          batches=replay_batches([40, 40, 40]))

    def test_replicates_differ(self):
        sc = small_scenario(ScenarioKind.IID_GOOD_MODELS, seed=78, rows=((0.0, 0.0, 0.0), (0.3, 0.0, 1.5)))
        a = run_replicate(sc, 0)
        b = run_replicate(sc, 1)
        assert not np.array_equal(a.true_risk, b.true_risk)

    def test_abstain_only_strategy_risk_is_exactly_delta(self):
        sc = small_scenario(ScenarioKind.IID_GOOD_MODELS, seed=79, rows=((0.0, 0.0, 0.0), (0.3, 0.0, 1.5)))
        tr = run_replicate(sc, 0)
        assert np.all(tr.strategy_true_risk[:, 0] == tr.abstain_cost)
        assert np.all(tr.strategy_abstain[:, 0] == 1.0)

    def test_risks_in_unit_interval_and_cum_consistent(self):
        sc = small_scenario(ScenarioKind.ADAPTIVE_SHIFTS, seed=80)
        tr = run_replicate(sc, 0)
        assert np.all(tr.true_risk >= 0) and np.all(tr.true_risk <= 1)
        mean = math.fsum(tr.true_risk) / tr.horizon
        assert tr.cum_avg_true()[-1] == pytest.approx(mean, abs=1e-12)

    def test_model_coefs_hold_every_candidate(self, monkeypatch):
        # the bound table scores the newest candidate t on its validation
        # rows at step t; rescoring column t - 1 of model_coefs reproduces it
        scored = []
        predict = CandidateModel.predict

        def recording_predict(self, x):
            out = predict(self, x)
            scored.append((x.copy(), out.copy()))
            return out

        monkeypatch.setattr(CandidateModel, "predict", recording_predict)
        sc = small_scenario(ScenarioKind.IID_RANDOM_MODELS, seed=82, horizon=7)
        tr = run_replicate(sc, 0)
        monkeypatch.undo()
        assert tr.model_coefs.shape == (sc.dim + 1, sc.horizon)
        # its own array, not a view of the run loop's buffer
        assert tr.model_coefs.flags.owndata and tr.model_coefs.base is None
        assert len(scored) == sc.horizon
        for t, (x, out) in enumerate(scored, start=1):
            assert np.array_equal(CandidateModel(tr.model_coefs[:, t - 1]).predict(x), out)
            assert np.array_equal(candidate_scores(tr.model_coefs[:, t - 1 : t], x)[:, 0], out)

    def test_no_deployed_status_weights_a_vetoed_candidate(self, monkeypatch):
        # the gate's veto: a candidate whose bound is above cost + step_margin
        # (past feasible's 1e-12 of rounding slack) gets no weight in any
        # strategy's status nor in the meta-forecaster's mixture of them
        import modelgate.sim as sim

        seen = []
        real = sim.strategy_statuses

        def recording(meta, table):
            statuses = real(meta, table)
            # run_replicate steps its replicate as a stack of one
            assert statuses.shape[0] == table.bounds.shape[0] == 1
            seen.append((table.bounds[0].copy(), statuses[0].copy()))
            return statuses

        monkeypatch.setattr(sim, "strategy_statuses", recording)
        cfg = RunConfig(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=5, horizon=12, **FIXED_RATE)
        tr = run_replicate(cfg, 0)
        threshold = tr.abstain_cost * (1.0 + cfg.margin_mult * cfg.step_margin_mult)
        assert len(seen) == cfg.horizon
        vetoed = weighted = 0
        for (bounds, statuses), weights in zip(seen, tr.meta_weights):
            veto = bounds[1:] > threshold + 1e-12
            deployed = np.vstack([statuses, weights @ statuses])[:, 1:]
            assert np.all(deployed[:, veto] == 0.0)
            vetoed += int(veto.sum())
            weighted += int((deployed > 0.0).any(axis=0).sum())
        assert vetoed and weighted

    def test_tables_veto_at_cost_plus_the_configured_step_margin(self, monkeypatch):
        # every step's table carries step_margin = step_margin_mult *
        # margin_mult * cost, and some candidate is admitted only by it
        import modelgate.sim as sim

        tables = []
        real = sim.strategy_statuses

        def recording(meta, table):
            # run_replicate steps its replicate as a stack of one
            assert table.bounds.shape[0] == 1
            tables.append(table)
            return real(meta, table)

        monkeypatch.setattr(sim, "strategy_statuses", recording)
        cfg = RunConfig(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=5, horizon=12, **FIXED_RATE)
        tr = run_replicate(cfg, 0)
        step_margin = cfg.step_margin_mult * (cfg.margin_mult * tr.abstain_cost)
        assert len(tables) == cfg.horizon
        by_margin = 0
        for table in tables:
            assert table.step_margin.tolist() == [step_margin]
            bounds, feasible = table.bounds[0, 1:], table.feasible[0, 1:]
            assert np.array_equal(feasible, bounds <= tr.abstain_cost + step_margin + 1e-12)
            by_margin += int(np.sum((bounds > tr.abstain_cost) & feasible))
        assert by_margin

    def test_generated_trace_passes_drift_check(self):
        sc = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=81, horizon=12)
        tr = run_replicate(sc, 0)
        report = verify_drift(tr.coeff_history, budget=tr.abstain_cost, window=3,
                              coefs=tr.model_coefs, loss=HINGE,
                              n_check=4000, seed=3)
        assert report.ok


class TestAdversarialDrift:
    def test_adaptive_trace_respects_budget(self):
        sc = RunConfig(ScenarioKind.ADAPTIVE_SHIFTS, seed=90, horizon=16, batch_size=60,
                       eval_size=2000, rate_mode="fixed", rate=1.3)
        tr = run_replicate(sc, 0)
        n_models = tr.model_coefs.shape[1]
        picks = sorted(set(np.linspace(0, n_models - 1, 8, dtype=int).tolist()))
        report = verify_drift(tr.coeff_history, budget=tr.abstain_cost, window=3,
                              coefs=tr.model_coefs[:, picks], loss=HINGE,
                              n_check=8000, tolerance=0.025, seed=4)
        assert tr.shift_times, "the adversary should have fired at least once"
        assert report.ok, report.violations
        exact = exact_drift(tr.coeff_history, tr.model_coefs, tr.abstain_cost, 3, HINGE)
        assert exact.ok, exact.violations


def whole_matrix_risks(coefs, x, y, statuses, loss, abstain_cost):
    """Deployed risks from the (n, t) score matrix of the whole sample: every
    candidate's 2 sigmoid - 1 score, every live status's ensemble score in
    one product in the scores' dtype, and the sample mean of its loss,
    mixed with the abstain cost."""
    preds = 2.0 * sigmoid(x @ coefs[:-1] + coefs[-1]) - 1.0
    mass = statuses[:, 1:].sum(axis=1)
    live = [k for k in range(len(statuses)) if mass[k] > 0.0]
    cols = np.column_stack([statuses[k, 1:] / mass[k] for k in live])
    ens = preds @ cols.astype(preds.dtype)
    ens = loss.of_array(ens, y[:, None]).mean(axis=0)
    out = np.full(len(statuses), abstain_cost)
    for i, k in enumerate(live):
        p0 = statuses[k, 0]
        out[k] = p0 * abstain_cost + (1.0 - p0) * ens[i]
    return out


class TestBlockwiseEvaluator:
    """``core.deployed_risks`` over ``sim._score_blocks``: the true-risk path."""

    def sample(self, n, t=7, dim=10, seed=0):
        rng = np.random.default_rng(seed)
        coefs = rng.normal(0.0, 0.6, size=(dim + 1, t))
        x = rng.standard_normal((n, dim), dtype=np.float32)
        # every 7th row far out, so its float32 scores saturate at -1 or +1
        x[::7] *= 200.0
        y = np.where(rng.random(n) < 0.5, np.float32(1.0), np.float32(-1.0))
        statuses = np.vstack([
            rng.dirichlet(np.ones(t + 1), size=5),
            np.r_[0.0, rng.dirichlet(np.ones(t))],
            np.eye(1, t + 1),  # pure abstention
        ])
        return coefs, x, y, statuses

    @pytest.mark.parametrize("n", [1, EVAL_BLOCK_ROWS - 1, EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS + 1, 100_000])
    @pytest.mark.parametrize("loss", [
        HINGE, LossFunction("clipped_hinge", scale=3.0), LossFunction("clipped_hinge", scale=1.5),
        LossFunction("zero_one"), LossFunction("scaled_absolute", scale=2.0),
    ], ids=["clipped_hinge", "clipped_hinge_scale3", "clipped_hinge_scale1.5", "zero_one",
            "scaled_absolute"])
    def test_matches_whole_matrix_reference(self, n, loss):
        coefs, x, y, statuses = self.sample(n)
        c32 = coefs.astype(np.float32)
        got = deployed_risks(_score_blocks(c32, x, y), statuses, loss, 0.3)
        want = whole_matrix_risks(c32, x, y, statuses, loss, 0.3)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_sample_saturates_scores(self):
        coefs, x, _, _ = self.sample(EVAL_BLOCK_ROWS)
        scores = candidate_scores(coefs.astype(np.float32), x)
        assert np.any(scores == 1.0) and np.any(scores == -1.0)

    def test_zero_model_mass_costs_exactly_delta(self):
        # at this size, averaging per-block mixed risks would miss delta by
        # an ulp for most costs; the mix is applied once, to the mean
        coefs, x, y, statuses = self.sample(100_000)
        for delta in np.linspace(0.05, 0.95, 19):
            got = deployed_risks(_score_blocks(coefs.astype(np.float32), x, y), statuses,
                                 HINGE, delta)
            assert got[-1] == delta

    def test_blocks_unused_without_model_mass(self):
        def blocks():
            raise AssertionError("no status needs scores")
            yield

        pure_abstain = np.tile(np.eye(1, 4), (2, 1))
        got = deployed_risks(blocks(), pure_abstain, HINGE, 0.25)
        assert got.tolist() == [0.25, 0.25]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_scores_bitwise_equal_sigmoid(self, dtype):
        coefs, x, _, _ = self.sample(3000)
        # scale some rows so exp overflows and saturates both ways
        x = (x * np.where(np.arange(3000) % 7 == 0, 200.0, 1.0)[:, None]).astype(dtype)
        c = coefs.astype(dtype)
        want = 2.0 * sigmoid(x @ c[:-1] + c[-1]) - 1.0
        got = candidate_scores(c, x)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
        assert np.any(np.abs(got) == 1.0)


def fine_trapezoid_means(beta, coefs, step=0.02, half_width=8.5):
    """``label_score_means`` by the trapezoid rule at ``step`` in both
    coordinates, the score's orthogonal part vectorised over a full grid."""
    z = step * np.arange(-round(half_width / step), round(half_width / step) + 1)
    wz = step * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    norm = np.linalg.norm(beta)
    out = []
    for w, b in zip(coefs[:-1].T, coefs[-1]):
        a = beta @ w / norm
        r = math.sqrt(max(w @ w - a * a, 0.0))
        inner = np.tanh(0.5 * (a * z[:, None] + r * z[None, :] + b)) @ wz
        out.append(inner @ (np.tanh(0.5 * norm * z) * wz))
    return np.array(out)


def quadrature_run(kind):
    """A production-sized replicate of ``kind`` (seed 11, 20 steps) and, in
    call order, the columns each ``label_score_means`` call integrated,
    ``("quad", columns)``, and each ``core.mixture_risks`` product,
    ``("mix", statuses, row)``: per step the true risks', then the batch's."""
    import modelgate.sim as sim

    events = []
    real_quad, real_mix = sim.label_score_means, sim.mixture_risks

    def quad(beta, coefs, columns=None):
        events.append(("quad", list(range(coefs.shape[1]) if columns is None else columns)))
        return real_quad(beta, coefs, columns)

    def mix(statuses, row):
        events.append(("mix", np.array(statuses), np.array(row)))
        return real_mix(statuses, row)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "label_score_means", quad)
        mp.setattr(sim, "mixture_risks", mix)
        trace = run_replicate(RunConfig(kind, seed=11, horizon=20, **FIXED_RATE), 0)
    return trace, events


def true_risk_steps(trace, events):
    """Per step t: ``(t, deployed, row, integrated, fresh)``, the true-risk
    product's statuses and risk row, the columns with an integral under
    step t's distribution, and those integrated at step t (the abstain
    cost's integral of the initial model counts for step 1)."""
    steps, integrated, fresh, mixes = [], set(), [], 0
    for event in events:
        if event[0] == "quad":
            integrated.update(event[1])
            fresh += event[1]
            continue
        mixes += 1
        t = (mixes + 1) // 2
        if mixes % 2:
            steps.append((t, event[1], event[2], set(integrated), fresh))
            fresh = []
        elif t + 1 in trace.shift_times:
            integrated = set()  # a shift at the next step forgets every value
    assert len(steps) == trace.horizon and mixes == 2 * trace.horizon
    return steps


@pytest.fixture(scope="module")
def adaptive_run():
    return quadrature_run(ScenarioKind.ADAPTIVE_SHIFTS)


@pytest.fixture(scope="module")
def small_shifts_run():
    return quadrature_run(ScenarioKind.SMALL_FREQUENT_SHIFTS)


class TestQuadrature:
    """``label_score_means``: each candidate's exact E[label * score]."""

    def test_matches_fine_trapezoid_reference(self, adaptive_run):
        tr, _ = adaptive_run
        assert tr.shift_times
        assert np.linalg.norm(tr.model_coefs[:-1], axis=0).max() > 6.0
        for beta in np.unique(tr.coeff_history, axis=0):
            got = label_score_means(beta, tr.model_coefs)
            want = fine_trapezoid_means(beta, tr.model_coefs)
            # a pure status's risk is (1 - m) / 2 under the default hinge
            np.testing.assert_allclose(got / 2.0, want / 2.0, rtol=0.0, atol=1e-7)

    def test_matches_float64_monte_carlo(self):
        rng = np.random.default_rng(6)
        beta = solve_signal_scale(0.1) * rng.standard_normal(10) / math.sqrt(10)
        coefs = np.vstack([rng.normal(0.0, 2.0, size=(10, 4)), rng.normal(0.0, 1.0, size=4)])
        coefs[:-1, 0] += beta
        # the label is integrated analytically: E[y | x] = 2 sigma(beta.x) - 1
        parts = []
        for _ in range(10):
            x = rng.standard_normal((100_000, 10))
            parts.append(np.tanh(0.5 * x @ beta)[:, None] * np.tanh(0.5 * (x @ coefs[:-1] + coefs[-1])))
        rows = np.vstack(parts)
        mc, se = rows.mean(axis=0), rows.std(axis=0) / math.sqrt(len(rows))
        assert np.all(np.abs(label_score_means(beta, coefs) - mc) <= 5.0 * se)

    def test_degenerate_candidates(self):
        rng = np.random.default_rng(7)
        beta = 5.0 * rng.standard_normal(10) / math.sqrt(10)
        coefs = np.column_stack([
            np.append(0.8 * beta, 0.3),    # parallel to beta: r = 0
            np.append(np.zeros(10), 1.2),  # intercept-only fallback: w = 0
            np.append(-1.3 * beta + rng.standard_normal(10), -0.4),  # a < 0
        ])
        got = label_score_means(beta, coefs)
        np.testing.assert_allclose(got, fine_trapezoid_means(beta, coefs), rtol=0.0, atol=2e-7)
        assert abs(got[1]) < 1e-15  # the label has mean zero, the score is constant
        assert got[2] < 0.0
        # flipping a candidate flips its label-times-score
        np.testing.assert_allclose(label_score_means(beta, -coefs), -got, rtol=0.0, atol=1e-15)
        assert label_score_means(np.zeros(10), coefs).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("run", ["adaptive_run", "small_shifts_run"])
    def test_true_risks_equal_integrating_every_candidate(self, run, request):
        tr, events = request.getfixturevalue(run)
        assert tr.shift_times
        for t, deployed, row, integrated, _ in true_risk_steps(tr, events):
            full = label_score_means(tr.coeff_history[t], tr.model_coefs[:, :t])
            full_row = np.concatenate(([tr.abstain_cost], affine_loss_mean(full, HINGE.scale)))
            missing = [j for j in range(t) if j not in integrated]
            # a column left without an integral has no weight in any deployed row
            assert np.all(deployed[:, [1 + j for j in missing]] == 0.0), t
            assert np.all((row >= 0.0) & (row <= 1.0)), t
            known = [1 + j for j in sorted(integrated)]
            assert np.array_equal(row[known], full_row[known]), t
            assert np.array_equal(deployed @ row, deployed @ full_row), t
            assert tr.true_risk[t - 1] == (deployed @ row)[-1]

    @pytest.mark.parametrize("run", ["adaptive_run", "small_shifts_run"])
    def test_integrates_weighted_columns_once_per_distribution(self, run, request):
        tr, events = request.getfixturevalue(run)
        count = sum(len(event[1]) for event in events if event[0] == "quad")
        # integrating eagerly: the initial model, each proposal, and every
        # candidate again at each shift
        eager = 1 + sum(t if t in tr.shift_times else 1 for t in range(2, tr.horizon + 1))
        assert count < eager
        seen = set()
        for t, deployed, _, integrated, fresh in true_risk_steps(tr, events):
            if t in tr.shift_times:
                seen = set()
            weighted = set(np.flatnonzero(deployed[:, 1:].any(axis=0)).tolist())
            # step 1 also integrates the initial model for the abstain cost
            assert set(fresh) <= weighted | ({0} if t == 1 else set()), t
            assert len(fresh) == len(set(fresh)) and not set(fresh) & seen, t
            assert weighted <= integrated, t
            seen |= set(fresh)

    def test_abstain_cost_is_the_first_models_exact_risk(self, adaptive_run):
        tr, _ = adaptive_run
        m = label_score_means(tr.coeff_history[0], tr.model_coefs[:, :1])[0]
        assert tr.abstain_cost == affine_loss_mean(m, HINGE.scale)
        # the fail-safe row still costs exactly the abstain cost (6c)
        assert np.all(tr.strategy_true_risk[:, 0] == tr.abstain_cost)


class TestMonteCarloPath:
    """Losses that are not affine still measure true risk on a sample."""

    @pytest.mark.parametrize("loss", [LossFunction("zero_one"), LossFunction("clipped_hinge", scale=1.5)],
                             ids=["zero_one", "clipped_hinge_scale1.5"])
    def test_non_affine_replicate(self, loss):
        sc = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=82,
                            loss_kind=loss.kind, loss_scale=loss.scale)
        tr = run_replicate(sc, 0)
        for risks in (tr.true_risk, tr.strategy_true_risk, tr.emp_risk):
            assert np.all(np.isfinite(risks)) and np.all((risks >= 0) & (risks <= 1))
        assert np.all(tr.strategy_true_risk[:, 0] == tr.abstain_cost)

    def test_affine_trace_ignores_eval_size(self):
        a, b = (run_replicate(small_scenario(ScenarioKind.ADAPTIVE_SHIFTS, seed=83, eval_size=n), 0)
                for n in (100, 5000))
        for name in ("true_risk", "emp_risk", "abstain_prob", "meta_weights", "meta_top",
                     "strategy_true_risk", "strategy_abstain", "coeff_history", "model_coefs"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (a.abstain_cost, a.meta_rate, a.shift_times) == (b.abstain_cost, b.meta_rate, b.shift_times)
