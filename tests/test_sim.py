import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modelgate.core import (
    AugmentedLossConfig,
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
    DeveloperPolicy,
    FitConfig,
    GeneratorState,
    MetaConfig,
    ScenarioConfig,
    ScenarioKind,
    apply_shift,
    bayes_hinge_risk,
    developer_propose,
    empirical_mmd,
    fit_logistic,
    generate_batch,
    label_score_means,
    logistic_objective,
    policy_for_scenario,
    run_replicate,
    sigmoid,
    solve_signal_scale,
    split_batch,
    verify_drift,
    _class_risks,
    _last_feasible,
    _logistic_terms,
    _probe_losses,
    _score_blocks,
)

HINGE = LossFunction("clipped_hinge", scale=2.0)
LOSS_CFG = AugmentedLossConfig(HINGE, 0.25)

SMALL = dict(horizon=10, batch_size=40, eval_size=2000)


def small_scenario(kind, seed=5, **kw):
    args = dict(SMALL)
    args.update(kw)
    return ScenarioConfig(kind=kind, seed=seed, **args)


def column(coef):
    """One candidate's coefficients as a (d + 1, 1) candidate matrix."""
    return np.asarray(coef, dtype=float)[:, None]


class TestSignalScale:
    def test_risk_decreasing_in_scale(self):
        risks = [bayes_hinge_risk(s) for s in (0.0, 1.0, 3.0, 8.0)]
        assert risks[0] == pytest.approx(0.5, abs=1e-9)
        assert all(b < a for a, b in zip(risks, risks[1:]))

    def test_solver_hits_target(self):
        for target in (0.08, 0.12, 0.2):
            scale = solve_signal_scale(target)
            assert bayes_hinge_risk(scale) == pytest.approx(target, abs=1e-6)


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
                    xd = np.array([[m, 1.0]])
                    value, grad, p = _logistic_terms(coef, xd, np.array([y]), 0.0)
                    want_p = sigmoid(np.array([m]))
                    assert np.all(np.isfinite([value, *grad, *p]))
                    np.testing.assert_allclose(value, np.logaddexp(0.0, m) - y * m, rtol=1e-15, atol=0.0)
                    np.testing.assert_allclose(p, want_p, rtol=1e-15, atol=0.0)
                    np.testing.assert_allclose(grad, (want_p - y) * xd[0], rtol=1e-15, atol=0.0)

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
        assert list(DeveloperPolicy("last_k", k=4).window(3)) == [1, 2]

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
        cfg = ScenarioConfig(kind=ScenarioKind.IID_GOOD_MODELS, **SMALL)
        gen = GeneratorState(coeff_history=[np.zeros(cfg.dim)], rng=rng)
        history, splits = [], []
        for t in (1, 2):
            b = generate_batch(gen, cfg, t)
            history.append(b)
            splits.append(split_batch(b, 0.5, rng))
            gen.coeff_history.append(gen.coefficients)
        coef = developer_propose(DeveloperPolicy("all_data"), history, splits, 3, FitConfig(iterations=50))
        ref_feats = np.vstack([history[0].features, splits[1].train.features])
        ref_labels = np.concatenate([history[0].labels, splits[1].train.labels])
        ref = fit_logistic(ref_feats, ref_labels, FitConfig(iterations=50))
        assert np.allclose(coef, ref)
        # the start reaches fit_logistic, which keeps a start at the optimum
        warm = developer_propose(
            DeveloperPolicy("all_data"), history, splits, 3, FitConfig(iterations=50), start=ref
        )
        assert np.array_equal(warm, ref)


class TestGenerator:
    def test_fixed_seed_reproduces_batch(self):
        cfg = small_scenario(ScenarioKind.IID_GOOD_MODELS)
        a = generate_batch(GeneratorState([np.ones(cfg.dim)], np.random.default_rng(9)), cfg, 0)
        b = generate_batch(GeneratorState([np.ones(cfg.dim)], np.random.default_rng(9)), cfg, 0)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_coefficients_balanced_labels(self):
        cfg = ScenarioConfig(kind=ScenarioKind.IID_GOOD_MODELS, horizon=5, batch_size=20000, eval_size=100)
        batch = generate_batch(GeneratorState([np.zeros(cfg.dim)], np.random.default_rng(10)), cfg, 0)
        assert batch.labels.mean() == pytest.approx(0.0, abs=0.03)

    def test_large_batch_risk_matches_monte_carlo(self):
        cfg = ScenarioConfig(kind=ScenarioKind.IID_GOOD_MODELS, horizon=5, batch_size=60000, eval_size=100)
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

    def test_iid_scenarios_never_shift(self):
        for kind in (ScenarioKind.IID_GOOD_MODELS, ScenarioKind.IID_RANDOM_MODELS):
            cfg = small_scenario(kind)
            gen = GeneratorState([np.ones(cfg.dim)], np.random.default_rng(13), budget=0.3)
            coefs = np.ones((cfg.dim + 1, 1))
            for t in range(1, 9):
                apply_shift(gen, cfg, t, False, coefs, HINGE, 3)
            assert gen.shift_count == 0
            assert all(np.array_equal(c, gen.coeff_history[0]) for c in gen.coeff_history)

    def test_small_frequent_shift_times(self):
        cfg = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, horizon=13)
        beta = solve_signal_scale(0.1) * np.ones(cfg.dim) / np.sqrt(cfg.dim)
        gen = GeneratorState([beta], np.random.default_rng(14), budget=0.27)
        coefs = column(np.concatenate([beta, [0.0]]))
        shifted_at = []
        for t in range(1, 14):
            before = gen.shift_count
            apply_shift(gen, cfg, t, False, coefs, HINGE, 3)
            if gen.shift_count > before:
                shifted_at.append(t)
        assert shifted_at == [4, 8, 12]

    def test_rotation_preserves_norm(self):
        cfg = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS)
        beta = solve_signal_scale(0.1) * np.ones(cfg.dim) / np.sqrt(cfg.dim)
        gen = GeneratorState([beta], np.random.default_rng(15), budget=0.27)
        apply_shift(gen, cfg, 4, False, column(np.concatenate([beta, [0.0]])), HINGE, 3)
        assert gen.shift_count == 1
        assert np.linalg.norm(gen.coefficients) == pytest.approx(np.linalg.norm(beta), rel=1e-9)


class TestShiftProbe:
    def test_class_risks_match_two_product_form(self):
        # the old form: per-model predict columns, then the label expectation
        # as p @ loss(+1) + (1 - p) @ loss(-1)
        rng = np.random.default_rng(21)
        n, dim = 5000, 4
        probe = rng.standard_normal((n, dim))
        coefs = rng.normal(0.0, 1.0, size=(dim + 1, 6))
        scores = np.column_stack([CandidateModel(c).predict(probe) for c in coefs.T])
        for loss in (HINGE, LossFunction("clipped_hinge", scale=1.5), LossFunction("zero_one"),
                     LossFunction("scaled_absolute", scale=2.0), LossFunction("clipped_hinge", scale=3.0)):
            diff, mean_minus = _probe_losses(coefs, probe, loss)
            loss_plus, loss_minus = loss.of_array(scores, 1.0), loss.of_array(scores, -1.0)
            for beta in rng.normal(0.0, 1.5, size=(5, dim)):
                p = sigmoid(probe @ beta)
                want = p @ loss_plus / n + (1.0 - p) @ loss_minus / n
                got = _class_risks(beta, probe, diff, mean_minus)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_zero_columns_rejected(self):
        # a shift is measured against the live candidates, and there is always one
        for kind in (ScenarioKind.SMALL_FREQUENT_SHIFTS, ScenarioKind.IID_GOOD_MODELS):
            cfg = small_scenario(kind)
            gen = GeneratorState([np.ones(cfg.dim)], np.random.default_rng(22), budget=0.3)
            with pytest.raises(ValueError, match="at least one candidate column"):
                apply_shift(gen, cfg, 4, False, np.zeros((cfg.dim + 1, 0)), HINGE, 3)
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
            apply_shift(gen, cfg, 6, True, coefs, HINGE, 3)
            changed = np.flatnonzero(gen.coefficients != beta)
            assert gen.shift_count == 1 and changed.tolist() == flipped
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

        mc = MetaConfig(rate_mode="fixed", rate=1.5)
        cases = [(ScenarioKind.ADAPTIVE_SHIFTS, 2, 16), (ScenarioKind.ADAPTIVE_SHIFTS, 3, 16),
                 (ScenarioKind.SMALL_FREQUENT_SHIFTS, 1, 12), (ScenarioKind.SMALL_FREQUENT_SHIFTS, 4, 12)]
        for kind, seed, horizon in cases:
            sc = small_scenario(kind, seed=seed, horizon=horizon)
            fast = run_replicate(sc, mc, 0)
            searches = []
            with monkeypatch.context() as mp:
                mp.setattr(sim, "_last_feasible",
                           lambda f, target, f_one: searches.append(target) or bisection_last_feasible(f, target))
                slow = run_replicate(sc, mc, 0)
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
        mc = MetaConfig(rate_mode="fixed", rate=1.5)
        for seed in range(1, 5):
            run_replicate(small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=seed, horizon=50), mc, 0)
        assert len(counts) == 48  # a rotation every fourth step
        assert np.mean(counts) <= 12 and max(counts) <= 43


class TestEmpiricalMmd:
    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(16)
        b = MonitoringBatch(1, rng.standard_normal((50, 3)), np.where(rng.random(50) < 0.5, 1.0, -1.0))
        assert empirical_mmd(b, b, column([1.0, 0, 0, 0]), LOSS_CFG) == 0.0

    def test_single_model_gives_exact_risk_difference(self):
        rng = np.random.default_rng(17)
        a = MonitoringBatch(1, rng.standard_normal((40, 2)), np.ones(40))
        b = MonitoringBatch(1, rng.standard_normal((40, 2)), -np.ones(40))
        model = CandidateModel(np.array([1.0, 0.0, 0.0]))
        la = HINGE.of_array(model.predict(a.features), a.labels).mean()
        lb = HINGE.of_array(model.predict(b.features), b.labels).mean()
        assert empirical_mmd(a, b, column(model.coef), LOSS_CFG) == pytest.approx(abs(la - lb))

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
            return MonitoringBatch(1, X, y)

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
        got = empirical_mmd(draw(beta1, n, 1), draw(beta2, n, 2), column(model.coef), LOSS_CFG)
        assert abs(got - truth) < 3 * 0.5 * np.sqrt(2.0 / n)

    @pytest.mark.parametrize("loss", [HINGE, LossFunction("zero_one"),
                                      LossFunction("clipped_hinge", scale=1.5)])
    def test_matches_the_per_model_loop(self, loss):
        rng = np.random.default_rng(19)
        cfg = AugmentedLossConfig(loss, 0.25)
        for k in (1, 2, 7, 30):
            coefs = rng.normal(0.0, 1.5, size=(5, k))
            a, b = (MonitoringBatch(1, rng.standard_normal((n, 4)),
                                    np.where(rng.random(n) < 0.5, 1.0, -1.0)) for n in (500, 700))
            got = empirical_mmd(a, b, coefs, cfg)
            assert got == pytest.approx(per_model_mmd(a, b, coefs, cfg), rel=0.0, abs=1e-14)

    def test_zero_columns_rejected(self):
        b = MonitoringBatch(1, np.zeros((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="at least one candidate column"):
            empirical_mmd(b, b, np.zeros((3, 0)), LOSS_CFG)


def per_model_mmd(sample_a, sample_b, coefs, loss_cfg):
    """The oracle: ``empirical_mmd`` as a loop over the candidates, each
    scored on its own by ``predict``."""
    worst = 0.0
    for coef in coefs.T:
        model = CandidateModel(coef.copy())
        la = loss_cfg.base.of_array(model.predict(sample_a.features), sample_a.labels)
        lb = loss_cfg.base.of_array(model.predict(sample_b.features), sample_b.labels)
        worst = max(worst, abs(float(la.mean()) - float(lb.mean())))
    return worst


def per_model_drift_values(coeff_history, window, coefs, loss_cfg, n_check, seed):
    """The oracle: ``verify_drift``'s (T, window) discrepancies with its own
    sampler and ``per_model_mmd``."""
    rng = np.random.default_rng(seed)

    def draw(beta, count):
        x = rng.standard_normal((count, len(beta)))
        y = np.where(rng.random(count) < sigmoid(x @ beta), 1.0, -1.0)
        return MonitoringBatch(0, x, y)

    horizon = len(coeff_history) - 1
    values = np.zeros((horizon, window))
    for t in range(1, horizon + 1):
        current = draw(coeff_history[t], n_check)
        for w in range(1, window + 1):
            members = range(max(0, t - w), t)
            pooled = [draw(coeff_history[s], max(1, n_check // len(members))) for s in members]
            mixed = MonitoringBatch(0, np.vstack([b.features for b in pooled]),
                                    np.concatenate([b.labels for b in pooled]))
            values[t - 1, w - 1] = per_model_mmd(current, mixed, coefs, loss_cfg)
    return values


class TestVerifyDrift:
    def test_iid_history_is_quiet(self):
        beta = solve_signal_scale(0.1) * np.eye(1, 6, 0).ravel()
        history = [beta] * 6
        coefs = column(np.concatenate([beta, [0.0]]))
        report = verify_drift(history, budget=0.25, window=3, coefs=coefs,
                              loss_cfg=LOSS_CFG, n_check=4000, seed=1)
        assert report.ok
        assert report.max_value < 0.03

    def test_oversized_shift_flagged(self):
        scale = solve_signal_scale(0.1)
        beta = scale * np.eye(1, 6, 0).ravel()
        history = [beta, beta, -beta, -beta]  # full flip: risk gap far above budget
        coefs = column(np.concatenate([beta, [0.0]]))
        report = verify_drift(history, budget=0.1, window=3, coefs=coefs,
                              loss_cfg=LOSS_CFG, n_check=4000, seed=2)
        assert not report.ok
        assert any(t == 2 for t, _, _ in report.violations)

    def test_shifting_trace_matches_the_per_model_loop(self):
        # a budget below most windows' discrepancy, so there are violations to compare
        tr = run_replicate(small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=83, horizon=12),
                           MetaConfig(rate_mode="fixed", rate=1.5), 0)
        assert tr.shift_times
        loss_cfg = AugmentedLossConfig(HINGE, tr.abstain_cost)
        want = per_model_drift_values(tr.coeff_history, 3, tr.model_coefs, loss_cfg, 3000, 5)
        budget = float(np.median(want))
        report = verify_drift(tr.coeff_history, budget=budget, window=3, coefs=tr.model_coefs,
                              loss_cfg=loss_cfg, n_check=3000, tolerance=0.0, seed=5)
        np.testing.assert_allclose(report.values, want, rtol=0.0, atol=1e-14)
        flagged = [(t, w) for t, w, _ in report.violations]
        assert flagged and flagged == [(t + 1, w + 1) for t, w in zip(*np.nonzero(want > budget))]


class TestRunReplicate:
    def test_bit_identical_reruns(self):
        sc = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=77)
        mc = MetaConfig(rows=((0.0, 0.0, 0.0), (0.5, 1e4, 0.0), (0.3, 0.0, 1.5)), rate_mode="fixed", rate=1.5)
        a = run_replicate(sc, mc, 0)
        b = run_replicate(sc, mc, 0)
        assert np.array_equal(a.true_risk, b.true_risk)
        assert np.array_equal(a.meta_weights, b.meta_weights)
        assert np.array_equal(a.coeff_history, b.coeff_history)
        assert a.shift_times == b.shift_times
        assert a.abstain_cost == b.abstain_cost

    def test_replicates_differ(self):
        sc = small_scenario(ScenarioKind.IID_GOOD_MODELS, seed=78)
        mc = MetaConfig(rows=((0.0, 0.0, 0.0), (0.3, 0.0, 1.5)), rate_mode="fixed", rate=1.5)
        a = run_replicate(sc, mc, 0)
        b = run_replicate(sc, mc, 1)
        assert not np.array_equal(a.true_risk, b.true_risk)

    def test_abstain_only_strategy_risk_is_exactly_delta(self):
        sc = small_scenario(ScenarioKind.IID_GOOD_MODELS, seed=79)
        mc = MetaConfig(rows=((0.0, 0.0, 0.0), (0.3, 0.0, 1.5)), rate_mode="fixed", rate=1.5)
        tr = run_replicate(sc, mc, 0)
        assert np.all(tr.strategy_true_risk[:, 0] == tr.abstain_cost)
        assert np.all(tr.strategy_abstain[:, 0] == 1.0)

    def test_risks_in_unit_interval_and_cum_consistent(self):
        sc = small_scenario(ScenarioKind.ADAPTIVE_SHIFTS, seed=80)
        mc = MetaConfig(rate_mode="fixed", rate=1.5)
        tr = run_replicate(sc, mc, 0)
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
        tr = run_replicate(sc, MetaConfig(rate_mode="fixed", rate=1.5), 0)
        monkeypatch.undo()
        assert tr.model_coefs.shape == (sc.dim + 1, sc.horizon)
        # its own array, not a view of the run loop's buffer
        assert tr.model_coefs.flags.owndata and tr.model_coefs.base is None
        assert len(scored) == sc.horizon
        for t, (x, out) in enumerate(scored, start=1):
            assert np.array_equal(CandidateModel(tr.model_coefs[:, t - 1]).predict(x), out)
            assert np.array_equal(candidate_scores(tr.model_coefs[:, t - 1 : t], x)[:, 0], out)

    def test_generated_trace_passes_drift_check(self):
        sc = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=81, horizon=12)
        mc = MetaConfig(rate_mode="fixed", rate=1.5)
        tr = run_replicate(sc, mc, 0)
        report = verify_drift(tr.coeff_history, budget=tr.abstain_cost, window=3,
                              coefs=tr.model_coefs, loss_cfg=AugmentedLossConfig(HINGE, tr.abstain_cost),
                              n_check=4000, seed=3)
        assert report.ok


class TestAdversarialDrift:
    def test_adaptive_trace_respects_budget(self):
        sc = ScenarioConfig(kind=ScenarioKind.ADAPTIVE_SHIFTS, seed=90,
                            horizon=16, batch_size=60, eval_size=2000)
        mc = MetaConfig(rate_mode="fixed", rate=1.3)
        tr = run_replicate(sc, mc, 0)
        n_models = tr.model_coefs.shape[1]
        picks = sorted(set(np.linspace(0, n_models - 1, 8, dtype=int).tolist()))
        report = verify_drift(tr.coeff_history, budget=tr.abstain_cost, window=3,
                              coefs=tr.model_coefs[:, picks], loss_cfg=AugmentedLossConfig(HINGE, tr.abstain_cost),
                              n_check=8000, tolerance=0.025, seed=4)
        assert tr.shift_times, "the adversary should have fired at least once"
        assert report.ok, report.violations


def whole_matrix_risks(coefs, x, y, statuses, cfg):
    """Deployed risks from the (n, t) score matrix of the whole sample: every
    candidate's 2 sigmoid - 1 score, every live status's ensemble score in
    one product in the scores' dtype, and the sample mean of its loss,
    mixed with the abstain cost."""
    preds = 2.0 * sigmoid(x @ coefs[:-1] + coefs[-1]) - 1.0
    mass = statuses[:, 1:].sum(axis=1)
    live = [k for k in range(len(statuses)) if mass[k] > 0.0]
    cols = np.column_stack([statuses[k, 1:] / mass[k] for k in live])
    ens = preds @ cols.astype(preds.dtype)
    ens = cfg.base.of_array(ens, y[:, None]).mean(axis=0)
    out = np.full(len(statuses), cfg.abstain_cost)
    for i, k in enumerate(live):
        p0 = statuses[k, 0]
        out[k] = p0 * cfg.abstain_cost + (1.0 - p0) * ens[i]
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
        cfg = AugmentedLossConfig(loss, 0.3)
        c32 = coefs.astype(np.float32)
        got = deployed_risks(_score_blocks(c32, x, y), statuses, cfg)
        want = whole_matrix_risks(c32, x, y, statuses, cfg)
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
                                 AugmentedLossConfig(HINGE, delta))
            assert got[-1] == delta

    def test_blocks_unused_without_model_mass(self):
        def blocks():
            raise AssertionError("no status needs scores")
            yield

        pure_abstain = np.tile(np.eye(1, 4), (2, 1))
        got = deployed_risks(blocks(), pure_abstain, LOSS_CFG)
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


@pytest.fixture(scope="module")
def adaptive_run():
    """A production-sized adaptive replicate (developer fits and shifted
    coefficients as the run path meets them) and the label-times-scores
    it turned into each step's true-risk row (the vector arguments of
    ``affine_loss_mean``; the abstain cost is its one scalar call)."""
    import modelgate.sim as sim

    seen = []
    real = sim.affine_loss_mean

    def recording(label_scores, scale):
        if np.ndim(label_scores) == 1:
            seen.append(np.array(label_scores))
        return real(label_scores, scale)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "affine_loss_mean", recording)
        sc = ScenarioConfig(kind=ScenarioKind.ADAPTIVE_SHIFTS, seed=11, horizon=20)
        trace = run_replicate(sc, MetaConfig(rate_mode="fixed", rate=1.5), 0)
    return trace, seen


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

    def test_cache_equals_full_recompute_at_every_step(self, adaptive_run):
        tr, seen = adaptive_run
        assert len(seen) == tr.horizon and tr.shift_times
        for t, cached in enumerate(seen, start=1):
            full = label_score_means(tr.coeff_history[t], tr.model_coefs[:, :t])
            assert np.array_equal(cached, full), t

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
        sc = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=82)
        tr = run_replicate(sc, MetaConfig(rate_mode="fixed", rate=1.5, loss=loss), 0)
        for risks in (tr.true_risk, tr.strategy_true_risk, tr.emp_risk):
            assert np.all(np.isfinite(risks)) and np.all((risks >= 0) & (risks <= 1))
        assert np.all(tr.strategy_true_risk[:, 0] == tr.abstain_cost)

    def test_affine_trace_ignores_eval_size(self):
        mc = MetaConfig(rate_mode="fixed", rate=1.5)
        a, b = (run_replicate(small_scenario(ScenarioKind.ADAPTIVE_SHIFTS, seed=83, eval_size=n), mc, 0)
                for n in (100, 5000))
        for name in ("true_risk", "emp_risk", "abstain_prob", "meta_weights", "meta_top",
                     "strategy_true_risk", "strategy_abstain", "coeff_history", "model_coefs"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (a.abstain_cost, a.meta_rate, a.shift_times) == (b.abstain_cost, b.meta_rate, b.shift_times)
