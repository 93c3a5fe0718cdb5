import numpy as np
import pytest

from modelgate.core import (
    ApprovalStatus,
    AugmentedLossConfig,
    CandidateModel,
    LossFunction,
    MonitoringBatch,
    deployed_risks,
    pure_abstain,
)
from modelgate.sim import (
    EVAL_BLOCK_ROWS,
    DeveloperPolicy,
    FitConfig,
    GeneratorState,
    LogisticModel,
    MetaConfig,
    ScenarioConfig,
    ScenarioKind,
    apply_shift,
    bayes_hinge_risk,
    developer_propose,
    empirical_mmd,
    fit_logistic,
    generate_batch,
    logistic_objective,
    policy_for_scenario,
    run_replicate,
    sigmoid,
    solve_signal_scale,
    split_batch,
    verify_drift,
    _score_blocks,
    _scores,
)

HINGE = LossFunction("clipped_hinge", scale=2.0)
LOSS_CFG = AugmentedLossConfig(HINGE, 0.25)

SMALL = dict(horizon=10, batch_size=40, eval_size=2000)


def small_scenario(kind, seed=5, **kw):
    args = dict(SMALL)
    args.update(kw)
    return ScenarioConfig(kind=kind, seed=seed, **args)


def model_from_coef(model_id, coef):
    return CandidateModel(model_id, LogisticModel(np.asarray(coef, dtype=float)), birth_time=model_id)


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
        model = fit_logistic(X, y, FitConfig(step_size=1.0, iterations=2500, l2=1e-4))
        risk = HINGE.of_array(model(X), y).mean()
        assert risk < 0.05

    def test_duplication_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((25, 3))
        y = np.where(rng.random(25) < sigmoid(X @ np.array([1.0, -1.0, 0.5])), 1.0, -1.0)
        cfg = FitConfig(iterations=150)
        a = fit_logistic(X, y, cfg)
        b = fit_logistic(np.vstack([X, X]), np.concatenate([y, y]), cfg)
        assert np.allclose(a.coef, b.coef, atol=1e-12)

    def test_single_class_falls_back_to_intercept(self):
        X = np.random.default_rng(3).standard_normal((10, 3))
        model = fit_logistic(X, np.ones(10), FitConfig())
        assert np.allclose(model.coef[:-1], 0.0)
        assert model.coef[-1] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 3))
        y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        assert np.array_equal(fit_logistic(X, y, FitConfig()).coef, fit_logistic(X, y, FitConfig()).coef)


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
        model = developer_propose(DeveloperPolicy("all_data"), history, splits, 3, FitConfig(iterations=50))
        ref_feats = np.vstack([history[0].features, splits[1].train.features])
        ref_labels = np.concatenate([history[0].labels, splits[1].train.labels])
        ref = fit_logistic(ref_feats, ref_labels, FitConfig(iterations=50))
        assert np.allclose(model.predictor.coef, ref.coef)


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
        model = model_from_coef(1, np.concatenate([beta, [0.0]]))
        emp = HINGE.of_array(model.predictor(batch.features), batch.labels).mean()
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
            models = [CandidateModel(0, None), model_from_coef(1, np.ones(cfg.dim + 1))]
            for t in range(1, 9):
                apply_shift(gen, cfg, t, False, models, HINGE, 3)
            assert gen.shift_count == 0
            assert all(np.array_equal(c, gen.coeff_history[0]) for c in gen.coeff_history)

    def test_small_frequent_shift_times(self):
        cfg = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, horizon=13)
        beta = solve_signal_scale(0.1) * np.ones(cfg.dim) / np.sqrt(cfg.dim)
        gen = GeneratorState([beta], np.random.default_rng(14), budget=0.27)
        models = [CandidateModel(0, None), model_from_coef(1, np.concatenate([beta, [0.0]]))]
        shifted_at = []
        for t in range(1, 14):
            before = gen.shift_count
            apply_shift(gen, cfg, t, False, models, HINGE, 3)
            if gen.shift_count > before:
                shifted_at.append(t)
        assert shifted_at == [4, 8, 12]

    def test_rotation_preserves_norm(self):
        cfg = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS)
        beta = solve_signal_scale(0.1) * np.ones(cfg.dim) / np.sqrt(cfg.dim)
        gen = GeneratorState([beta], np.random.default_rng(15), budget=0.27)
        models = [CandidateModel(0, None), model_from_coef(1, np.concatenate([beta, [0.0]]))]
        apply_shift(gen, cfg, 4, False, models, HINGE, 3)
        assert gen.shift_count == 1
        assert np.linalg.norm(gen.coefficients) == pytest.approx(np.linalg.norm(beta), rel=1e-9)


class TestEmpiricalMmd:
    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(16)
        b = MonitoringBatch(1, rng.standard_normal((50, 3)), np.where(rng.random(50) < 0.5, 1.0, -1.0))
        models = [model_from_coef(1, [1.0, 0, 0, 0])]
        assert empirical_mmd(b, b, models, LOSS_CFG) == 0.0

    def test_single_model_gives_exact_risk_difference(self):
        rng = np.random.default_rng(17)
        a = MonitoringBatch(1, rng.standard_normal((40, 2)), np.ones(40))
        b = MonitoringBatch(1, rng.standard_normal((40, 2)), -np.ones(40))
        model = model_from_coef(1, [1.0, 0.0, 0.0])
        la = HINGE.of_array(model.predictor(a.features), a.labels).mean()
        lb = HINGE.of_array(model.predictor(b.features), b.labels).mean()
        assert empirical_mmd(a, b, [model], LOSS_CFG) == pytest.approx(abs(la - lb))

    def test_known_shift_matches_monte_carlo(self):
        # mean-shifted label law: compare against a one-million-sample oracle
        d = 4
        beta1 = np.array([2.0, 0.0, 0.0, 0.0])
        beta2 = np.array([0.5, 0.0, 0.0, 0.0])
        model = model_from_coef(1, [1.0, 0, 0, 0, 0])
        rng = np.random.default_rng(18)

        def draw(beta, n, seed):
            r = np.random.default_rng(seed)
            X = r.standard_normal((n, d))
            y = np.where(r.random(n) < sigmoid(X @ beta), 1.0, -1.0)
            return MonitoringBatch(1, X, y)

        big = 10**6
        Xo = rng.standard_normal((big, d))
        z = model.predictor(Xo)
        diff = 0.0
        for sign, beta in ((1, beta1), (-1, beta2)):
            p = sigmoid(Xo @ beta)
            lp = np.clip((1 - z) / 2, 0, 1)
            lm = np.clip((1 + z) / 2, 0, 1)
            diff += sign * np.mean(p * lp + (1 - p) * lm)
        truth = abs(diff)
        n = 30000
        got = empirical_mmd(draw(beta1, n, 1), draw(beta2, n, 2), [model], LOSS_CFG)
        assert abs(got - truth) < 3 * 0.5 * np.sqrt(2.0 / n)


class TestVerifyDrift:
    def test_iid_history_is_quiet(self):
        beta = solve_signal_scale(0.1) * np.eye(1, 6, 0).ravel()
        history = [beta] * 6
        models = [model_from_coef(1, np.concatenate([beta, [0.0]]))]
        report = verify_drift(history, budget=0.25, window=3, models=models,
                              loss_cfg=LOSS_CFG, n_check=4000, seed=1)
        assert report.ok
        assert report.max_value < 0.03

    def test_oversized_shift_flagged(self):
        scale = solve_signal_scale(0.1)
        beta = scale * np.eye(1, 6, 0).ravel()
        history = [beta, beta, -beta, -beta]  # full flip: risk gap far above budget
        models = [model_from_coef(1, np.concatenate([beta, [0.0]]))]
        report = verify_drift(history, budget=0.1, window=3, models=models,
                              loss_cfg=LOSS_CFG, n_check=4000, seed=2)
        assert not report.ok
        assert any(t == 2 for t, _, _ in report.violations)


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
        assert tr.cum_avg_true()[-1] == pytest.approx(tr.final_cum_risk(), abs=1e-12)

    def test_generated_trace_passes_drift_check(self):
        sc = small_scenario(ScenarioKind.SMALL_FREQUENT_SHIFTS, seed=81, horizon=12)
        mc = MetaConfig(rate_mode="fixed", rate=1.5)
        tr = run_replicate(sc, mc, 0)
        models = [CandidateModel(0, None)] + [
            model_from_coef(j + 1, tr.model_coefs[:, j]) for j in range(tr.model_coefs.shape[1])
        ]
        report = verify_drift(tr.coeff_history, budget=tr.abstain_cost, window=3,
                              models=models, loss_cfg=AugmentedLossConfig(HINGE, tr.abstain_cost),
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
        models = [model_from_coef(j + 1, tr.model_coefs[:, j]) for j in picks]
        report = verify_drift(tr.coeff_history, budget=tr.abstain_cost, window=3,
                              models=models, loss_cfg=AugmentedLossConfig(HINGE, tr.abstain_cost),
                              n_check=8000, tolerance=0.025, seed=4)
        assert tr.shift_times, "the adversary should have fired at least once"
        assert report.ok, report.violations


def whole_matrix_risks(coefs, x, y, statuses, cfg):
    """Deployed risks from the (n, t) score matrix of the whole sample: every
    candidate's 2 sigmoid - 1 score, every live status's ensemble score in
    one product, and the sample mean of its loss, mixed with the abstain
    cost."""
    preds = 2.0 * sigmoid(x @ coefs[:-1] + coefs[-1]) - 1.0
    live = [k for k, s in enumerate(statuses) if s.model_mass > 0.0]
    cols = np.column_stack([statuses[k].weights[1:] / statuses[k].model_mass for k in live])
    ens = cfg.base.of_array(preds @ cols.astype(preds.dtype), y[:, None]).mean(axis=0)
    out = np.full(len(statuses), cfg.abstain_cost)
    for i, k in enumerate(live):
        p0 = statuses[k].abstain_prob
        out[k] = p0 * cfg.abstain_cost + (1.0 - p0) * ens[i]
    return out


class TestBlockwiseEvaluator:
    """``core.deployed_risks`` over ``sim._score_blocks``: the true-risk path."""

    def sample(self, n, t=7, dim=10, seed=0):
        rng = np.random.default_rng(seed)
        coefs = rng.normal(0.0, 0.6, size=(dim + 1, t))
        x = rng.standard_normal((n, dim), dtype=np.float32)
        y = np.where(rng.random(n) < 0.5, np.float32(1.0), np.float32(-1.0))
        statuses = [ApprovalStatus(t, w) for w in rng.dirichlet(np.ones(t + 1), size=5)]
        statuses.append(ApprovalStatus(t, np.r_[0.0, rng.dirichlet(np.ones(t))]))
        statuses.append(pure_abstain(t))
        return coefs, x, y, statuses

    @pytest.mark.parametrize("n", [1, EVAL_BLOCK_ROWS - 1, EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS + 1, 100_000])
    @pytest.mark.parametrize("loss", [
        HINGE, LossFunction("zero_one"), LossFunction("scaled_absolute", scale=2.0),
    ], ids=["clipped_hinge", "zero_one", "scaled_absolute"])
    def test_matches_whole_matrix_reference(self, n, loss):
        coefs, x, y, statuses = self.sample(n)
        cfg = AugmentedLossConfig(loss, 0.3)
        c32 = coefs.astype(np.float32)
        got = deployed_risks(_score_blocks(c32, x, y), statuses, cfg)
        want = whole_matrix_risks(c32, x, y, statuses, cfg)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

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

        got = deployed_risks(blocks(), [pure_abstain(3)] * 2, LOSS_CFG)
        assert got.tolist() == [0.25, 0.25]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_scores_bitwise_equal_sigmoid(self, dtype):
        coefs, x, _, _ = self.sample(3000)
        # scale some rows so exp overflows and saturates both ways
        x = (x * np.where(np.arange(3000) % 7 == 0, 200.0, 1.0)[:, None]).astype(dtype)
        c = coefs.astype(dtype)
        want = 2.0 * sigmoid(x @ c[:-1] + c[-1]) - 1.0
        got = _scores(c, x)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
        assert np.any(np.abs(got) == 1.0)
