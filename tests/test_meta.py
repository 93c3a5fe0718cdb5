import math
from dataclasses import replace

import numpy as np
import pytest

from modelgate.bounds import RiskBoundTable
from modelgate.core import ApprovalStatus
from modelgate.meta import (
    InfeasibleRateError,
    RiskBoundInputs,
    classical_ewaf_bound,
    combine,
    init_meta,
    max_learning_rate,
    meta_advance,
    meta_update,
    mgf_rate,
    optimize_slack,
    risk_bound,
    strategy_statuses,
    tail_alpha,
)

DELTA = 0.25
ROWS = ((0.0, 0.0, 0.0), (0.99, 0.0, 0.0), (0.5, 1e4, 0.0), (0.3, 0.0, 1.5))


def open_table(t):
    bounds = np.array([DELTA] + [DELTA - 0.1] * t)
    return RiskBoundTable(t, bounds, np.zeros(t + 1, dtype=int))


def headline_inputs(rate, delta=0.15, eps_t=0.0):
    # the headline comparison regime: drift twice the cost, infinite data,
    # exact coverage
    return RiskBoundInputs(
        abstain_cost=delta, step_margin=eps_t, drift=2 * delta, rate=rate,
        cover_alpha=0.0, n_strategies=10, horizon=50,
        batch_size=None, holdout_size=None, slack=None, tail=0.0,
    )


class TestMetaForecaster:
    def test_init_uniform_and_fail_safe_enforced(self):
        state = init_meta(ROWS, 1.0, DELTA, 0.05)
        assert np.allclose(state.weights, 0.25)
        with pytest.raises(ValueError):
            init_meta(((0.3, 0, 1.5),), 1.0, DELTA, 0.05)

    def test_equal_risks_keep_weights(self):
        state = init_meta(ROWS, 1.0, DELTA, 0.05)
        nxt = meta_update(state, np.full(4, 0.3))
        assert np.allclose(nxt.weights, state.weights)

    def test_scalar_arithmetic_oracle(self):
        # two strategies, risks (0.1, 0.9), rate 1:
        # w0 = e^{-0.1} / (e^{-0.1} + e^{-0.9}) = 1/(1+e^{-0.8})
        state = init_meta(((0.0, 0.0, 0.0), (0.3, 0.0, 1.5)), 1.0, DELTA, 0.05)
        nxt = meta_update(state, np.array([0.1, 0.9]))
        assert nxt.weights[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.8)), abs=1e-12)
        assert nxt.weights[0] == pytest.approx(0.6900, abs=1e-4)

    def test_zero_rate_never_moves(self):
        state = init_meta(ROWS, 0.0, DELTA, 0.05)
        rng = np.random.default_rng(0)
        for _ in range(5):
            state = meta_update(state, rng.random(4))
        assert np.allclose(state.weights, 0.25)

    def test_shift_invariance(self):
        state = init_meta(ROWS, 2.0, DELTA, 0.05)
        risks = np.array([0.1, 0.4, 0.2, 0.6])
        a = meta_update(state, risks).weights
        b = meta_update(state, np.clip(risks + 0.3, 0, 1)).weights
        assert np.allclose(a, b, atol=1e-12)

    def test_risk_validation(self):
        state = init_meta(ROWS, 1.0, DELTA, 0.05)
        with pytest.raises(ValueError):
            meta_update(state, np.array([0.1, 0.2, 0.3, 1.4]))
        with pytest.raises(ValueError):
            meta_update(state, np.array([0.1, 0.2]))

    def test_fail_safe_weight_never_vanishes(self):
        # adversarial risks: fail-safe always worst; its weight still obeys
        # the multiplicative lower bound w0 * e^{-rate*T} / normaliser
        rate, horizon = 1.5, 30
        state = init_meta(ROWS, rate, DELTA, 0.05)
        for t in range(1, horizon + 1):
            risks = np.array([1.0, 0.0, 0.0, 0.0])
            table = open_table(state.time_index)
            losses = np.concatenate([[DELTA], np.zeros(state.time_index)])
            state = meta_advance(state, table, losses, risks)
        floor = 0.25 * math.exp(-rate * horizon)
        assert state.weights[0] >= floor
        assert state.weights[0] > 0.0

    def test_combine_matches_direct_mixture(self):
        rng = np.random.default_rng(1)
        t = 3
        statuses = [
            ApprovalStatus.from_weights(t, rng.random(t + 1)) for _ in range(4)
        ]
        w = rng.dirichlet(np.ones(4))
        mixed = combine(statuses, w)
        direct = sum(wj * s.weights for wj, s in zip(w, statuses))
        assert np.allclose(mixed.weights, direct, atol=1e-12)

    def test_combine_identical_statuses(self):
        t = 2
        s = ApprovalStatus(t, np.array([0.2, 0.5, 0.3]))
        out = combine([s, s, s], np.array([0.2, 0.3, 0.5]))
        assert np.allclose(out.weights, s.weights)

    def test_combine_length_mismatch(self):
        a = ApprovalStatus(1, np.array([0.5, 0.5]))
        b = ApprovalStatus(2, np.array([0.5, 0.25, 0.25]))
        with pytest.raises(ValueError):
            combine([a, b], np.array([0.5, 0.5]))

    def test_equal_risk_history_gives_uniform_mixture(self):
        state = init_meta(ROWS, 1.3, DELTA, 0.05)
        rng = np.random.default_rng(2)
        for _ in range(4):
            t = state.time_index
            losses = np.concatenate([[DELTA], rng.random(t)])
            state = meta_advance(state, open_table(t), losses, np.full(4, 0.4))
        statuses = strategy_statuses(state, open_table(state.time_index))
        mixed = combine(statuses, state.weights)
        assert np.allclose(mixed.weights, np.mean([s.weights for s in statuses], axis=0), atol=1e-10)


class TestTailAlpha:
    def test_zero_slack_caps_at_one(self):
        assert tail_alpha(0.0, 75, 37, 50) == 1.0

    def test_calculator_oracle(self):
        # 49 e^{-6} + e^{-2.96}
        got = tail_alpha(0.1, 75, 37, 50)
        expected = 49 * math.exp(-6.0) + math.exp(-2.96)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.1733, abs=2e-4)

    def test_large_slack_vanishes(self):
        assert tail_alpha(50.0, 75, 37, 50) == pytest.approx(0.0, abs=1e-300)

    def test_infinite_data_contributes_nothing(self):
        assert tail_alpha(0.3, None, None, 50) == 0.0

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            tail_alpha(-0.1, 75, 37, 50)
        with pytest.raises(ValueError):
            tail_alpha(np.array([0.2, -0.1]), 75, 37, 50)


class TestMgfRate:
    def test_degenerate_mixture(self):
        inp = RiskBoundInputs(0.15, 0.0, 0.3, 1.0, 0.0, 10, 50, tail=0.0)
        s0 = 0.45
        assert mgf_rate(inp, 0.1) == pytest.approx((math.exp(-s0) - 1.0) / s0)

    def test_small_rate_series_limit(self):
        # each mixture term behaves like -rate + O(rate^2): c/rate -> -1
        inp = RiskBoundInputs(0.15, 0.02, 0.15, 1e-6, 0.1, 10, 50, batch_size=75, holdout_size=37)
        c = mgf_rate(inp, 0.2)
        assert c / 1e-6 == pytest.approx(-1.0, abs=1e-3)

    def test_decreasing_in_rate(self):
        inp = RiskBoundInputs(0.15, 0.02, 0.15, 1.0, 0.1, 10, 50, batch_size=75, holdout_size=37)
        vals = [mgf_rate(replace(inp, rate=r), 0.15) for r in np.linspace(0.1, 5, 25)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_strictly_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            inp = RiskBoundInputs(
                float(rng.uniform(0.05, 0.4)), float(rng.uniform(0, 0.1)),
                float(rng.uniform(0, 0.5)), float(rng.uniform(0.05, 8)),
                float(rng.uniform(0, 0.3)), 10, 50,
                batch_size=75, holdout_size=37,
            )
            assert mgf_rate(inp, float(rng.uniform(0, 1))) < 0.0


class TestSlackArrays:
    """The slack grid is evaluated as one array expression; each entry must
    be what the same formula gives for that slack alone."""

    @pytest.mark.parametrize("sizes, horizon", [((75, 37), 50), ((None, None), 50), ((75, None), 1)])
    def test_tail_alpha_matches_scalar_loop(self, sizes, horizon):
        zs = np.linspace(0.0, 1.0, 201)
        got = tail_alpha(zs, *sizes, horizon)
        want = [tail_alpha(float(z), *sizes, horizon) for z in zs]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        assert got[0] == 1.0

    @pytest.mark.parametrize("tail", [None, 0.0])
    def test_mgf_rate_matches_scalar_loop(self, tail):
        zs = np.linspace(0.0, 1.0, 201)
        inp = RiskBoundInputs(0.2, 0.024, 0.2, 1.5, 0.1, 12, 50, batch_size=75, holdout_size=37, tail=tail)
        got = mgf_rate(inp, zs)
        want = [mgf_rate(inp, float(z)) for z in zs]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestRiskBound:
    def test_bound_never_beats_pure_abstention(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            delta = float(rng.uniform(0.05, 0.4))
            inp = RiskBoundInputs(
                delta, 0.12 * delta, delta, float(rng.uniform(0.1, 6)), 0.1,
                12, 50, batch_size=75, holdout_size=37,
            )
            assert risk_bound(inp) >= delta

    def test_slack_probes_never_beat_optimum(self):
        inp = RiskBoundInputs(0.2, 0.024, 0.2, 1.5, 0.1, 12, 50, batch_size=75, holdout_size=37)
        z_star, best = optimize_slack(inp)
        rng = np.random.default_rng(5)
        for z in rng.uniform(0, 1, size=100):
            assert best <= risk_bound(replace(inp, slack=float(z))) + 1e-12
        assert 0.0 <= z_star <= 1.0

    def test_slack_optimum_stable_under_grid_doubling(self):
        inp = RiskBoundInputs(0.2, 0.024, 0.2, 1.5, 0.1, 12, 50, batch_size=75, holdout_size=37)
        z1, _ = optimize_slack(inp, grid=200)
        z2, _ = optimize_slack(inp, grid=400)
        assert abs(z1 - z2) <= 1e-3

    def test_infinite_batch_drops_quadratic_term(self):
        a = risk_bound(RiskBoundInputs(0.15, 0.0, 0.3, 1.0, 0.0, 10, 50, tail=0.0, slack=1e-6))
        b = risk_bound(RiskBoundInputs(0.15, 0.0, 0.3, 1.0, 0.0, 10, 50,
                                       batch_size=10**9, holdout_size=10**9, tail=0.0, slack=1e-6))
        assert a == pytest.approx(b, abs=1e-8)

    def test_tighter_than_classical_in_matched_regime(self):
        # same numerator; our denominator uses the rate at cost scale < 1
        for delta in (0.05, 0.15, 0.3):
            for rate in np.linspace(0.1, 3.0, 12):
                ours = risk_bound(RiskBoundInputs(
                    delta, 0.0, 0.0, float(rate), 0.0, 10, 50, tail=0.0, slack=1e-9))
                classical = classical_ewaf_bound(float(rate), delta, 10, 50)
                assert ours <= classical + 1e-12

    def test_headline_regime_tighter_pointwise(self):
        for rate in np.linspace(0.1, 3.0, 15):
            ours = risk_bound(headline_inputs(float(rate)))
            classical = classical_ewaf_bound(float(rate), 0.15, 10, 50)
            assert ours <= classical + 1e-12

    def test_unimodal_on_grid(self):
        rates = np.linspace(0.05, 8.0, 80)
        vals = [risk_bound(headline_inputs(float(r))) for r in rates]
        k = int(np.argmin(vals))
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(k))
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(k, len(vals) - 1))


class TestClassicalBound:
    def test_anchor_two_delta_at_070(self):
        got = classical_ewaf_bound(0.70, 0.15, 10, 50)
        assert got == pytest.approx(0.300, abs=0.005)

    def test_increasing_past_minimum(self):
        rates = np.linspace(0.3, 6.0, 40)
        vals = [classical_ewaf_bound(float(r), 0.15, 10, 50) for r in rates]
        k = int(np.argmin(vals))
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(k, len(vals) - 1))

    def test_grid_minimum_near_070(self):
        rates = np.linspace(0.05, 5.0, 496)
        vals = [classical_ewaf_bound(float(r), 0.15, 10, 50) for r in rates]
        assert rates[int(np.argmin(vals))] == pytest.approx(0.70, abs=0.05)


class TestMaxLearningRate:
    def solver_inputs(self, delta):
        return RiskBoundInputs(
            abstain_cost=delta, step_margin=0.2 * 0.6 * delta, drift=delta,
            rate=1.0, cover_alpha=0.1, n_strategies=12, horizon=50,
            batch_size=75, holdout_size=37,
        )

    def test_probe_point_feasibility(self):
        inp = self.solver_inputs(0.25)
        rate0 = 0.8
        target = risk_bound(replace(inp, rate=rate0))
        assert max_learning_rate(target, inp) >= rate0 - 1e-6

    def test_section4_defaults_magnitude(self):
        for delta in (0.15, 0.20, 0.25, 0.30):
            rate = max_learning_rate(1.6 * delta, self.solver_inputs(delta))
            assert 1.0 <= rate <= 2.2, (delta, rate)

    def test_bisection_residual(self):
        inp = self.solver_inputs(0.25)
        rate = max_learning_rate(1.6 * 0.25, inp)
        achieved = risk_bound(replace(inp, rate=rate))
        assert achieved <= 1.6 * 0.25 + 1e-6

    def test_infeasible_target_raises(self):
        inp = self.solver_inputs(0.25)
        with pytest.raises(InfeasibleRateError):
            max_learning_rate(0.25, inp)  # cannot certify below the abstain cost
