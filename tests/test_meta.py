import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modelgate.bounds import RiskBoundTable
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
    _bound_at,
)

DELTA = 0.25
ROWS = ((0.0, 0.0, 0.0), (0.99, 0.0, 0.0), (0.5, 1e4, 0.0), (0.3, 0.0, 1.5))


def open_table(t):
    bounds = np.array([DELTA] + [DELTA - 0.1] * t)
    return RiskBoundTable(bounds, 0.05)


def headline_inputs(delta=0.15, eps_t=0.0):
    # the headline comparison regime: drift twice the cost, infinite data,
    # exact coverage
    return RiskBoundInputs(
        abstain_cost=delta, step_margin=eps_t, drift=2 * delta,
        cover_alpha=0.0, n_strategies=10, horizon=50,
        batch_size=None, holdout_size=None,
    )


class TestMetaForecaster:
    def test_init_uniform_and_fail_safe_enforced(self):
        state = init_meta(ROWS, 1.0)
        assert np.allclose(state.weights, 0.25)
        with pytest.raises(ValueError):
            init_meta(((0.3, 0, 1.5),), 1.0)

    def test_fail_safe_row_alone(self):
        # one row, the fail-safe, is the smallest bank; no rows are refused
        state = init_meta(((0.0, 0.0, 0.0),), 1.0)
        assert state.weights.tolist() == [1.0]
        with pytest.raises(ValueError, match="at least one strategy row"):
            init_meta((), 1.0)

    def test_equal_risks_keep_weights(self):
        state = init_meta(ROWS, 1.0)
        nxt = meta_update(state, np.full(4, 0.3))
        assert np.allclose(nxt.weights, state.weights)

    def test_scalar_arithmetic_oracle(self):
        # two strategies, risks (0.1, 0.9), rate 1:
        # w0 = e^{-0.1} / (e^{-0.1} + e^{-0.9}) = 1/(1+e^{-0.8})
        state = init_meta(((0.0, 0.0, 0.0), (0.3, 0.0, 1.5)), 1.0)
        nxt = meta_update(state, np.array([0.1, 0.9]))
        assert nxt.weights[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.8)), abs=1e-12)
        assert nxt.weights[0] == pytest.approx(0.6900, abs=1e-4)

    def test_zero_rate_never_moves(self):
        state = init_meta(ROWS, 0.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            state = meta_update(state, rng.random(4))
        assert np.allclose(state.weights, 0.25)

    def test_shift_invariance(self):
        state = init_meta(ROWS, 2.0)
        risks = np.array([0.1, 0.4, 0.2, 0.6])
        a = meta_update(state, risks).weights
        b = meta_update(state, np.clip(risks + 0.3, 0, 1)).weights
        assert np.allclose(a, b, atol=1e-12)

    def test_risk_validation(self):
        state = init_meta(ROWS, 1.0)
        with pytest.raises(ValueError):
            meta_update(state, np.array([0.1, 0.2, 0.3, 1.4]))
        with pytest.raises(ValueError):
            meta_update(state, np.array([0.1, 0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_risks_rejected(self, bad):
        state = init_meta(ROWS[:2], 1.0)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            meta_update(state, np.array([0.1, bad]))

    def test_fail_safe_weight_never_vanishes(self):
        # adversarial risks: fail-safe always worst; its weight still obeys
        # the multiplicative lower bound w0 * e^{-rate*T} / normaliser
        rate, horizon = 1.5, 30
        state = init_meta(ROWS, rate)
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
        statuses = rng.random((4, t + 1))
        statuses /= statuses.sum(axis=1, keepdims=True)
        w = rng.dirichlet(np.ones(4))
        mixed = combine(statuses, w)
        direct = sum(wj * s for wj, s in zip(w, statuses))
        assert np.allclose(mixed, direct, atol=1e-12)
        assert mixed.sum() == pytest.approx(1.0, abs=1e-15)

    def test_combine_identical_statuses(self):
        t = 2
        s = np.array([0.2, 0.5, 0.3])
        out = combine([s, s, s], np.array([0.2, 0.3, 0.5]))
        assert len(out) == t + 1
        assert np.allclose(out, s)

    def test_combine_length_mismatch(self):
        a = np.array([0.5, 0.5])
        b = np.array([0.5, 0.25, 0.25])
        with pytest.raises(ValueError):
            combine([a, b], np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            combine([b, b], np.array([0.2, 0.3, 0.5]))

    def test_equal_risk_history_gives_uniform_mixture(self):
        state = init_meta(ROWS, 1.3)
        rng = np.random.default_rng(2)
        for _ in range(4):
            t = state.time_index
            losses = np.concatenate([[DELTA], rng.random(t)])
            state = meta_advance(state, open_table(t), losses, np.full(4, 0.4))
        statuses = strategy_statuses(state, open_table(state.time_index))
        mixed = combine(statuses, state.weights)
        assert statuses.shape == (4, state.time_index + 1)
        assert np.allclose(mixed, statuses.mean(axis=0), atol=1e-10)


def stack_step_inputs(rng, replicates, t, costs):
    """Each replicate's table at time t (some candidates vetoed, at its own
    abstain cost and step margin), its batch loss row and its strategies'
    batch risks."""
    tables, losses = [], []
    for cost in costs:
        margin = float(rng.choice([0.0, 0.05]))
        bounds = np.r_[cost, rng.uniform(cost - 0.1, cost + margin + 0.1, size=t)]
        tables.append(RiskBoundTable(bounds, margin))
        losses.append(np.r_[cost, rng.random(t)])
    return tables, np.array(losses), rng.random((replicates, len(ROWS)))


class TestStackedMeta:
    """A stack of R replicates' forecasters steps bit for bit as R separate ones."""

    @given(replicates=st.integers(1, 4), steps=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           zero_rate=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_separate_calls(self, replicates, steps, seed, zero_rate):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0.0, 3.0, size=replicates)
        if zero_rate:
            rates[0] = 0.0
        costs = rng.uniform(0.1, 0.4, size=replicates)
        stack = init_meta(ROWS, rates)
        singles = [init_meta(ROWS, float(r)) for r in rates]
        for t in range(1, steps + 1):
            tables, losses, risks = stack_step_inputs(rng, replicates, t, costs)
            table = RiskBoundTable.stack(tables)
            statuses = strategy_statuses(stack, table)
            mixed = combine(statuses, stack.weights)
            for k, single in enumerate(singles):
                own = strategy_statuses(single, tables[k])
                assert np.array_equal(stack.weights[k], single.weights)
                assert np.array_equal(statuses[k], own)
                assert np.array_equal(mixed[k], combine(own, single.weights))
            stack = meta_advance(stack, table, losses, risks)
            singles = [meta_advance(s, tables[k], losses[k], risks[k]) for k, s in enumerate(singles)]
            for k, single in enumerate(singles):
                assert np.array_equal(stack.log_weights[k], single.log_weights)
                assert np.array_equal(stack.bank.log_weights[k], single.bank.log_weights)

    def test_every_check_still_raises_for_one_replicate_of_a_stack(self):
        rng = np.random.default_rng(4)
        stack = init_meta(ROWS, np.array([1.0, 2.0]))
        tables, losses, risks = stack_step_inputs(rng, 2, 1, [0.2, 0.3])
        table = RiskBoundTable.stack(tables)
        bad = risks.copy()
        bad[1, 3] = 1.4
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            meta_advance(stack, table, losses, bad)
        bad = losses.copy()
        bad[1, 1] = -0.5
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            meta_advance(stack, table, bad, risks)
        bad = losses.copy()
        bad[0, 0] = 0.9
        with pytest.raises(ValueError, match="abstain cost"):
            meta_advance(stack, table, bad, risks)
        statuses = strategy_statuses(stack, table)
        weights = stack.weights.copy()
        weights[1] = 0.0
        with pytest.raises(ValueError, match="positive total mass"):
            combine(statuses, weights)
        with pytest.raises(ValueError, match="one weight per status row"):
            combine(statuses, stack.weights[0])
        with pytest.raises(ValueError, match="one meta_rate per replicate"):
            replace(stack, meta_rate=1.0)
        with pytest.raises(ValueError, match="meta_rate must be >= 0"):
            init_meta(ROWS, np.array([1.0, -1.0]))


class TestRiskBoundInputs:
    def inputs(self, **kw):
        base = dict(abstain_cost=0.2, step_margin=0.024, drift=0.2, cover_alpha=0.1, n_strategies=12, horizon=50)
        return RiskBoundInputs(**{**base, **kw})

    def test_cover_alpha_edges(self):
        # cover_alpha lies in [0, 1], above 0.5 as well
        for alpha in (0.0, 0.75, 1.0):
            assert self.inputs(cover_alpha=alpha).cover_alpha == alpha
        for alpha in (math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)):
            with pytest.raises(ValueError, match="cover_alpha"):
                self.inputs(cover_alpha=alpha)

    def test_cost_margin_drift_sum_edges(self):
        # the three add to a positive step loss scale: the smallest positive
        # sum passes, a zero sum is rejected
        self.inputs(abstain_cost=math.ulp(0.0), step_margin=0.0, drift=0.0)
        with pytest.raises(ValueError, match="abstain_cost \\+ step_margin \\+ drift"):
            self.inputs(abstain_cost=0.0, step_margin=0.0, drift=0.0)


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

    def test_zero_slack_without_sampled_data_is_zero(self):
        # slack 0 gives 1 only through a sampled term: the holdout's, or the
        # batch's with T >= 2
        assert tail_alpha(0.0, None, None, 50) == 0.0
        assert tail_alpha(0.0, 75, None, 1) == 0.0
        assert tail_alpha(0.0, 75, None, 2) == 1.0
        assert tail_alpha(0.0, None, 37, 1) == 1.0

    @pytest.mark.parametrize("sizes", [(None, None), (75, None), (None, 37), (75, 37)])
    def test_result_has_the_slack_shape(self, sizes):
        for slack in (0.0, 0.2, np.linspace(0.0, 1.0, 7), np.zeros((2, 3))):
            assert np.shape(tail_alpha(slack, *sizes, 50)) == np.shape(slack)

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            tail_alpha(-0.1, 75, 37, 50)
        with pytest.raises(ValueError):
            tail_alpha(np.array([0.2, -0.1]), 75, 37, 50)


class TestMgfRate:
    def test_degenerate_mixture(self):
        inp = RiskBoundInputs(0.15, 0.0, 0.3, 0.0, 10, 50)
        s0 = 0.45
        assert mgf_rate(inp, 1.0, 0.1) == pytest.approx((math.exp(-s0) - 1.0) / s0)

    def test_small_rate_series_limit(self):
        # each mixture term behaves like -rate + O(rate^2): c/rate -> -1
        inp = RiskBoundInputs(0.15, 0.02, 0.15, 0.1, 10, 50, batch_size=75, holdout_size=37)
        c = mgf_rate(inp, 1e-6, 0.2)
        assert c / 1e-6 == pytest.approx(-1.0, abs=1e-3)

    def test_decreasing_in_rate(self):
        inp = RiskBoundInputs(0.15, 0.02, 0.15, 0.1, 10, 50, batch_size=75, holdout_size=37)
        vals = [mgf_rate(inp, r, 0.15) for r in np.linspace(0.1, 5, 25)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rate_edges(self):
        # the one rate check of the bound: the smallest positive rate passes
        # (its moment rounds to 0), rate 0 is rejected
        inp = RiskBoundInputs(0.15, 0.02, 0.15, 0.1, 10, 50, batch_size=75, holdout_size=37)
        assert mgf_rate(inp, math.ulp(0.0), 0.1) == 0.0
        for rate in (0.0, -1.0):
            with pytest.raises(ValueError, match="rate must be > 0"):
                mgf_rate(inp, rate, 0.1)

    def test_strictly_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cost, margin, drift, rate, alpha = (
                float(rng.uniform(lo, hi)) for lo, hi in ((0.05, 0.4), (0, 0.1), (0, 0.5), (0.05, 8), (0, 0.3))
            )
            inp = RiskBoundInputs(cost, margin, drift, alpha, 10, 50, batch_size=75, holdout_size=37)
            assert mgf_rate(inp, rate, float(rng.uniform(0, 1))) < 0.0


class TestSlackArrays:
    """The slack grid is evaluated as one array expression; each entry must
    be what the same formula gives for that slack alone."""

    @pytest.mark.parametrize("sizes, horizon", [((75, 37), 50), ((None, None), 50), ((75, None), 1)])
    def test_tail_alpha_matches_scalar_loop(self, sizes, horizon):
        zs = np.linspace(0.0, 1.0, 201)
        got = tail_alpha(zs, *sizes, horizon)
        want = [tail_alpha(float(z), *sizes, horizon) for z in zs]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        # slack 0 gives 1 only through a sampled term
        assert got[0] == min(1.0, (horizon - 1) * (sizes[0] is not None) + (sizes[1] is not None))

    @pytest.mark.parametrize("sizes", [(75, 37), (None, None)])
    def test_mgf_rate_matches_scalar_loop(self, sizes):
        zs = np.linspace(0.0, 1.0, 201)
        inp = RiskBoundInputs(0.2, 0.024, 0.2, 0.1, 12, 50, *sizes)
        got = mgf_rate(inp, 1.5, zs)
        want = [mgf_rate(inp, 1.5, float(z)) for z in zs]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestRiskBound:
    def test_bound_never_beats_pure_abstention(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            delta = float(rng.uniform(0.05, 0.4))
            inp = RiskBoundInputs(delta, 0.12 * delta, delta, 0.1, 12, 50, batch_size=75, holdout_size=37)
            assert risk_bound(inp, float(rng.uniform(0.1, 6))) >= delta

    def test_slack_probes_never_beat_optimum(self):
        inp = RiskBoundInputs(0.2, 0.024, 0.2, 0.1, 12, 50, batch_size=75, holdout_size=37)
        z_star, best = optimize_slack(inp, 1.5)
        rng = np.random.default_rng(5)
        for z in rng.uniform(0, 1, size=100):
            assert best <= _bound_at(inp, 1.5, float(z)) + 1e-12
        assert 0.0 <= z_star <= 1.0

    def test_slack_optimum_stable_under_grid_doubling(self):
        inp = RiskBoundInputs(0.2, 0.024, 0.2, 0.1, 12, 50, batch_size=75, holdout_size=37)
        z1, _ = optimize_slack(inp, 1.5, grid=200)
        z2, _ = optimize_slack(inp, 1.5, grid=400)
        assert abs(z1 - z2) <= 1e-3

    def test_slack_optimum_meets_the_million_point_grid_minimum(self):
        # with finite data the refined grid's minimum is within 1e-7 of the
        # minimum over a 10^6-step grid, and, being itself a grid minimum of
        # coarser step, never below it beyond rounding
        fine = np.linspace(0.0, 1.0, 1_000_001)
        rng = np.random.default_rng(12)
        for _ in range(100):
            batch = int(rng.choice([20, 75, 500, 2000]))
            cost, margin, drift, rate = (
                float(rng.uniform(lo, hi)) for lo, hi in ((0.05, 0.35), (0, 0.1), (0, 0.5), (0.05, 10.0))
            )
            inp = RiskBoundInputs(
                abstain_cost=cost, step_margin=margin, drift=drift,
                cover_alpha=float(rng.uniform(0, 0.3)),
                n_strategies=int(rng.integers(1, 100)), horizon=int(rng.integers(2, 300)),
                batch_size=batch, holdout_size=None if rng.random() < 0.2 else batch // 2,
            )
            best = float(_bound_at(inp, rate, fine).min())
            _, got = optimize_slack(inp, rate)
            assert best * (1.0 - 1e-12) <= got <= best * (1.0 + 1e-7)

    def test_infinite_data_optimum_is_the_bound_at_slack_zero(self):
        # with no sampled data the tail is 0 at every slack, and the bound
        # rises with the slack wherever cover_alpha > 0: the search returns
        # slack 0 and the bound there, to the bit
        rng = np.random.default_rng(13)
        for _ in range(300):
            cost, margin, drift, rate = (
                float(rng.uniform(lo, hi)) for lo, hi in ((0.05, 0.35), (0, 0.1), (0, 0.5), (0.05, 10.0))
            )
            inp = RiskBoundInputs(
                cost, margin, drift, 0.3 - float(rng.uniform(0, 0.3)),
                int(rng.integers(1, 100)), int(rng.integers(2, 300)),
            )
            assert optimize_slack(inp, rate)[0] == 0.0
            assert risk_bound(inp, rate) == _bound_at(inp, rate, 0.0)

    @pytest.mark.parametrize("inputs, slack", [
        ((RiskBoundInputs(0.2, 0.024, 0.2, 0.1, 12, 50, batch_size=75, holdout_size=37), 1.5), 0.1),
        ((RiskBoundInputs(0.1, 0.012, 0.1, 0.05, 96, 200, batch_size=40, holdout_size=20), 0.8), 0.3),
        ((RiskBoundInputs(0.35, 0.042, 0.7, 0.1, 4, 10, batch_size=500, holdout_size=250), 3.0), 0.05),
    ])
    def test_finite_batch_bound_equals_the_formula(self, inputs, slack):
        # risk_bound's formula -(rate cost + ln(m)/T + rate^2/(8 n)) / c, with
        # c from mgf_rate's docstring and the tail from tail_alpha's
        inputs, rate = inputs
        horizon, a1 = inputs.horizon, inputs.cover_alpha
        n, n_val = inputs.batch_size, inputs.holdout_size
        a2 = min(1.0, (horizon - 1) * math.exp(-8 * slack**2 * n)
                 + math.exp(-8 * slack**2 * n_val))
        s = inputs.abstain_cost + inputs.step_margin + inputs.drift
        term = lambda x: (math.exp(-rate * x) - 1.0) / x
        c = max(0.0, 1.0 - a1 - a2) * term(s) + a1 * term(s + slack) + a2 * term(1.0)
        numer = (rate * inputs.abstain_cost + math.log(inputs.n_strategies) / horizon
                 + rate**2 / (8 * n))
        assert 0.0 < a2 < 1.0 - a1
        assert _bound_at(inputs, rate, slack) == pytest.approx(-numer / c, rel=1e-12, abs=0.0)

    def test_infinite_batch_drops_quadratic_term(self):
        a = risk_bound(RiskBoundInputs(0.15, 0.0, 0.3, 0.0, 10, 50), 1.0)
        b = risk_bound(RiskBoundInputs(0.15, 0.0, 0.3, 0.0, 10, 50, batch_size=10**9, holdout_size=10**9), 1.0)
        assert a == pytest.approx(b, abs=1e-8)

    def test_tighter_than_classical_in_matched_regime(self):
        # same numerator; our denominator uses the rate at cost scale < 1
        for delta in (0.05, 0.15, 0.3):
            for rate in np.linspace(0.1, 3.0, 12):
                ours = risk_bound(RiskBoundInputs(delta, 0.0, 0.0, 0.0, 10, 50), float(rate))
                classical = classical_ewaf_bound(float(rate), delta, 10, 50)
                assert ours <= classical + 1e-12

    def test_headline_regime_tighter_pointwise(self):
        for rate in np.linspace(0.1, 3.0, 15):
            ours = risk_bound(headline_inputs(), float(rate))
            classical = classical_ewaf_bound(float(rate), 0.15, 10, 50)
            assert ours <= classical + 1e-12

    def test_unimodal_on_grid(self):
        rates = np.linspace(0.05, 8.0, 80)
        vals = [risk_bound(headline_inputs(), float(r)) for r in rates]
        k = int(np.argmin(vals))
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(k))
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(k, len(vals) - 1))


class TestClassicalBound:
    def test_rate_edges(self):
        # rate 0 is rejected; a rate just above it gives a huge bound.  Rates
        # below about 1.1e-16 round exp(-rate) to 1 and the denominator to 0,
        # so the least rate tried here is 1e-15.
        assert classical_ewaf_bound(1e-15, 0.15, 10, 50) > 1e13
        for rate in (0.0, -1.0):
            with pytest.raises(ValueError, match="rate must be > 0"):
                classical_ewaf_bound(rate, 0.15, 10, 50)

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


def full_scan_rate(target, inputs, cap, grid):
    """The rate solver before its early exits: every grid rate is scored and
    the bisection always runs 80 steps.  None stands for infeasible."""
    rates = [cap * (i + 1) / grid for i in range(grid)]
    feasible = [r for r in rates if risk_bound(inputs, r) <= target]
    if not feasible:
        return None
    lo = max(feasible)
    later = [r for r in rates if r > lo]
    if not later:
        return cap
    hi = min(later)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if risk_bound(inputs, mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


class TestMaxLearningRate:
    def solver_inputs(self, delta):
        return RiskBoundInputs(
            abstain_cost=delta, step_margin=0.2 * 0.6 * delta, drift=delta,
            cover_alpha=0.1, n_strategies=12, horizon=50,
            batch_size=75, holdout_size=37,
        )

    def test_probe_point_feasibility(self):
        inp = self.solver_inputs(0.25)
        rate0 = 0.8
        target = risk_bound(inp, rate0)
        assert max_learning_rate(target, inp) >= rate0 - 1e-6

    def test_section4_defaults_magnitude(self):
        for delta in (0.15, 0.20, 0.25, 0.30):
            rate = max_learning_rate(1.6 * delta, self.solver_inputs(delta))
            assert 1.0 <= rate <= 2.2, (delta, rate)

    def test_bisection_residual(self):
        inp = self.solver_inputs(0.25)
        rate = max_learning_rate(1.6 * 0.25, inp)
        achieved = risk_bound(inp, rate)
        assert achieved <= 1.6 * 0.25 + 1e-6

    def test_infeasible_target_raises(self):
        inp = self.solver_inputs(0.25)
        with pytest.raises(InfeasibleRateError):
            max_learning_rate(0.25, inp)  # cannot certify below the abstain cost

    def test_early_exits_match_full_scan(self):
        # the scan stops at the first infeasible rate after a feasible one
        # and the bisection once its midpoint rounds onto an end; neither
        # may change a rate.  Small grids and cap 2 reach the feasible-at-cap
        # branch; grid 200 and cap 20 are the defaults.
        rng = np.random.default_rng(6)
        outcomes = {"infeasible": 0, "cap": 0, "bisected": 0}
        for _ in range(300):
            cost = float(rng.uniform(0.05, 0.4))
            inp = RiskBoundInputs(
                abstain_cost=cost, step_margin=float(rng.uniform(0, 0.1)),
                drift=float(rng.uniform(0, 0.4)),
                cover_alpha=float(rng.uniform(0, 0.3)),
                n_strategies=int(rng.integers(1, 100)), horizon=int(rng.integers(10, 300)),
                batch_size=None if rng.random() < 0.2 else int(rng.integers(20, 500)),
                holdout_size=None if rng.random() < 0.2 else int(rng.integers(10, 250)),
            )
            target = cost * float(rng.uniform(1.0, 3.0))
            cap = float(rng.choice([2.0, 20.0]))
            grid = int(rng.choice([20, 50, 200]))
            want = full_scan_rate(target, inp, cap, grid)
            try:
                got = max_learning_rate(target, inp, cap=cap, grid=grid)
            except InfeasibleRateError:
                got = None
            assert got == want, (inp, target, cap, grid)
            outcomes["infeasible" if want is None else "cap" if want == cap else "bisected"] += 1
        assert min(outcomes.values()) >= 30, outcomes
