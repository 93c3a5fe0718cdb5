import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modelgate.bounds import RiskBoundTable
from modelgate.strategy import (
    REPEATED_TTEST,
    MarkovPrior,
    StrategyParams,
    brute_force_status,
    advance,
    init_state,
    loss_update,
    optimistic_step,
    step,
    strategy_from_row,
    transition_matrix,
)

DELTA = 0.25


def params_with(approve=0.3, optimism=0.0, learn=1.0, margin=0.05):
    return StrategyParams(approve, optimism, learn, margin, DELTA)


def table_from(bounds):
    bounds = np.asarray(bounds, dtype=float)
    t = len(bounds) - 1
    return RiskBoundTable(t, bounds, np.zeros(t + 1, dtype=int))


def open_table(t):
    # every candidate comfortably feasible
    return table_from([DELTA] + [DELTA - 0.1] * t)


def losses_vec(*model_losses):
    return np.array([DELTA, *model_losses])


class TestTransitionMatrix:
    def test_zero_approve_prob_is_identity_on_old_states(self):
        A = transition_matrix(4, 0.0)
        assert np.allclose(A[:4, :4], np.eye(4))
        assert np.allclose(A[4], 0.0)

    def test_t2_column(self):
        A = transition_matrix(2, 0.3)
        assert np.allclose(A[:, 1], [0.0, 0.7, 0.3])
        assert np.allclose(A[:, 0], [0.7, 0.15, 0.15])

    def test_columns_stochastic(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            t = int(rng.integers(2, 12))
            A = transition_matrix(t, float(rng.random()))
            assert np.allclose(A.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(A >= 0)
            # no backward transitions
            for k in range(t):
                assert np.allclose(A[:k, k], 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            transition_matrix(1, 0.5)
        with pytest.raises(ValueError):
            transition_matrix(3, 1.5)


class TestLossUpdate:
    def test_zero_learning_rate_keeps_weights(self):
        state = init_state(params_with(learn=0.0), MarkovPrior(0.3))
        v = loss_update(state, losses_vec(0.9))
        assert np.allclose(v, [0.5, 0.5])

    def test_equal_losses_keep_weights(self):
        state = init_state(params_with(learn=3.0), MarkovPrior(0.3))
        v = loss_update(state, np.array([DELTA, DELTA]))
        assert np.allclose(v, [0.5, 0.5])

    def test_scalar_arithmetic_oracle(self):
        # v0 = e^{-0.2} / (e^{-0.2} + e^{-0.8}) = 1/(1+e^{-0.6})
        p = StrategyParams(0.3, 0.0, 1.0, 0.05, 0.2)
        state = init_state(p, MarkovPrior(0.3))
        v = loss_update(state, np.array([0.2, 0.8]))
        assert v[0] == pytest.approx(1.0 / (1.0 + np.exp(-0.6)), abs=1e-12)
        assert v[0] == pytest.approx(0.6457, abs=1e-4)

    def test_domain_errors(self):
        state = init_state(params_with(), MarkovPrior(0.3))
        with pytest.raises(ValueError):
            loss_update(state, np.array([DELTA, 1.4]))
        with pytest.raises(ValueError):
            loss_update(state, np.array([0.9, 0.5]))  # entry 0 must be the abstain cost

    @given(shift=st.floats(-0.2, 0.2))
    @settings(max_examples=50, deadline=None)
    def test_softmax_shift_invariance(self, shift):
        # adding a constant to every loss cannot change the posterior
        p = StrategyParams(0.3, 0.0, 2.0, 0.05, 0.5)
        state = init_state(p, MarkovPrior(0.3))
        base = np.array([0.5, 0.3])
        lifted = np.clip(base + shift, 0.0, 1.0)
        if not np.allclose(lifted - base, shift):
            return  # clipped: invariance does not apply
        v1 = loss_update(state, np.array([0.5, base[1]]))
        # compare at the v level with entry 0 pinned: emulate by direct softmax
        logw = state.log_weights - p.learn_rate * base
        logw2 = state.log_weights - p.learn_rate * lifted
        w1 = np.exp(logw - logw.max()); w1 /= w1.sum()
        w2 = np.exp(logw2 - logw2.max()); w2 /= w2.sum()
        assert np.allclose(w1, w2, atol=1e-9)
        del v1


class TestAdvance:
    def test_zero_approve_prob_gives_new_model_nothing(self):
        state = init_state(params_with(approve=0.0), MarkovPrior(0.0))
        nxt = advance(state, losses_vec(0.1))
        assert nxt.time_index == 2
        assert nxt.weights[2] == pytest.approx(0.0, abs=1e-15)

    def test_full_approve_prob_matrix_vector_oracle(self):
        # eta1=1, t=1: mass on the new model is v0/2 + v1
        state = init_state(params_with(approve=1.0, learn=2.0), MarkovPrior(1.0))
        losses = losses_vec(0.05)
        v = loss_update(state, losses)
        nxt = advance(state, losses)
        assert nxt.weights[2] == pytest.approx(v[0] / 2.0 + v[1], abs=1e-12)

    def test_simplex_preserved(self):
        rng = np.random.default_rng(1)
        state = init_state(params_with(approve=0.4, learn=5.0), MarkovPrior(0.4))
        for t in range(1, 12):
            losses = np.concatenate([[DELTA], rng.random(t)])
            state = advance(state, losses)
            assert abs(state.weights.sum() - 1.0) < 1e-12

    def test_support_never_grows_without_approvals(self):
        rng = np.random.default_rng(2)
        state = init_state(params_with(approve=0.0, learn=2.0), MarkovPrior(0.0))
        for t in range(1, 8):
            losses = np.concatenate([[DELTA], rng.random(t)])
            state = advance(state, losses)
            assert np.all(state.weights[2:] == 0.0)


class TestOptimisticStep:
    def test_no_optimism_no_mask_renormalises(self):
        state = init_state(params_with(optimism=0.0), MarkovPrior(0.3))
        status = optimistic_step(state, open_table(1))
        assert np.allclose(status.weights, [0.5, 0.5])

    def test_all_models_masked_forces_abstention(self):
        state = init_state(params_with(), MarkovPrior(0.3))
        table = table_from([DELTA, 0.9])
        status = optimistic_step(state, table)
        assert status.weights.tolist() == [1.0, 0.0]

    def test_huge_optimism_selects_argmin_bound(self):
        p = params_with(optimism=1e6, margin=0.3)
        state = init_state(p, MarkovPrior(0.3))
        for t in range(1, 4):
            state = advance(state, np.concatenate([[DELTA], np.full(t, 0.2)]),
                            np.ones(t + 1, dtype=bool))
        bounds = np.array([DELTA, 0.21, 0.18, 0.24, 0.3])
        status = optimistic_step(state, table_from(bounds))
        assert status.weights[2] == pytest.approx(1.0, abs=1e-9)

    def test_time_mismatch_rejected(self):
        state = init_state(params_with(), MarkovPrior(0.3))
        with pytest.raises(ValueError):
            optimistic_step(state, open_table(3))


class TestSpecials:
    """Corner cases of the strategy family, built from their rows."""

    def test_abstain_only_is_pure_abstention_forever(self):
        params, prior = strategy_from_row((0, 0, 0), DELTA, 0.05)
        assert params.row == (0.0, 0.0, 0.0)
        state = init_state(params, prior)
        rng = np.random.default_rng(3)
        for t in range(1, 7):
            status, state = step(state, open_table(t), np.concatenate([[DELTA], rng.random(t)]))
            assert status.weights[0] == 1.0

    def test_repeated_ttest_concentrates_on_lowest_ucb(self):
        params, prior = strategy_from_row(REPEATED_TTEST, DELTA, 0.05)
        assert params.row == (0.5, 1e4, 0.0)
        assert prior.initial == (0.5, 0.5)
        state = init_state(params, prior)
        status, state = step(state, table_from([DELTA, 0.2]), losses_vec(0.2))
        status = optimistic_step(state, table_from([DELTA, 0.21, 0.17]))
        assert status.weights[2] > 0.999

    def test_blind_prefers_newest_unmasked(self):
        params, prior = strategy_from_row((0.99, 0.0, 0.0), DELTA, 0.05)
        assert params.approve_prob == 0.99
        state = init_state(params, prior)
        rng = np.random.default_rng(4)
        for t in range(1, 5):
            status, state = step(state, open_table(t), np.concatenate([[DELTA], rng.random(t)]))
        status = optimistic_step(state, open_table(state.time_index))
        assert status.weights[-1] >= status.weights[1:-1].max()

    def test_fail_safe_row_gets_abstain_prior(self):
        _, prior = strategy_from_row((0, 0, 0), DELTA, 0.05)
        assert prior.initial == (1.0, 0.0)
        _, prior = strategy_from_row((0.3, 0, 1.0), DELTA, 0.05)
        assert prior.initial == (0.5, 0.5)


class TestBruteForceOracle:
    def run_both(self, rng, t_max, params, prior):
        state = init_state(params, prior)
        tables, losses_hist, status = [], [], None
        for t in range(1, t_max + 1):
            bounds = np.empty(t + 1)
            bounds[0] = params.abstain_cost
            bounds[1:] = rng.uniform(
                params.abstain_cost - 0.2,
                params.abstain_cost + params.step_margin + 0.25,
                size=t,
            )
            table = table_from(bounds)
            blosses = np.concatenate([[params.abstain_cost], rng.uniform(0, 1, size=t)])
            tables.append(table)
            losses_hist.append(blosses)
            status, state = step(state, table, blosses)
        oracle = brute_force_status(t_max, losses_hist[:-1], tables, params, prior)
        return status, oracle

    def test_t1_matches_directly(self):
        params = params_with(optimism=2.0)
        prior = MarkovPrior(params.approve_prob)
        state = init_state(params, prior)
        table = table_from([DELTA, DELTA - 0.05])
        status = optimistic_step(state, table)
        oracle = brute_force_status(1, [], [table], params, prior)
        assert np.allclose(status.weights, oracle.weights, atol=1e-12)

    def test_randomised_equivalence(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            t_max = int(rng.integers(2, 6))
            params = StrategyParams(
                float(rng.uniform(0, 1)),
                float(rng.choice([0.0, 1.0, 12.0, 1e4])),
                float(rng.choice([0.0, 1.0, 10.0])),
                float(rng.uniform(0, 0.2)),
                DELTA,
            )
            prior = MarkovPrior(params.approve_prob)
            status, oracle = self.run_both(rng, t_max, params, prior)
            assert np.max(np.abs(status.weights - oracle.weights)) < 1e-9, trial

    def test_mid_sequence_mask_zeroes_paths_in_both(self):
        # model 1 violates its bound at t = 2; any sequence visiting it then
        # must carry zero mass in both computations
        params = params_with(approve=0.5, learn=1.0, optimism=0.0, margin=0.0)
        prior = MarkovPrior(0.5)
        tables = [
            table_from([DELTA, DELTA - 0.05]),
            table_from([DELTA, DELTA + 0.4, DELTA - 0.05]),
            table_from([DELTA, DELTA - 0.05, DELTA - 0.05, DELTA - 0.05]),
        ]
        losses = [losses_vec(0.3), losses_vec(0.3, 0.3), losses_vec(0.3, 0.3, 0.3)]
        state = init_state(params, prior)
        status = None
        for table, bl in zip(tables, losses):
            status, state = step(state, table, bl)
        oracle = brute_force_status(3, losses[:-1], tables, params, prior)
        assert np.max(np.abs(status.weights - oracle.weights)) < 1e-12

    def test_cap_enforced(self):
        params = params_with()
        with pytest.raises(ValueError):
            brute_force_status(7, [], [], params, MarkovPrior(params.approve_prob))


class TestReductions:
    def test_no_optimism_no_mask_is_plain_hedge(self):
        # independent reference: hedge over {abstain, model 1} with eta1 = 0
        rng = np.random.default_rng(9)
        params = params_with(approve=0.0, learn=2.5)
        prior = MarkovPrior(0.0)
        state = init_state(params, prior)
        logw = np.log(np.array([0.5, 0.5]))
        for t in range(1, 6):
            losses = np.concatenate([[DELTA], rng.random(t)])
            status = optimistic_step(state, open_table(t))
            ref = np.exp(logw - logw.max())
            ref = ref / ref.sum()
            assert np.allclose(status.weights[:2], ref, atol=1e-10)
            assert np.allclose(status.weights[2:], 0.0)
            logw = logw - params.learn_rate * losses[:2]
            state = advance(state, losses)

    def test_masked_model_can_reenter_via_transitions(self):
        params = params_with(approve=0.5, learn=0.0, margin=0.0)
        prior = MarkovPrior(0.5)
        state = init_state(params, prior)
        # model 1 masked at t = 1: its carried mass dies
        _, state = step(state, table_from([DELTA, DELTA + 0.5]), losses_vec(0.5))
        assert state.weights[1] > 0.0  # re-seeded by the transition
        status = optimistic_step(state, open_table(2))
        assert status.weights[1] > 0.0
