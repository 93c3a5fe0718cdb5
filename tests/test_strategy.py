import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modelgate.bounds import RiskBoundTable
from modelgate.numerics import softmax
from modelgate.sim import GRID12
from modelgate.strategy import (
    REPEATED_TTEST,
    StrategyBank,
    advance,
    brute_force_status,
    init_bank,
    optimistic_step,
    step,
    transition_matrix,
)

DELTA = 0.25
EVEN = (0.5, 0.5)


def bank_with(approve=0.3, optimism=0.0, learn=1.0):
    return init_bank([(approve, optimism, learn)])


def table_from(bounds, margin=0.05):
    return RiskBoundTable(np.asarray(bounds, dtype=float), margin)


def open_table(t):
    # every candidate comfortably feasible
    return table_from([DELTA] + [DELTA - 0.1] * t)


def random_table(rng, t, margin):
    # bounds spread around the feasibility threshold so masks activate
    bounds = np.empty(t + 1)
    bounds[0] = DELTA
    bounds[1:] = rng.uniform(DELTA - 0.2, DELTA + margin + 0.25, size=t)
    return table_from(bounds, margin)


def losses_vec(*model_losses):
    return np.array([DELTA, *model_losses])


def advance_open(bank, losses, cost=DELTA):
    """``advance`` under a table that vetoes nothing: abstain cost ``cost``
    and every candidate's bound at it."""
    return advance(bank, losses, table_from(np.full(bank.time_index + 1, cost)))


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
    """The loss update alone: ``advance`` with approve_prob 0 carries the
    posterior v to the next time unchanged, with 0 on the new candidate."""

    def test_zero_learning_rate_keeps_weights(self):
        # optimism plays no part in the update; nonzero, it keeps the row
        # from being the fail-safe
        nxt = advance_open(bank_with(approve=0.0, optimism=1.0, learn=0.0), losses_vec(0.9))
        assert np.allclose(nxt.weights, [[0.5, 0.5, 0.0]])

    def test_equal_losses_keep_weights(self):
        nxt = advance_open(bank_with(approve=0.0, learn=3.0), np.array([DELTA, DELTA]))
        assert np.allclose(nxt.weights, [[0.5, 0.5, 0.0]])

    def test_scalar_arithmetic_oracle(self):
        # v0 = e^{-0.2} / (e^{-0.2} + e^{-0.8}) = 1/(1+e^{-0.6})
        nxt = advance_open(bank_with(approve=0.0, learn=1.0), np.array([0.2, 0.8]), cost=0.2)
        v0 = nxt.weights[0, 0]
        assert v0 == pytest.approx(1.0 / (1.0 + np.exp(-0.6)), abs=1e-12)
        assert v0 == pytest.approx(0.6457, abs=1e-4)

    def test_domain_errors(self):
        bank = bank_with()
        with pytest.raises(ValueError):
            advance_open(bank, np.array([DELTA, 1.4]))
        with pytest.raises(ValueError):
            advance_open(bank, np.array([0.9, 0.5]))  # entry 0 must be the abstain cost
        with pytest.raises(ValueError):
            advance_open(bank, np.array([DELTA, 0.5, 0.5]))  # one entry too many

    def test_loss_edges(self):
        # losses lie in [0, 1] up to 1e-12 of rounding: 0 and 1 exactly and
        # the rounding ends pass, the next floats out are rejected
        bank = bank_with()
        for loss in (-1e-12, 0.0, 1.0, 1.0 + 1e-12):
            advance_open(bank, losses_vec(loss))
        for loss in (math.nextafter(-1e-12, -1.0), math.nextafter(1.0 + 1e-12, 2.0)):
            with pytest.raises(ValueError, match="losses must lie in"):
                advance_open(bank, losses_vec(loss))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_losses_rejected(self, bad):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            advance_open(bank_with(), np.array([DELTA, bad]))

    @given(shift=st.floats(-0.2, 0.2))
    @settings(max_examples=50, deadline=None)
    def test_softmax_shift_invariance(self, shift):
        # adding a constant to every loss, the abstain cost included, cannot
        # change the posterior
        base = np.array([0.5, 0.3])
        a = advance_open(bank_with(approve=0.0, learn=2.0), base, cost=0.5)
        b = advance_open(bank_with(approve=0.0, learn=2.0), base + shift, cost=0.5 + shift)
        assert np.allclose(a.weights, b.weights, atol=1e-12)


class TestAdvance:
    def test_zero_approve_prob_gives_new_model_nothing(self):
        nxt = advance_open(bank_with(approve=0.0), losses_vec(0.1))
        assert nxt.time_index == 2
        assert nxt.weights[0, 2] == pytest.approx(0.0, abs=1e-15)

    def test_full_approve_prob_matrix_vector_oracle(self):
        # eta1=1, t=1: mass on the new model is v0/2 + v1
        losses = losses_vec(0.05)
        v = advance_open(bank_with(approve=0.0, learn=2.0), losses).weights[0]
        nxt = advance_open(bank_with(approve=1.0, learn=2.0), losses)
        assert nxt.weights[0, 2] == pytest.approx(v[0] / 2.0 + v[1], abs=1e-12)

    def test_simplex_preserved(self):
        rng = np.random.default_rng(1)
        bank = bank_with(approve=0.4, learn=5.0)
        for t in range(1, 12):
            losses = np.concatenate([[DELTA], rng.random(t)])
            bank = advance_open(bank, losses)
            assert abs(bank.weights.sum() - 1.0) < 1e-12

    def test_support_never_grows_without_approvals(self):
        rng = np.random.default_rng(2)
        bank = bank_with(approve=0.0, learn=2.0)
        for t in range(1, 8):
            losses = np.concatenate([[DELTA], rng.random(t)])
            bank = advance_open(bank, losses)
            assert np.all(bank.weights[0, 2:] == 0.0)

    @pytest.mark.parametrize("t", [2, 3, 50, 300])
    def test_cumsum_transition_matches_matrix(self, t):
        # learn_rate 0 and an all-true mask: advance applies the transition alone
        rng = np.random.default_rng(t)
        rows = [(a, 0.0, 0.0) for a in (0.0, 0.3, 1.0)]
        logw = np.log(rng.dirichlet(np.ones(t), size=len(rows)))
        bank = StrategyBank(logw, *np.array(rows).T)
        nxt = advance_open(bank, np.r_[DELTA, rng.random(t - 1)])
        v = softmax(logw)
        for i, (a, _, _) in enumerate(rows):
            want = transition_matrix(t, a) @ v[i]
            np.testing.assert_allclose(nxt.weights[i], want, rtol=0.0, atol=1e-15)


class TestBank:
    def test_m_rows_equal_one_row_banks_bitwise(self):
        rng = np.random.default_rng(11)
        margin = 0.05
        rows = list(GRID12) + [
            (float(rng.uniform(0, 1)), float(rng.choice([0.0, 1.0, 1e2])), float(rng.uniform(0, 10)))
            for _ in range(6)
        ]
        bank = init_bank(rows)
        singles = [init_bank([row]) for row in rows]
        masked = 0
        for t in range(1, 9):
            table = random_table(rng, t, margin)
            masked += int(not table.feasible.all())
            losses = np.r_[DELTA, rng.random(t)]
            statuses, bank = step(bank, table, losses)
            for i, single in enumerate(singles):
                status, singles[i] = step(single, table, losses)
                assert np.array_equal(status[0], statuses[i])
                assert np.array_equal(singles[i].log_weights[0], bank.log_weights[i])
        assert masked >= 4

    def test_row_without_feasible_mass_deploys_pure_abstention(self):
        # approve_prob 1 moves all abstention mass to the models at t = 2;
        # when every model is then infeasible, no feasible entry has weight
        bank = init_bank([(1.0, 0.0, 1.0), (0.3, 0.0, 1.0)])
        bank = advance_open(bank, losses_vec(0.3))
        assert bank.weights[0, 0] == 0.0
        closed = table_from([DELTA, 0.9, 0.9])
        statuses = optimistic_step(bank, closed)
        assert statuses[0].tolist() == [1.0, 0.0, 0.0]
        assert statuses[1, 0] == 1.0
        # the carried weights of the dead row restart from abstention, which
        # approve_prob 1 then spreads evenly over the three candidates
        nxt = advance(bank, losses_vec(0.3, 0.3), closed)
        assert nxt.weights[0] == pytest.approx([0.0, 1 / 3, 1 / 3, 1 / 3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_hyperparameters_rejected(self, bad):
        with pytest.raises(ValueError, match=r"approve_prob must lie in \[0, 1\]"):
            init_bank([(0.3, 0.0, 1.0), (bad, 0.0, 1.0)])
        if bad != np.inf:
            with pytest.raises(ValueError, match="must be >= 0"):
                init_bank([(0.3, bad, 1.0)])

    def test_unnormalised_advance_is_a_value_error(self):
        # an explicit check, not an assert, so it holds under python -O too
        bank = bank_with()
        object.__setattr__(bank, "learn_rate", np.array([np.nan]))
        with pytest.raises(ValueError, match="not normalised"):
            advance_open(bank, losses_vec(0.5))

    def test_shape_and_normalisation_checked(self):
        with pytest.raises(ValueError):
            StrategyBank(np.log([0.5, 0.5]), [0.3], [0.0], [1.0])
        with pytest.raises(ValueError):
            StrategyBank(np.log([[0.5, 0.4]]), [0.3], [0.0], [1.0])
        with pytest.raises(ValueError):
            StrategyBank(np.log([[0.5, 0.5]]), [0.3, 0.3], [0.0], [1.0])


class TestOptimisticStep:
    def test_no_optimism_no_mask_renormalises(self):
        status = optimistic_step(bank_with(optimism=0.0), open_table(1))
        assert np.allclose(status, [[0.5, 0.5]])

    def test_all_models_masked_forces_abstention(self):
        status = optimistic_step(bank_with(), table_from([DELTA, 0.9]))
        assert status.tolist() == [[1.0, 0.0]]

    def test_huge_optimism_selects_argmin_bound(self):
        bank = bank_with(optimism=1e6)
        for t in range(1, 4):
            bank = advance_open(bank, np.concatenate([[DELTA], np.full(t, 0.2)]))
        bounds = np.array([DELTA, 0.21, 0.18, 0.24, 0.3])
        status = optimistic_step(bank, table_from(bounds, margin=0.3))
        assert status[0, 2] == pytest.approx(1.0, abs=1e-9)

    def test_time_mismatch_rejected(self):
        with pytest.raises(ValueError):
            optimistic_step(bank_with(), open_table(3))

    def test_advance_rejects_a_table_of_another_time(self):
        with pytest.raises(ValueError, match="different times"):
            advance(bank_with(), losses_vec(0.3), open_table(2))


class TestSpecials:
    """Corner cases of the strategy family, built from their rows."""

    def test_abstain_only_is_pure_abstention_forever(self):
        bank = init_bank([(0, 0, 0)])
        assert (bank.approve_prob[0], bank.optimism[0], bank.learn_rate[0]) == (0.0, 0.0, 0.0)
        rng = np.random.default_rng(3)
        for t in range(1, 7):
            status, bank = step(bank, open_table(t), np.concatenate([[DELTA], rng.random(t)]))
            assert status[0, 0] == 1.0

    def test_repeated_ttest_concentrates_on_lowest_ucb(self):
        bank = init_bank([REPEATED_TTEST])
        assert (bank.approve_prob[0], bank.optimism[0], bank.learn_rate[0]) == (0.5, 1e4, 0.0)
        assert np.allclose(bank.weights, [EVEN])
        _, bank = step(bank, table_from([DELTA, 0.2]), losses_vec(0.2))
        status = optimistic_step(bank, table_from([DELTA, 0.21, 0.17]))
        assert status[0, 2] > 0.999

    def test_blind_prefers_newest_unmasked(self):
        bank = init_bank([(0.99, 0.0, 0.0)])
        assert bank.approve_prob[0] == 0.99
        rng = np.random.default_rng(4)
        for t in range(1, 5):
            _, bank = step(bank, open_table(t), np.concatenate([[DELTA], rng.random(t)]))
        status = optimistic_step(bank, open_table(bank.time_index))[0]
        assert status[-1] >= status[1:-1].max()

    def test_fail_safe_row_gets_abstain_prior(self):
        bank = init_bank([(0, 0, 0), (0.3, 0, 1.0)])
        assert bank.weights.tolist() == [[1.0, 0.0], [0.5, 0.5]]


class TestBruteForceOracle:
    def run_both(self, rng, t_max, row, margin):
        bank = init_bank([row])
        tables, losses_hist, status = [], [], None
        for t in range(1, t_max + 1):
            table = random_table(rng, t, margin)
            blosses = np.concatenate([[DELTA], rng.uniform(0, 1, size=t)])
            tables.append(table)
            losses_hist.append(blosses)
            status, bank = step(bank, table, blosses)
        oracle = brute_force_status(t_max, losses_hist[:-1], tables, row, EVEN)
        return status[0], oracle

    def test_t1_matches_directly(self):
        row = (0.3, 2.0, 1.0)
        table = table_from([DELTA, DELTA - 0.05])
        status = optimistic_step(init_bank([row]), table)[0]
        oracle = brute_force_status(1, [], [table], row, EVEN)
        assert np.allclose(status, oracle, atol=1e-12)

    def test_randomised_equivalence(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            t_max = int(rng.integers(2, 6))
            row = (
                float(rng.uniform(0, 1)),
                float(rng.choice([0.0, 1.0, 12.0, 1e4])),
                float(rng.choice([0.0, 1.0, 10.0])),
            )
            margin = float(rng.uniform(0, 0.2))
            status, oracle = self.run_both(rng, t_max, row, margin)
            assert np.max(np.abs(status - oracle)) < 1e-9, trial

    def test_mid_sequence_mask_zeroes_paths_in_both(self):
        # model 1 violates its bound at t = 2; any sequence visiting it then
        # must carry zero mass in both computations
        row = (0.5, 0.0, 1.0)
        tables = [
            table_from([DELTA, DELTA - 0.05], margin=0.0),
            table_from([DELTA, DELTA + 0.4, DELTA - 0.05], margin=0.0),
            table_from([DELTA, DELTA - 0.05, DELTA - 0.05, DELTA - 0.05], margin=0.0),
        ]
        losses = [losses_vec(0.3), losses_vec(0.3, 0.3), losses_vec(0.3, 0.3, 0.3)]
        bank = init_bank([row])
        status = None
        for table, bl in zip(tables, losses):
            status, bank = step(bank, table, bl)
        oracle = brute_force_status(3, losses[:-1], tables, row, EVEN)
        assert np.max(np.abs(status[0] - oracle)) < 1e-12

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            brute_force_status(7, [], [], (0.3, 0.0, 1.0), EVEN)

    def test_cap_edge(self):
        # t == cap enumerates; the same t over a cap one lower is refused
        row = (0.3, 0.0, 1.0)
        tables = [table_from([DELTA] + [DELTA - 0.05] * t) for t in (1, 2)]
        status = brute_force_status(2, [losses_vec(0.3)], tables, row, EVEN, cap=2)
        assert status.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="beyond t = 1"):
            brute_force_status(2, [losses_vec(0.3)], tables, row, EVEN, cap=1)


class TestReductions:
    def test_no_optimism_no_mask_is_plain_hedge(self):
        # independent reference: hedge over {abstain, model 1} with eta1 = 0
        rng = np.random.default_rng(9)
        bank = bank_with(approve=0.0, learn=2.5)
        logw = np.log(np.array([0.5, 0.5]))
        for t in range(1, 6):
            losses = np.concatenate([[DELTA], rng.random(t)])
            status = optimistic_step(bank, open_table(t))[0]
            ref = np.exp(logw - logw.max())
            ref = ref / ref.sum()
            assert np.allclose(status[:2], ref, atol=1e-10)
            assert np.allclose(status[2:], 0.0)
            logw = logw - 2.5 * losses[:2]
            bank = advance_open(bank, losses)

    def test_masked_model_can_reenter_via_transitions(self):
        bank = bank_with(approve=0.5, learn=0.0)
        # model 1 masked at t = 1: its carried mass dies
        _, bank = step(bank, table_from([DELTA, DELTA + 0.5], margin=0.0), losses_vec(0.5))
        assert bank.weights[0, 1] > 0.0  # re-seeded by the transition
        status = optimistic_step(bank, open_table(2))
        assert status[0, 1] > 0.0


# rows that reach the corner cases: the fail-safe, optimism 1e4 at learn_rate
# 0 (the repeated tester), learn_rate 0 alone, and approve_prob 1, which
# leaves no abstention mass, so a table that vetoes every candidate leaves
# that row no feasible mass at all
STACK_ROWS = [(0.0, 0.0, 0.0), REPEATED_TTEST, (0.3, 0.0, 0.0), (1.0, 0.0, 1.0), (0.5, 10.0, 10.0)]


def replicate_history(rng, t):
    """One replicate's bank entering time t, its own step margin and abstain
    cost, and its table at t: each candidate vetoed or open at random, or all
    of them vetoed."""
    cost = float(rng.uniform(0.1, 0.4))
    margin = float(rng.choice([0.0, 0.02, 0.05]))

    def table(s, closed=False):
        bounds = np.empty(s + 1)
        bounds[0] = cost
        bounds[1:] = rng.uniform(cost - 0.1, cost + margin + 0.1, size=s)
        if closed:
            bounds[1:] = cost + margin + 0.5
        return RiskBoundTable(bounds, margin)

    bank = init_bank(STACK_ROWS)
    for s in range(1, t):
        bank = advance(bank, np.r_[cost, rng.random(s)], table(s))
    return bank, table(t, closed=bool(rng.random() < 0.3)), cost


class TestStackedBank:
    """A stack of R replicates' banks steps bit for bit as R separate banks."""

    @given(replicates=st.integers(1, 4), t=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_separate_calls(self, replicates, t, seed):
        rng = np.random.default_rng(seed)
        parts = [replicate_history(rng, t) for _ in range(replicates)]
        banks, tables, costs = zip(*parts)
        losses = np.array([np.r_[cost, rng.random(t)] for cost in costs])
        stack = StrategyBank(np.stack([b.log_weights for b in banks]), *np.array(STACK_ROWS).T)
        table = RiskBoundTable.stack(tables)
        statuses = optimistic_step(stack, table)
        nxt = advance(stack, losses, table)
        assert statuses.shape == (replicates, len(STACK_ROWS), t + 1)
        for k in range(replicates):
            assert np.array_equal(statuses[k], optimistic_step(banks[k], tables[k]))
            assert np.array_equal(nxt.log_weights[k], advance(banks[k], losses[k], tables[k]).log_weights)

    def test_stack_reaches_a_row_without_feasible_mass(self):
        # the corner the property covers: approve_prob 1 under a closed table
        rng = np.random.default_rng(1)
        bank, table, _ = replicate_history(rng, 3)
        closed = RiskBoundTable(np.r_[table.bounds[0], np.full(3, 0.99)], table.step_margin)
        stack = RiskBoundTable.stack([table, closed])
        statuses = optimistic_step(StrategyBank(np.stack([bank.log_weights] * 2), *np.array(STACK_ROWS).T), stack)
        assert bank.weights[3, 0] == 0.0
        assert statuses[1, 3].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert np.array_equal(statuses[0], optimistic_step(bank, table))

    def stack_of_two(self):
        rng = np.random.default_rng(2)
        (a, ta, ca), (b, tb, cb) = replicate_history(rng, 3), replicate_history(rng, 3)
        stack = StrategyBank(np.stack([a.log_weights, b.log_weights]), *np.array(STACK_ROWS).T)
        losses = np.array([np.r_[ca, rng.random(3)], np.r_[cb, rng.random(3)]])
        return stack, RiskBoundTable.stack([ta, tb]), losses

    def test_every_check_still_raises_for_one_replicate_of_a_stack(self):
        stack, table, losses = self.stack_of_two()
        advance(stack, losses, table)
        unnormalised = stack.log_weights.copy()
        unnormalised[1, 2, 0] += 0.1
        with pytest.raises(ValueError, match="not normalised"):
            StrategyBank(unnormalised, *np.array(STACK_ROWS).T)
        bad = losses.copy()
        bad[1, 2] = 1.5
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            advance(stack, bad, table)
        bad = losses.copy()
        bad[1, 0] += 0.01
        with pytest.raises(ValueError, match="abstain cost"):
            advance(stack, bad, table)
        with pytest.raises(ValueError, match="length time_index"):
            advance(stack, losses[0], table)
        with pytest.raises(ValueError, match="different replicates"):
            optimistic_step(stack, RiskBoundTable.stack([table, table]))
        object.__setattr__(stack, "learn_rate", np.r_[stack.learn_rate[:-1], np.nan])
        with pytest.raises(ValueError, match="not normalised"):
            advance(stack, losses, table)
