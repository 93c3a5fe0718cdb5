import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modelgate.bounds import (
    LossLedger,
    RiskBoundTable,
    build_bound_table,
    hoeffding_ucb,
    window_start,
)
from modelgate.core import CandidateModel, LossFunction, MonitoringBatch

HINGE = LossFunction("clipped_hinge", scale=2.0)


def constant_model(value, d=2):
    """A candidate on d features whose every score is ``value``: zero
    weights and the intercept 2 atanh(value); +-40 gives exactly +-1."""
    coef = np.zeros(d + 1)
    coef[-1] = math.copysign(40.0, value) if abs(value) == 1.0 else 2.0 * math.atanh(value)
    return CandidateModel(coef)


def ledger_of(candidates, batches, horizon):
    """Record batch s for candidates 1..s, as the run loop does at step s."""
    ledger = LossLedger(horizon)
    for s, batch in enumerate(batches, start=1):
        preds = np.column_stack([candidates[j].predict(batch.features) for j in range(1, s + 1)])
        ledger.record(s, HINGE.of_array(preds, batch.labels[:, None]))
    return ledger


def iid_batch(rng, n=30, d=2):
    feats = rng.standard_normal((n, d))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return MonitoringBatch(feats, labels)


class TestWindowStart:
    def test_window_binds(self):
        assert window_start(10, 2, 3) == 7

    def test_birth_time_binds(self):
        assert window_start(3, 2, 5) == 2

    def test_newest_model_uses_previous_step(self):
        assert window_start(10, 10, 3) == 9

    def test_bad_index(self):
        with pytest.raises(ValueError):
            window_start(10, 11, 3)
        with pytest.raises(ValueError):
            window_start(10, 0, 3)


class TestHoeffdingUcb:
    def test_closed_form_on_zero_losses(self):
        # sqrt(ln 10 / 200)
        got = hoeffding_ucb(0.0, 100, 0.1)
        assert got == pytest.approx(math.sqrt(math.log(10.0) / 200.0), abs=1e-12)
        assert got == pytest.approx(0.10730, abs=5e-5)

    def test_alpha_near_one_collapses_to_mean(self):
        losses = np.array([0.2, 0.4, 0.6])
        assert hoeffding_ucb(losses.mean(), 3, 1 - 1e-12) == pytest.approx(losses.mean(), abs=1e-5)

    def test_ucb_at_least_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            losses = rng.random(rng.integers(1, 40))
            assert hoeffding_ucb(losses.mean(), losses.size, 0.1) >= losses.mean()

    def test_monte_carlo_coverage(self):
        # IID uniform losses: the true mean exceeds the UCB in at most
        # alpha of trials, up to binomial noise
        rng = np.random.default_rng(42)
        alpha, trials, n = 0.1, 4000, 25
        losses = rng.random((trials, n))
        ucbs = losses.mean(axis=1) + math.sqrt(math.log(1 / alpha) / (2 * n))
        failures = np.mean(0.5 > ucbs)
        assert failures <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials)

    def test_validation(self):
        with pytest.raises(ValueError):
            hoeffding_ucb(0.0, 0, 0.1)
        with pytest.raises(ValueError):
            hoeffding_ucb(0.5, 1, 1.5)

    def test_alpha_edges(self):
        # alpha lies in (0, 1): the floats just inside give a bound (an
        # infinite one at the smallest alpha), the ends are rejected
        assert hoeffding_ucb(0.2, 10, math.ulp(0.0)) == math.inf
        assert 0.2 <= hoeffding_ucb(0.2, 10, math.nextafter(1.0, 0.0)) < 0.2 + 1e-8
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError, match="alpha"):
                hoeffding_ucb(0.2, 10, alpha)


class TestRiskBoundTable:
    def test_abstain_cost_edges(self):
        # the abstain cost lies in (0, 1): the floats just inside build a
        # table, the ends are rejected
        for cost in (math.ulp(0.0), math.nextafter(1.0, 0.0)):
            assert RiskBoundTable(np.array([cost, 0.5]), 0.0).bounds[0] == cost
        for cost in (0.0, 1.0):
            with pytest.raises(ValueError, match="abstain_cost"):
                RiskBoundTable(np.array([cost, 0.5]), 0.0)


class TestBuildBoundTable:
    def setup_method(self):
        self.bound = dict(alpha=0.1, window=3, step_margin=0.05)

    def test_t1_layout(self):
        candidates = [None, constant_model(1.0)]
        rng = np.random.default_rng(1)
        val = iid_batch(rng, n=10)
        table = build_bound_table(1, candidates, LossLedger(1), val, HINGE, 0.3, **self.bound)
        assert table.bounds[0] == 0.3
        assert len(table.bounds) == 2
        # constant prediction 1.0: loss 0 on +1 labels, 1 on -1 labels
        base = HINGE.of_array(np.ones(10), val.labels).mean()
        assert table.bounds[1] == pytest.approx(base + math.sqrt(math.log(10.0) / 20.0))

    def test_constant_losses_give_exact_halfwidth(self):
        candidates = [None, constant_model(1.0), constant_model(1.0)]
        rng = np.random.default_rng(2)
        batches = []
        for t in (1, 2):
            b = iid_batch(rng, n=20)
            batches.append(MonitoringBatch(b.features, np.ones(20)))  # all +1: loss 0
        val = batches[-1]
        ledger = ledger_of(candidates, batches[:1], 2)
        table = build_bound_table(2, candidates, ledger, val, HINGE, 0.3, **self.bound)
        # model 1 pools batch 1 (20 zero losses) at level alpha/2
        assert table.bounds[1] == pytest.approx(math.sqrt(math.log(20.0) / 40.0))

    def test_bonferroni_level_scales_with_t(self):
        rng = np.random.default_rng(3)
        candidates = [None]
        batches = []
        for t in range(1, 5):
            candidates.append(constant_model(0.5))
            if t < 4:
                batches.append(MonitoringBatch(*_all_plus(rng, 20)))
        val = batches[-1]
        ledger = ledger_of(candidates, batches, 4)
        table = build_bound_table(4, candidates, ledger, val, HINGE, 0.3, **self.bound)
        # model 1 pools batches 1..3 (60 obs of loss .25) at level alpha/4
        expected = 0.25 + math.sqrt(math.log(40.0) / 120.0)
        assert table.bounds[1] == pytest.approx(expected)

    def test_only_the_newest_candidate_is_scored(self):
        # older candidates' bounds come from the ledger alone
        rng = np.random.default_rng(7)
        scored = [None] + [constant_model(0.5) for _ in (1, 2, 3)]
        batches = [iid_batch(rng) for _ in (1, 2)]
        ledger = ledger_of(scored, batches, 3)
        # scoring an older entry would fail: None has no predict
        candidates = [None, None, None, constant_model(0.5)]
        val = batches[-1]
        table = build_bound_table(3, candidates, ledger, val, HINGE, 0.3, **self.bound)
        expected = build_bound_table(3, scored, ledger, val, HINGE, 0.3, **self.bound)
        assert table.bounds.tolist() == expected.bounds.tolist()

    def test_pooled_mean_weights_every_row_equally(self):
        # batches of 10 and 30 rows: candidate 1's pooled mean is per observation
        candidates = constant_candidates(3)
        val = MonitoringBatch(*_all_plus(np.random.default_rng(8), 10))
        ledger = LossLedger(3)
        ledger.record(1, np.full((10, 1), 0.1))
        ledger.record(2, np.full((30, 2), 0.5))
        table = build_bound_table(3, candidates, ledger, val, HINGE, 0.3, **self.bound)
        expected = (10 * 0.1 + 30 * 0.5) / 40 + math.sqrt(math.log(30.0) / 80.0)
        assert table.bounds[1] == pytest.approx(expected, abs=1e-15)
        with pytest.raises(ValueError, match="empty evaluation window"):
            # nothing recorded yet
            build_bound_table(3, candidates, LossLedger(3), val, HINGE, 0.3, **self.bound)

    def test_empty_batch_in_the_window_raises(self):
        # batch 3 has no rows, and candidate 3 pools batch 3 alone at t = 4
        candidates = constant_candidates(4)
        val = MonitoringBatch(*_all_plus(np.random.default_rng(9), 10))
        ledger = LossLedger(4)
        ledger.record(1, np.full((5, 1), 0.2))
        ledger.record(2, np.full((5, 2), 0.2))
        ledger.record(3, np.zeros((0, 3)))
        with pytest.raises(ValueError, match="candidate 3 has an empty evaluation window"):
            build_bound_table(4, candidates, ledger, val, HINGE, 0.3, **self.bound)

    def test_candidates_must_cover_every_step(self):
        # abstention plus candidates 1..t: one entry short or over is refused
        val = MonitoringBatch(*_all_plus(np.random.default_rng(10), 10))
        ledger = LossLedger(3)
        ledger.record(1, np.full((5, 1), 0.2))
        ledger.record(2, np.full((5, 2), 0.2))
        for count in (3, 5):
            with pytest.raises(ValueError, match="candidates 1..3"):
                build_bound_table(3, constant_candidates(count - 1), ledger, val, HINGE, 0.3,
                                  **self.bound)

    @pytest.mark.parametrize("cost, step_margin",
                             [(0.3, 0.05), (0.1, 0.012), (0.25, 0.03), (0.05, 0.0)])
    def test_feasible_up_to_exactly_cost_plus_step_margin(self, cost, step_margin):
        # the gate admits a bound at cost + step_margin (1e-12 of rounding
        # slack included) and vetoes one just past it
        edge = cost + step_margin
        table = RiskBoundTable(np.array([cost, edge, edge + 1e-11]), step_margin)
        assert table.feasible.tolist() == [True, True, False]

    def test_step_margin_reaches_the_veto(self):
        # a pooled bound strictly between the cost and the cost plus the
        # margin is admitted with the margin and vetoed without it
        candidates = [None, constant_model(1.0)]
        val = MonitoringBatch(*_all_plus(np.random.default_rng(11), 10))  # loss 0
        args = (1, candidates, LossLedger(1), val, HINGE, 0.3)
        admitted = build_bound_table(*args, alpha=0.1, window=3, step_margin=0.05)
        vetoed = build_bound_table(*args, alpha=0.1, window=3, step_margin=0.0)
        assert 0.3 < admitted.bounds[1] < 0.35  # sqrt(ln(10) / 20) = 0.339
        assert admitted.bounds.tolist() == vetoed.bounds.tolist()
        assert admitted.feasible.tolist() == [True, True]
        assert vetoed.feasible.tolist() == [True, False]

    def test_feasible_mask_keeps_abstain(self):
        table = RiskBoundTable(np.array([0.3, 0.9, 0.25]), 0.05)
        assert table.feasible.tolist() == [True, False, True]
        all_bad = RiskBoundTable(np.array([0.3, 2.0]), 0.0)
        assert all_bad.feasible.tolist() == [True, False]

    def test_bounds_not_clipped(self):
        candidates = [None, constant_model(-1.0)]  # always wrong on +1 labels: loss 1
        rng = np.random.default_rng(6)
        feats, labels = _all_plus(rng, 10)
        val = MonitoringBatch(feats, labels)
        table = build_bound_table(1, candidates, LossLedger(1), val, HINGE, 0.3, **self.bound)
        assert table.bounds[1] > 1.0


def _all_plus(rng, n, d=2):
    return rng.standard_normal((n, d)), np.ones(n)


def constant_candidates(t):
    return [None] + [constant_model(0.5) for _ in range(t)]


def loop_bounds(t, ledger, window, level):
    """Candidates 1..t-1's bounds one at a time, as the table once computed
    them: each column's pooled sum and count, then ``hoeffding_ucb``."""
    out = []
    for j in range(1, t):
        tau = window_start(t, j, window)
        count = int(ledger.counts[tau:t].sum())
        out.append(hoeffding_ucb(float(ledger.sums[tau:t, j].sum()) / count, count, level))
    return out


@settings(max_examples=200, deadline=None)
@given(t=st.integers(1, 40), window=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(t=1, window=1, seed=0)
@example(t=5, window=12, seed=1)
@example(t=40, window=7, seed=2)
@example(t=40, window=12, seed=3)
def test_table_matches_the_candidate_loop(t, window, seed):
    # unequal batch sizes, random losses in [0, 1]
    rng = np.random.default_rng(seed)
    ledger = LossLedger(t)
    for s in range(1, t):
        ledger.record(s, rng.random((int(rng.integers(1, 60)), s)))
    val = MonitoringBatch(*_all_plus(rng, 10))
    table = build_bound_table(t, constant_candidates(t), ledger, val,
                              HINGE, 0.3, alpha=0.1, window=window, step_margin=0.05)
    want = loop_bounds(t, ledger, window, 0.1 / t)
    got = table.bounds[1:t].tolist()
    if window <= 7:
        # at most 7 batches: a 1-D sum adds them in order, as the table does
        assert got == want
    else:
        # numpy sums a longer 1-D slice pairwise
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
