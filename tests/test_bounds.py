import math

import numpy as np
import pytest

from modelgate.bounds import (
    BoundConfig,
    LossLedger,
    RiskBoundTable,
    build_bound_table,
    hoeffding_ucb,
    window_start,
)
from modelgate.core import AugmentedLossConfig, CandidateModel, LossFunction, ModelRegistry, MonitoringBatch

HINGE = LossFunction("clipped_hinge", scale=2.0)


def constant_model(model_id, value):
    return CandidateModel(model_id, lambda x, v=value: np.full(len(x), v), birth_time=model_id)


def ledger_of(registry, batches, horizon):
    """Record batch s for candidates 1..s, as the run loop does at step s."""
    ledger = LossLedger(horizon)
    for s, batch in enumerate(batches, start=1):
        preds = np.column_stack([registry[j].predict(batch.features) for j in range(1, s + 1)])
        ledger.record(s, HINGE.of_array(preds, batch.labels[:, None]))
    return ledger


def iid_batch(rng, t, n=30, d=2):
    feats = rng.standard_normal((n, d))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return MonitoringBatch(t, feats, labels)


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


class TestBuildBoundTable:
    def setup_method(self):
        self.cfg = BoundConfig(alpha=0.1, window=3, validation_fraction=0.5)
        self.loss_cfg = AugmentedLossConfig(HINGE, 0.3)

    def test_t1_layout(self):
        registry = ModelRegistry()
        registry.add(constant_model(1, 1.0))
        rng = np.random.default_rng(1)
        val = iid_batch(rng, 0, n=10)
        table = build_bound_table(1, registry, LossLedger(1), (val, val), self.cfg, self.loss_cfg)
        assert table.bounds[0] == 0.3
        assert len(table.bounds) == 2
        # constant prediction 1.0: loss 0 on +1 labels, 1 on -1 labels
        base = HINGE.of_array(np.ones(10), val.labels).mean()
        assert table.bounds[1] == pytest.approx(base + math.sqrt(math.log(10.0) / 20.0))

    def test_constant_losses_give_exact_halfwidth(self):
        registry = ModelRegistry()
        registry.add(constant_model(1, 1.0))
        registry.add(constant_model(2, 1.0))
        rng = np.random.default_rng(2)
        batches = []
        for t in (1, 2):
            b = iid_batch(rng, t, n=20)
            batches.append(MonitoringBatch(t, b.features, np.ones(20)))  # all +1: loss 0
        val = batches[-1]
        ledger = ledger_of(registry, batches[:1], 2)
        table = build_bound_table(2, registry, ledger, (val, val), self.cfg, self.loss_cfg)
        # model 1 pools batch 1 (20 zero losses) at level alpha/2
        assert table.bounds[1] == pytest.approx(math.sqrt(math.log(20.0) / 40.0))

    def test_bonferroni_level_scales_with_t(self):
        rng = np.random.default_rng(3)
        registry = ModelRegistry()
        batches = []
        for t in range(1, 5):
            registry.add(constant_model(t, 0.5))
            if t < 4:
                batches.append(MonitoringBatch(t, *_all_plus(rng, 20)))
        val = batches[-1]
        ledger = ledger_of(registry, batches, 4)
        table = build_bound_table(4, registry, ledger, (val, val), self.cfg, self.loss_cfg)
        # model 1 pools batches 1..3 (60 obs of loss .25) at level alpha/4
        expected = 0.25 + math.sqrt(math.log(40.0) / 120.0)
        assert table.bounds[1] == pytest.approx(expected)

    def test_window_starts_follow_rule(self):
        rng = np.random.default_rng(4)
        registry = ModelRegistry()
        batches = []
        for t in range(1, 7):
            registry.add(constant_model(t, 0.5))
            if t < 6:
                batches.append(iid_batch(rng, t))
        val = batches[-1]
        ledger = ledger_of(registry, batches, 6)
        table = build_bound_table(6, registry, ledger, (val, val), self.cfg, self.loss_cfg)
        assert table.window_starts[1] == 3  # max(1, 6-3)
        assert table.window_starts[5] == 5
        assert table.window_starts[6] == 5  # newest: previous step

    def test_wider_window_never_shrinks_pool(self):
        rng = np.random.default_rng(5)
        registry = ModelRegistry()
        batches = []
        for t in range(1, 7):
            registry.add(constant_model(t, 0.5))
            if t < 6:
                batches.append(iid_batch(rng, t))
        val = batches[-1]
        ledger = ledger_of(registry, batches, 6)
        narrow = build_bound_table(6, registry, ledger, (val, val), BoundConfig(window=2), self.loss_cfg)
        wide = build_bound_table(6, registry, ledger, (val, val), BoundConfig(window=5), self.loss_cfg)
        assert np.all(wide.window_starts[1:] <= narrow.window_starts[1:])

    def test_only_the_newest_candidate_is_scored(self):
        # older candidates' bounds come from the ledger alone
        rng = np.random.default_rng(7)
        scored = ModelRegistry()
        for t in (1, 2, 3):
            scored.add(constant_model(t, 0.5))
        batches = [iid_batch(rng, t) for t in (1, 2)]
        ledger = ledger_of(scored, batches, 3)

        def unscorable(x):
            raise AssertionError("an older candidate was scored again")

        registry = ModelRegistry()
        registry.add(CandidateModel(1, unscorable, birth_time=1))
        registry.add(CandidateModel(2, unscorable, birth_time=2))
        registry.add(constant_model(3, 0.5))
        val = batches[-1]
        table = build_bound_table(3, registry, ledger, (val, val), self.cfg, self.loss_cfg)
        expected = build_bound_table(3, scored, ledger, (val, val), self.cfg, self.loss_cfg)
        assert table.bounds.tolist() == expected.bounds.tolist()

    def test_pooled_mean_weights_every_row_equally(self):
        # batches of 10 and 30 rows: the pooled mean is per observation
        ledger = LossLedger(2)
        ledger.record(1, np.full((10, 1), 0.1))
        ledger.record(2, np.full((30, 2), 0.5))
        mean, count = ledger.pooled(1, 3, 1)
        assert count == 40
        assert mean == pytest.approx((10 * 0.1 + 30 * 0.5) / 40, abs=1e-15)
        with pytest.raises(ValueError):
            LossLedger(2).pooled(1, 3, 1)  # nothing recorded yet

    def test_feasible_mask_keeps_abstain(self):
        table = RiskBoundTable(2, np.array([0.3, 0.9, 0.25]), np.array([0, 1, 1]))
        mask = table.feasible(0.3, 0.05)
        assert mask.tolist() == [True, False, True]
        all_bad = RiskBoundTable(1, np.array([0.3, 2.0]), np.array([0, 0]))
        assert all_bad.feasible(0.3, 0.0).tolist() == [True, False]

    def test_bounds_not_clipped(self):
        registry = ModelRegistry()
        registry.add(constant_model(1, -1.0))  # always wrong on +1 labels: loss 1
        rng = np.random.default_rng(6)
        feats, labels = _all_plus(rng, 10)
        val = MonitoringBatch(0, feats, labels)
        table = build_bound_table(1, registry, LossLedger(1), (val, val), self.cfg, self.loss_cfg)
        assert table.bounds[1] > 1.0


def _all_plus(rng, n, d=2):
    return rng.standard_normal((n, d)), np.ones(n)
