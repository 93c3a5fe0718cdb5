import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modelgate.bounds import LossLedger
from modelgate.core import (
    ApprovalStatus,
    AugmentedLossConfig,
    CandidateModel,
    InvalidEnsembleError,
    LossFunction,
    ModelRegistry,
    MonitoringBatch,
    cumulative_average_risk,
    deployed_risks,
)

HINGE = LossFunction("clipped_hinge", scale=2.0)


def constant_model(model_id, value, birth_time=1):
    return CandidateModel(model_id, lambda x, v=value: np.full(len(x), v), birth_time)


def ledger_row(preds, labels, delta):
    """A batch's loss vector as the run loop reads it: abstain cost, then
    the mean loss of each candidate (one column of ``preds`` each).  With s
    candidates it is batch s, the first batch they all score."""
    preds = np.asarray(preds, dtype=float).reshape(len(labels), -1)
    s = preds.shape[1]
    ledger = LossLedger(s)
    ledger.record(s, HINGE.of_array(preds, np.asarray(labels, dtype=float)[:, None]))
    return ledger.row(s, delta)


def constant_preds(values, n):
    """Prediction matrix of constant candidates: one column per value."""
    return np.tile(np.asarray(values, dtype=float), (n, 1))


def risk_of(weights, preds, labels, delta):
    status = ApprovalStatus(len(weights) - 1, np.asarray(weights, dtype=float))
    cfg = AugmentedLossConfig(HINGE, delta)
    return float(deployed_risks([(preds, np.asarray(labels, dtype=float))], [status], cfg)[0])


class TestAugmentedLoss:
    def test_abstain_costs_exactly_delta(self):
        assert AugmentedLossConfig(HINGE, 0.15).abstain_cost == 0.15
        for bad in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError):
                AugmentedLossConfig(HINGE, bad)

    def test_hinge_zero_region(self):
        assert HINGE(1.0, 1.0) == 0.0
        assert HINGE(1.0, 1) == 0.0

    def test_hinge_midpoint(self):
        # max(0, 1 - z*y)/2 at z=0, y=+1 is 0.5
        assert HINGE(0.0, 1.0) == pytest.approx(0.5)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            HINGE(0.2, 0.5)
        with pytest.raises(ValueError):
            LossFunction("zero_one").check_labels(np.array([1.0, 0.0]))

    @given(
        z=st.floats(-1, 1),
        y=st.sampled_from([-1.0, 1.0]),
        scale=st.floats(0.25, 4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_in_unit_interval(self, z, y, scale):
        assert 0.0 <= LossFunction("clipped_hinge", scale=scale)(z, y) <= 1.0

    def test_other_kinds(self):
        zo = LossFunction("zero_one")
        assert zo(0.4, 1.0) == 0.0
        assert zo(-0.4, 1.0) == 1.0
        sa = LossFunction("scaled_absolute", scale=4.0)
        assert sa(1.0, 5.0) == pytest.approx(1.0)
        assert sa(4.0, 5.0) == pytest.approx(0.25)

    def test_custom_loss_range_checked(self):
        bad = LossFunction("custom", fn=lambda z, y: np.abs(z - y))
        with pytest.raises(ValueError):
            bad.of_array(np.array([5.0]), np.array([0.0]))


class TestEmpiricalRisk:
    """A candidate's empirical risk on a batch is its entry in the ledger row."""

    def test_abstain_model_risk_is_delta(self):
        assert ledger_row([0.0, 0.0], [1.0, -1.0], 0.2)[0] == 0.2

    def test_perfect_classifier_zero_risk(self):
        feats = np.array([1.0, -1.0, 2.0])
        labels = np.array([1.0, -1.0, 1.0])
        assert ledger_row(np.sign(feats), labels, 0.2)[1] == 0.0

    def test_hand_computed_mean(self):
        # predictions (0.5, -0.5, 0) on labels (+1, +1, -1):
        # hinge/2 gives (0.25, 0.75, 0.5) -> mean 0.5
        assert ledger_row([0.5, -0.5, 0.0], [1.0, 1.0, -1.0], 0.2)[1] == pytest.approx(0.5)


class TestEnsemble:
    """The deployed ensemble averages candidate scores under the model
    weights renormalised to sum to one."""

    def setup_method(self):
        self.preds = constant_preds([0.2, 0.6], 3)
        self.labels = np.ones(3)  # hinge/2 of score z on +1 is (1 - z) / 2

    def test_degenerate_ensemble(self):
        got = risk_of([0.7, 0.3, 0.0], self.preds, self.labels, 0.25)
        assert got == pytest.approx(0.7 * 0.25 + 0.3 * 0.4)

    def test_weighted_average(self):
        # ensemble score 0.4 -> loss 0.3
        got = risk_of([0.5, 0.25, 0.25], self.preds, self.labels, 0.25)
        assert got == pytest.approx(0.5 * 0.25 + 0.5 * 0.3)

    def test_identical_models_fixed_point(self):
        preds = constant_preds([0.3, 0.3], 3)
        for split in (0.1, 0.5, 0.9):
            got = risk_of([0.0, split, 1.0 - split], preds, self.labels, 0.25)
            assert got == pytest.approx(0.35)

    def test_zero_mass_raises(self):
        # the abstain-only model has no predictor to put in an ensemble
        with pytest.raises(InvalidEnsembleError):
            CandidateModel(0, None).predict(np.zeros((3, 1)))

    @given(scale=st.floats(0.05, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_rescaling_invariance(self, scale):
        # renormalisation makes the ensemble depend only on weight ratios
        base = ApprovalStatus(2, np.array([0.5, 0.25, 0.25]))
        scaled = ApprovalStatus(2, np.array([1.0 - scale * 0.5, scale * 0.25, scale * 0.25]))
        cfg = AugmentedLossConfig(HINGE, 0.25)
        rb, rs = deployed_risks([(self.preds, self.labels)], [base, scaled], cfg)
        model_part = lambda r, s: (r - s.abstain_prob * 0.25) / s.model_mass
        assert model_part(rs, scaled) == pytest.approx(model_part(rb, base))


class TestDeployedRisk:
    def setup_method(self):
        self.labels = np.array([1.0, 1.0, -1.0, 1.0])
        self.preds = constant_preds([0.5], 4)

    def test_pure_abstain_is_exactly_delta(self):
        assert risk_of([1.0, 0.0], self.preds, self.labels, 0.31) == 0.31

    def test_pure_model_matches_empirical_risk(self):
        expected = ledger_row(self.preds, self.labels, 0.31)[1]
        assert risk_of([0.0, 1.0], self.preds, self.labels, 0.31) == pytest.approx(expected)

    def test_mixed_status_hand_computed(self):
        model_risk = ledger_row(self.preds, self.labels, 0.31)[1]
        expected = 0.4 * 0.31 + 0.6 * model_risk
        assert risk_of([0.4, 0.6], self.preds, self.labels, 0.31) == pytest.approx(expected)

    def test_jensen_mixing(self):
        # averaging predictions before a convex loss can only help
        rng = np.random.default_rng(5)
        preds = constant_preds(rng.uniform(-1, 1, size=3), 40)
        labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        cfg = AugmentedLossConfig(HINGE, 0.25)
        for _ in range(25):
            wa = rng.dirichlet(np.ones(4))
            wb = rng.dirichlet(np.ones(4))
            alpha = rng.random()
            mix = alpha * wa + (1 - alpha) * wb
            statuses = [ApprovalStatus(3, w) for w in (wa, wb, mix)]
            ra, rb, rmix = deployed_risks([(preds, labels)], statuses, cfg)
            assert rmix <= alpha * ra + (1 - alpha) * rb + 1e-9


class TestCumulativeAverage:
    def test_constant_and_simple(self):
        assert cumulative_average_risk([0.15, 0.15, 0.15]) == pytest.approx(0.15)
        assert cumulative_average_risk([0.0, 1.0]) == 0.5

    def test_matches_compensated_summation(self):
        rng = np.random.default_rng(3)
        risks = rng.random(1000).tolist()
        assert cumulative_average_risk(risks) == pytest.approx(
            math.fsum(risks) / len(risks), abs=1e-15
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cumulative_average_risk([])


class TestTypes:
    def test_registry_requires_contiguous_ids(self):
        registry = ModelRegistry()
        with pytest.raises(ValueError):
            registry.add(constant_model(5, 0.0))

    def test_status_validation(self):
        with pytest.raises(ValueError):
            ApprovalStatus(1, np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            ApprovalStatus(1, np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            ApprovalStatus(2, np.array([0.5, 0.5]))

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            MonitoringBatch(1, np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            MonitoringBatch(1, np.zeros((3, 2)), np.zeros(4))

    def test_batch_model_losses_layout(self):
        # entry 0 is the abstain cost, entry j the mean loss of candidate j
        row = ledger_row(constant_preds([1.0, 0.0], 2), [1.0, 1.0], 0.2)
        assert row.tolist() == [0.2, 0.0, 0.5]
        with pytest.raises(ValueError):
            LossLedger(3).record(2, np.zeros((5, 3)))  # batch 2 has two candidates
