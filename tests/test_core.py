import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from modelgate.bounds import LossLedger
from modelgate.numerics import outside
from modelgate.core import (
    CandidateModel,
    LossFunction,
    MonitoringBatch,
    affine_loss_mean,
    candidate_scores,
    deployed_risks,
    mixture_risks,
)

HINGE = LossFunction("clipped_hinge", scale=2.0)


def ledger_row(preds, labels, delta, loss=HINGE):
    """A batch's loss vector as the run loop reads it: abstain cost, then
    the mean loss of each candidate (one column of ``preds`` each).  With s
    candidates it is batch s, the first batch they all score."""
    preds = np.asarray(preds, dtype=float).reshape(len(labels), -1)
    s = preds.shape[1]
    ledger = LossLedger(s)
    ledger.record(s, loss.of_array(preds, np.asarray(labels, dtype=float)[:, None]))
    return ledger.row(s, delta)


def constant_preds(values, n):
    """Prediction matrix of constant candidates: one column per value."""
    return np.tile(np.asarray(values, dtype=float), (n, 1))


def risk_of(weights, preds, labels, delta):
    block = (preds, np.asarray(labels, dtype=float))
    return float(deployed_risks([block], [weights], HINGE, delta)[0])


def loss_at(loss, z, y):
    """The loss of one (score, label) pair."""
    return float(loss.of_array(z, y))


class TestAugmentedLoss:
    def test_hinge_zero_region(self):
        assert loss_at(HINGE, 1.0, 1.0) == 0.0
        assert loss_at(HINGE, 1.0, 1) == 0.0

    def test_hinge_midpoint(self):
        # max(0, 1 - z*y)/2 at z=0, y=+1 is 0.5
        assert loss_at(HINGE, 0.0, 1.0) == pytest.approx(0.5)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            HINGE.of_array(0.2, 0.5)
        with pytest.raises(ValueError):
            LossFunction("zero_one").check_labels(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("kind", ["clipped_hinge", "zero_one"])
    @given(y=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, min_side=0, max_side=4),
                        elements=st.sampled_from([-1.0, 1.0, 0.0, -0.0, 2.0, -2.0, 0.5,
                                                  np.nan, np.inf, -np.inf])))
    @settings(max_examples=200, deadline=None)
    def test_labels_rejected_exactly_where_isin_rejects_them(self, kind, y):
        # the former test, np.isin(y, (-1.0, 1.0)); scaled_absolute takes any label
        loss = LossFunction(kind)
        if np.all(np.isin(y, (-1.0, 1.0))):
            loss.check_labels(y)
        else:
            with pytest.raises(ValueError, match="labels in"):
                loss.check_labels(y)
        LossFunction("scaled_absolute").check_labels(y)

    @given(
        z=st.floats(-1, 1),
        y=st.sampled_from([-1.0, 1.0]),
        scale=st.floats(0.25, 4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_in_unit_interval(self, z, y, scale):
        assert 0.0 <= loss_at(LossFunction("clipped_hinge", scale=scale), z, y) <= 1.0

    def test_other_kinds(self):
        zo = LossFunction("zero_one")
        assert loss_at(zo, 0.4, 1.0) == 0.0
        assert loss_at(zo, -0.4, 1.0) == 1.0
        sa = LossFunction("scaled_absolute", scale=4.0)
        assert loss_at(sa, 1.0, 5.0) == pytest.approx(1.0)
        assert loss_at(sa, 4.0, 5.0) == pytest.approx(0.25)

    def test_affine_only_where_never_clipped(self):
        assert HINGE.affine and LossFunction("clipped_hinge", scale=3.0).affine
        for loss in (LossFunction("clipped_hinge", scale=1.5), LossFunction("zero_one"),
                     LossFunction("scaled_absolute", scale=2.0)):
            assert not loss.affine


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

    @given(scale=st.floats(0.05, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_rescaling_invariance(self, scale):
        # renormalisation makes the ensemble depend only on weight ratios
        base = np.array([0.5, 0.25, 0.25])
        scaled = np.array([1.0 - scale * 0.5, scale * 0.25, scale * 0.25])
        rb, rs = deployed_risks([(self.preds, self.labels)], [base, scaled], HINGE, 0.25)
        model_part = lambda r, s: (r - s[0] * 0.25) / s[1:].sum()
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

    def test_clipping_hinge_takes_the_general_path(self):
        # scale 1.5 is not affine: a score above one is clipped, not refused
        clipped = LossFunction("clipped_hinge", scale=1.5)
        preds = np.array([[0.2], [1.5]])
        got = deployed_risks([(preds, np.array([1.0, -1.0]))], [[0.5, 0.5]],
                             clipped, 0.3)
        assert got[0] == pytest.approx(0.5 * 0.3 + 0.5 * (0.8 / 1.5 + 1.0) / 2)

    def test_jensen_mixing(self):
        # averaging predictions before a convex loss can only help
        rng = np.random.default_rng(5)
        preds = constant_preds(rng.uniform(-1, 1, size=3), 40)
        labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        for _ in range(25):
            wa = rng.dirichlet(np.ones(4))
            wb = rng.dirichlet(np.ones(4))
            alpha = rng.random()
            mix = alpha * wa + (1 - alpha) * wb
            ra, rb, rmix = deployed_risks([(preds, labels)], [wa, wb, mix], HINGE, 0.25)
            assert rmix <= alpha * ra + (1 - alpha) * rb + 1e-9


@st.composite
def affine_sample(draw):
    """Scores in [-1, 1] of t candidates on n rows, labels in {-1, +1}, and
    k statuses, some of them pure abstention or with no abstention."""
    t, n, k = draw(st.integers(1, 5)), draw(st.integers(1, 30)), draw(st.integers(1, 4))
    scores = draw(hnp.arrays(float, (n, t), elements=st.floats(-1.0, 1.0)))
    labels = draw(hnp.arrays(float, n, elements=st.sampled_from([-1.0, 1.0])))
    weights = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0)
    raw = draw(hnp.arrays(float, (k, t + 1), elements=weights))
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    return scores, labels, raw / raw.sum(axis=1, keepdims=True)


class TestAffineRisks:
    """``mixture_risks``: under an affine loss each status's risk is its dot
    product with the risk row of abstain cost and candidate risks."""

    @pytest.mark.parametrize("scale", [2.0, 3.5])
    @given(sample=affine_sample())
    @settings(max_examples=200, deadline=None)
    def test_sample_means_give_the_sample_risks(self, scale, sample):
        # the ledger row holds each candidate's sample mean loss
        scores, labels, statuses = sample
        loss = LossFunction("clipped_hinge", scale=scale)
        got = mixture_risks(statuses, ledger_row(scores, labels, 0.3, loss))
        want = deployed_risks([(scores, labels)], statuses, loss, 0.3)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_pure_abstention_costs_exactly_delta(self):
        rng = np.random.default_rng(2)
        preds = rng.uniform(-1.0, 1.0, size=(300, 4))
        labels = np.where(rng.random(300) < 0.6, 1.0, -1.0)
        statuses = np.vstack([rng.dirichlet(np.ones(5), size=3), np.eye(1, 5)])
        for delta in np.linspace(0.05, 0.95, 19):
            assert mixture_risks(statuses, ledger_row(preds, labels, delta))[-1] == delta

    def test_one_formula_for_a_single_model(self):
        # a pure status on candidate j costs its entry of the row:
        # affine_loss_mean of its label-times-score
        m = np.array([0.25, -0.5, 1.0])
        row = np.concatenate(([0.3], affine_loss_mean(m, 2.0)))
        got = mixture_risks(np.hstack([np.zeros((3, 1)), np.eye(3)]), row)
        assert got.tolist() == [0.375, 0.75, 0.0]

    def test_rejects_what_it_cannot_finish(self):
        for bad in ([0.3, np.nan], [0.3, 1.5], [0.3, -0.1], [0.3, 0.2, 0.2], [0.3]):
            with pytest.raises(ValueError):
                mixture_risks([[0.5, 0.5]], bad)


def logistic_scores(coef, x):
    """The oracle: ``2 * sigmoid(x @ w + b) - 1`` for one coefficient vector
    (w, b), written out as a formula."""
    margin = x @ coef[:-1] + coef[-1]
    with np.errstate(over="ignore"):
        return 2.0 * (1.0 / (1.0 + np.exp(-margin))) - 1.0


class TestCandidateScores:
    """``candidate_scores`` is the one scorer; a candidate's ``predict`` is
    its one-column call."""

    @given(n=st.integers(1, 300), d=st.integers(1, 12), t=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_predict_is_the_logistic_formula(self, n, d, t, seed):
        rng = np.random.default_rng(seed)
        coefs = rng.normal(0.0, 1.0, size=(d + 1, t))
        x = rng.standard_normal((n, d))
        # far rows: the scores saturate at -1 or +1 and exp overflows
        far = 200.0 * x
        multi = candidate_scores(coefs, x)
        assert multi.shape == (n, t)
        for j in range(t):
            model = CandidateModel(coefs[:, j].copy())
            want = logistic_scores(model.coef, x)
            # one column takes the same matrix-vector product as the formula
            assert np.array_equal(model.predict(x), want)
            assert np.array_equal(model.predict(far), logistic_scores(model.coef, far))
            # many columns take a matrix-matrix product, equal to the last bits
            np.testing.assert_allclose(multi[:, j], want, rtol=0.0, atol=4e-15)


class TestTypes:
    def test_status_validation(self):
        # both risk evaluators check the statuses they are given
        block = (constant_preds([0.5], 3), np.array([1.0, -1.0, 1.0]))
        for statuses in (
            [[0.5, 0.6]],                 # does not sum to one
            [[-0.1, 1.1]],                # negative weight
            [[0.5, 0.5], [np.nan, 1.0]],  # nan in a later row
            [[0.5, 0.25, 0.25]],          # one candidate scored, two weighted
            [0.5, 0.5],                   # not a (k, t + 1) matrix
            [[1.0]],                      # no candidate
        ):
            with pytest.raises(ValueError):
                mixture_risks(statuses, [0.25, 0.25])
            with pytest.raises(ValueError):
                deployed_risks([block], statuses, HINGE, 0.25)

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            MonitoringBatch(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            MonitoringBatch(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            MonitoringBatch(np.zeros(3), np.zeros(3))

    def test_batch_model_losses_layout(self):
        # entry 0 is the abstain cost, entry j the mean loss of candidate j
        row = ledger_row(constant_preds([1.0, 0.0], 2), [1.0, 1.0], 0.2)
        assert row.tolist() == [0.2, 0.0, 0.5]
        with pytest.raises(ValueError):
            LossLedger(3).record(2, np.zeros((5, 3)))  # batch 2 has two candidates


class TestOutside:
    """``numerics.outside``, the range test every weight and risk check uses."""

    @given(
        x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                     elements=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                        st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf]))),
        lo=st.sampled_from([-np.inf, -1e-12, -0.0, 0.0, 1.0 - 1e-9]),
        hi=st.sampled_from([np.inf, 1.0, 1.0 + 1e-12, 0.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_elementwise_form(self, x, lo, hi):
        # the former four-pass expression: a nan fails both comparisons
        assert outside(x, lo, hi) is bool(np.any(~((x >= lo) & (x <= hi))))

    def test_nan_is_outside_and_empty_is_not(self):
        assert outside([0.5, np.nan], 0.0, 1.0) and outside(np.nan, -np.inf, np.inf)
        assert not outside(np.zeros((0, 3)), 0.0, 1.0)
        assert not outside([-0.0, 1.0], 0.0, 1.0)
