"""The safety mutation table: one-line edits to the source that fast tests
must catch.

Each entry names a module under ``src/modelgate``, the exact text a mutant
replaces, the replacement, and the tests that kill it.  Per entry the
source is copied to a temporary directory, the text must occur there
exactly once (a refactor that moves the line updates this table), the edit
is applied, and pytest runs only the killing tests in a subprocess whose
``PYTHONPATH`` is the copy.  A kill is exit code 1, tests failed; any
other code fails the entry: 0 means the mutant survived, and 4 or 5 that a
killing test was renamed or deleted.  The control entry runs every killing
test on an unmutated copy and expects 0.

    python -m pytest -q tests/test_mutants.py

A sweep of one-operator swaps over ``strategy.py``, ``bounds.py`` and
``meta.py`` found these survivors of the fast suite to be equivalent, so no
entry here can be killed by a test:

- ``strategy.py``, ``softmax(agg[None, :])[0]`` -> ``[-1]``: the array has
  one row, so the first row is the last.
- ``strategy.py``, ``advance``'s normalisation floor ``1.0 - RENORM_TOL`` ->
  ``0.5 - RENORM_TOL``: ``nxt`` is a mass-preserving transition of a
  softmax row, so its total is 1 up to rounding and no input of the public
  API reaches either floor.
- ``bounds.py``, the veto ``bounds <= bounds[0] + self.step_margin + 1e-12``
  -> ``<``: the 1e-12 slack puts the threshold above every bound that
  equals cost plus margin, so the two comparisons differ only for a bound
  landing on the slackened threshold to the bit.
- ``meta.py``, the text of ``max_learning_rate``'s infeasibility message.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

BOUNDS = "tests/test_bounds.py::"
TABLE = BOUNDS + "TestBuildBoundTable::"
STRATEGY = "tests/test_strategy.py::"
SIM = "tests/test_sim.py::"
SCALE = SIM + "TestSignalScale::"
RISK_BOUND = "tests/test_meta.py::TestRiskBound::"

# name: (module, old text, new text, killing tests)
MUTANTS = {
    "meta_update_sign_flipped": (
        "meta.py",
        "return log_normalize(state.log_weights - rate * risks)",
        "return log_normalize(state.log_weights + rate * risks)",
        ("tests/test_meta.py::TestMetaForecaster::test_scalar_arithmetic_oracle",),
    ),
    "bonferroni_level_without_t": (
        "bounds.py",
        "    level = alpha / t\n",
        "    level = alpha\n",
        (TABLE + "test_constant_losses_give_exact_halfwidth",
         TABLE + "test_bonferroni_level_scales_with_t",
         TABLE + "test_pooled_mean_weights_every_row_equally",
         BOUNDS + "test_table_matches_the_candidate_loop"),
    ),
    "quarter_width_hoeffding": (
        "bounds.py",
        "return mean + np.sqrt(math.log(1.0 / alpha) / (2.0 * count))",
        "return mean + 0.25 * np.sqrt(math.log(1.0 / alpha) / (2.0 * count))",
        (BOUNDS + "TestHoeffdingUcb::test_closed_form_on_zero_losses",
         TABLE + "test_t1_layout",
         TABLE + "test_constant_losses_give_exact_halfwidth",
         TABLE + "test_bonferroni_level_scales_with_t",
         TABLE + "test_pooled_mean_weights_every_row_equally",
         TABLE + "test_step_margin_reaches_the_veto"),
    ),
    "bound_window_one_batch_short": (
        "bounds.py",
        "lo = max(1, t - window)",
        "lo = max(1, t - window + 1)",
        (TABLE + "test_bonferroni_level_scales_with_t",
         BOUNDS + "test_table_matches_the_candidate_loop"),
    ),
    "advance_without_its_mask": (
        "strategy.py",
        "v = softmax(np.where(table.feasible[..., None, :], logv, NEG_INF))",
        "v = softmax(logv)",
        (STRATEGY + "TestBank::test_row_without_feasible_mass_deploys_pure_abstention",
         STRATEGY + "TestBruteForceOracle::test_mid_sequence_mask_zeroes_paths_in_both",
         STRATEGY + "TestBruteForceOracle::test_randomised_equivalence"),
    ),
    "optimism_ignored": (
        "strategy.py",
        "logw = bank.log_weights - bank.optimism[:, None] * table.bounds[..., None, :]",
        "logw = bank.log_weights + 0.0 * table.bounds[..., None, :]",
        (STRATEGY + "TestOptimisticStep::test_huge_optimism_selects_argmin_bound",
         STRATEGY + "TestSpecials::test_repeated_ttest_concentrates_on_lowest_ucb",
         STRATEGY + "TestBruteForceOracle::test_t1_matches_directly",
         STRATEGY + "TestBruteForceOracle::test_randomised_equivalence"),
    ),
    "default_drift_budget_doubled": (
        "sim.py",
        "return cost, self.cfg.drift if self.cfg.drift is not None else cost",
        "return cost, self.cfg.drift if self.cfg.drift is not None else 2.0 * cost",
        (SIM + "TestShiftSearch::test_trace_equals_the_bisection_trace",
         SIM + "TestAdversarialDrift::test_adaptive_trace_respects_budget"),
    ),
    "shift_safety_above_one": (
        "sim.py",
        "SHIFT_SAFETY = 0.85",
        "SHIFT_SAFETY = 1.4",
        (SIM + "TestShiftProbe::test_victim_column_flips_its_most_aligned_coordinate_first",
         SIM + "TestShiftSearch::test_trace_equals_the_bisection_trace",
         SIM + "TestAdversarialDrift::test_adaptive_trace_respects_budget"),
    ),
    "veto_at_twice_the_step_margin": (
        "bounds.py",
        "mask = bounds <= bounds[0] + self.step_margin + 1e-12",
        "mask = bounds <= bounds[0] + 2 * self.step_margin + 1e-12",
        (TABLE + "test_feasible_up_to_exactly_cost_plus_step_margin",
         SIM + "TestRunReplicate::test_no_deployed_status_weights_a_vetoed_candidate",
         SIM + "TestRunReplicate::test_tables_veto_at_cost_plus_the_configured_step_margin"),
    ),
    "finite_batch_term_over_ten": (
        "meta.py",
        "numer += rate**2 / (8.0 * inputs.batch_size)",
        "numer += rate**2 / (80.0 * inputs.batch_size)",
        ("tests/test_meta.py::TestRiskBound::test_finite_batch_bound_equals_the_formula",),
    ),
    "run_tables_without_step_margin": (
        "sim.py",
        "step_margin=self.step_margin)",
        "step_margin=0.0)",
        (SIM + "TestRunReplicate::test_tables_veto_at_cost_plus_the_configured_step_margin",),
    ),
    "signal_scale_bracket_to_60": (
        "sim.py",
        "MAX_SIGNAL_SCALE = 15.0",
        "MAX_SIGNAL_SCALE = 60.0",
        (SCALE + "test_solver_hits_target",
         SCALE + "test_least_target_is_the_rule_at_the_top_norm",
         SCALE + "test_unreachable_target_raises",
         "tests/test_cli.py::TestLoadConfig::test_unreachable_bayes_risk_is_exit_2"),
    ),
    "slack_search_without_its_refined_grid": (
        "meta.py",
        "    zs = np.linspace(zs[max(0, k - 1)], zs[min(grid, k + 1)], grid + 1)\n",
        "",
        (RISK_BOUND + "test_slack_optimum_meets_the_million_point_grid_minimum",),
    ),
    "tail_lifted_to_one_at_slack_zero": (
        "meta.py",
        "return np.minimum(1.0, total)",
        "return np.minimum(1.0, total + (slack == 0))",
        (RISK_BOUND + "test_infinite_data_optimum_is_the_bound_at_slack_zero",
         "tests/test_meta.py::TestTailAlpha::test_zero_slack_without_sampled_data_is_zero"),
    ),
    "mgf_rate_admits_rate_zero": (
        "meta.py",
        "    if rate <= 0:\n        raise ValueError(\"rate must be > 0\")\n    a1 = inputs.cover_alpha",
        "    if rate < 0:\n        raise ValueError(\"rate must be > 0\")\n    a1 = inputs.cover_alpha",
        ("tests/test_meta.py::TestMgfRate::test_rate_edges",),
    ),
}


def run_killers(tmp_path: Path, tests, edit=None) -> subprocess.CompletedProcess:
    """pytest on ``tests`` against a copy of ``src/``, with ``edit`` =
    (module, old, new) applied to the copy."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if edit is not None:
        module, old, new = edit
        path = src / "modelgate" / module
        text = path.read_text()
        assert text.count(old) == 1, f"{module}: the mutated text must occur exactly once"
        path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": str(src)}
    # run from the temporary directory, so hypothesis keeps the mutants'
    # failing examples out of the checkout's example database
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
         *(str(ROOT / test) for test in tests)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, tmp_path):
    module, old, new, tests = MUTANTS[name]
    done = run_killers(tmp_path, tests, (module, old, new))
    assert done.returncode == 1, done.stdout[-2000:]


def test_control_passes_every_killing_test(tmp_path):
    tests = sorted({test for *_, killers in MUTANTS.values() for test in killers})
    done = run_killers(tmp_path, tests)
    assert done.returncode == 0, done.stdout[-2000:]
