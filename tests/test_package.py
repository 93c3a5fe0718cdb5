"""The package namespace is the run path: settings, the scenario and data
types, the replicate loop and the drift check.  Every other name lives in
its own module."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import modelgate

ROOT = Path(__file__).resolve().parents[1]

RUN_PATH = [
    "RunConfig",
    "ConfigError",
    "load_config",
    "ScenarioKind",
    "LossFunction",
    "MonitoringBatch",
    "run_experiment",
    "run_replicate",
    "ReplicateTrace",
    "verify_drift",
    "DriftReport",
]


def test_all_is_the_run_path():
    assert modelgate.__all__ == RUN_PATH


def test_star_import_binds_exactly_the_run_path():
    namespace = {}
    exec("from modelgate import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(RUN_PATH)


def test_import_loads_no_command_module():
    # ``python -m modelgate.cli`` would warn if the package had imported it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, modelgate; print('modelgate.cli' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"



def test_benchmark_tracer_still_wraps_the_run_path(tmp_path):
    # perfbench/tracer.py wraps modelgate's names from outside the package;
    # a renamed or bypassed name, or a moved positional argument, would
    # otherwise surface only when the benchmark runs
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import modelgate.cli as cli

    cfg = modelgate.RunConfig(modelgate.ScenarioKind.ADAPTIVE_SHIFTS, horizon=5, eval_size=500,
                              replicates=1, seed=11, rate_mode="fixed", out=str(tmp_path))
    tracer = tracing.Tracer().install()
    originals = {}
    for owner, attr, original in tracer._undo:
        # a name wrapped twice records the first wrapper as the second's original
        originals.setdefault((owner, attr), original)
    try:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in originals.items())
        cli.run(cfg)
    finally:
        tracer.uninstall()
    assert tracer.counts["bounds.tables"] == 5
    # the sim spans feed sim.refit_s, sim.shift_s and sim.data_s: a call that
    # bypassed sim's module globals would leave them silently at zero
    assert {span[0] for span in tracer.spans} >= {
        "bounds.build_bound_table", "strategy.optimistic_step", "strategy.advance",
        "meta.strategy_statuses", "meta.meta_advance", "meta.combine",
        "sim.developer_propose", "sim.fit_logistic", "sim.apply_shift",
        "sim.generate_batch", "sim.split_batch",
    }
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in originals.items())
