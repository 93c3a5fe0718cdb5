"""The package namespace is the run path: settings, the scenario and data
types, the replicate loop and the drift check.  Every other name lives in
its own module."""

import subprocess
import sys

import modelgate

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

