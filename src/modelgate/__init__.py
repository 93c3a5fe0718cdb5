"""modelgate: sequential approval of model updates under bounded drift.

The package gates a stream of candidate model updates: each step it
builds confidence bounds on every candidate's risk, lets a family of
approval strategies propose soft approvals (with an abstain option at a
fixed cost), and aggregates them with a meta-forecaster whose learning
rate is certified by an average-risk guarantee.  ``RunConfig`` holds every
setting of a run, for the ``modelgate`` command and the library alike.
``run_experiment`` steps all of a run's replicates in one lockstep loop,
with one stacked strategy and meta-forecaster call per step;
``run_replicate`` is that loop over one replicate, and gives the same
trace bit for bit::

    cfg = modelgate.load_config("configs/example.ini")
    traces = modelgate.run_experiment(cfg)

The package exports the run path only; every other name stays importable
from its own module (``modelgate.cli``, ``modelgate.sim``, ...).
"""

from .config import ConfigError, RunConfig, load_config
from .core import LossFunction, MonitoringBatch
from .sim import (
    DriftReport,
    ReplicateTrace,
    ScenarioKind,
    run_experiment,
    run_replicate,
    verify_drift,
)

__all__ = [
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

__version__ = "0.1.0"
