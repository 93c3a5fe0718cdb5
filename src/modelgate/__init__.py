"""modelgate: sequential approval of model updates under bounded drift.

The package gates a stream of candidate model updates: each step it
builds confidence bounds on every candidate's risk, lets a family of
approval strategies propose soft approvals (with an abstain option at a
fixed cost), and aggregates them with a meta-forecaster whose learning
rate is certified by an average-risk guarantee.  ``modelgate.cli.RunConfig``
holds every setting of a run, for the ``modelgate`` command and
``run_replicate`` alike.
"""

from .core import (
    AugmentedLossConfig,
    CandidateModel,
    LossFunction,
    MonitoringBatch,
    candidate_scores,
    deployed_risks,
)
from .bounds import LossLedger, RiskBoundTable, build_bound_table, hoeffding_ucb, window_start
from .strategy import (
    REPEATED_TTEST,
    StrategyBank,
    advance,
    brute_force_status,
    init_bank,
    optimistic_step,
    step,
    transition_matrix,
)
from .meta import (
    InfeasibleRateError,
    MetaState,
    RiskBoundInputs,
    classical_ewaf_bound,
    combine,
    init_meta,
    max_learning_rate,
    meta_advance,
    meta_update,
    mgf_rate,
    optimize_slack,
    risk_bound,
    tail_alpha,
)
from .sim import (
    GRID4,
    GRID12,
    DeveloperPolicy,
    DriftReport,
    FitConfig,
    ReplicateTrace,
    ScenarioKind,
    apply_shift,
    developer_propose,
    fit_logistic,
    generate_batch,
    run_experiment,
    run_replicate,
    verify_drift,
)

__version__ = "0.1.0"
