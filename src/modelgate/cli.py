"""Configuration, orchestration and report emission.

Runs are described by a flat INI file (sections and key=value pairs; see
``CONFIG_GRAMMAR``).  A run writes three artifacts into the output
directory: a per-step CSV, a per-step summary across replicates, and a
manifest that is itself a loadable config reproducing the run byte for
byte.  A separate subcommand emits the learning-rate / risk-bound curves,
and another validates a timestamped CSV dataset for replay.

Exit codes: 0 success, 2 configuration error, 3 no feasible learning
rate, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundConfig
from .core import LossFunction, MonitoringBatch
from .meta import InfeasibleRateError, RiskBoundInputs, classical_ewaf_bound, risk_bound
from .sim import (
    GRID4,
    GRID12,
    FitConfig,
    MetaConfig,
    ScenarioConfig,
    ScenarioKind,
    holdout_size,
    run_replicate,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "IngestedStream",
    "CONFIG_GRAMMAR",
    "load_config",
    "save_manifest",
    "run",
    "bound_curves",
    "ingest",
    "main",
]


class ConfigError(ValueError):
    """A configuration file failed validation."""


CONFIG_GRAMMAR = """\
Sections and keys (all optional except run.scenario):

[run]
scenario    = adaptive_shifts | small_frequent_shifts | iid_good_models
              | iid_random_models | ingested
horizon     = int >= 1          (default 50; ignored for ingested streams)
batch_size  = int >= 1          (default 75)
dim         = int >= 1          (default 10)
bayes_risk  = float in (0, .5)  (default 0.10; best-in-class hinge risk)
drift       = float >= 0        (default: the realized abstain cost)
eval_size   = int >= 1          (default 100000)
initial_batches = int >= 1      (default 2; pre-deployment data volume)
replicates  = int >= 1          (default 15)
seed        = int >= 0          (default 20240801)
out         = output directory  (default results)
threads     = int >= 1          (default 1)

[strategies]
preset      = grid12 | grid4    (default grid12)
rows        = triples "a,o,l" separated by "/" or newlines; overrides
              preset; row 0 must be 0,0,0 (the fail-safe)

[bounds]
alpha               = float in (0,1)  (default 0.1)
window              = int >= 1        (default 3)
validation_fraction = float in (0,1)  (default 0.5)

[margins]
margin_mult      = float >= 0  (default 0.6; total margin = mult * cost)
step_margin_mult = float >= 0  (default 0.2; per-step = mult * total)

[meta]
rate_mode = solve | fixed  (default solve)
rate      = float > 0      (default 1.6; used when fixed)

[loss]
kind  = clipped_hinge | zero_one | scaled_absolute  (default clipped_hinge)
scale = float > 0                                   (default 2.0)

[data]            (ingested scenario only)
path          = CSV file with a header row; every feature and label
                must be a finite number.  A run rejects the data unless
                it forms at least two batches, every batch splits at
                bounds.validation_fraction into two nonempty parts, and,
                for clipped_hinge and zero_one, the labels are 0/1 or -1/+1
timestamp_col = column name (default timestamp)
label_col     = column name (default label)
batch_by      = count | month   (default count)
batch_size    = int >= 2        (default 75; for batch_by = count)
abstain_cost  = float in (0,1)  (default: first model's risk on batch 1)
"""

_SECTION_KEYS = {
    "run": {
        "scenario", "horizon", "batch_size", "dim", "bayes_risk", "drift",
        "eval_size", "replicates", "seed", "out", "threads", "initial_batches",
    },
    "strategies": {"preset", "rows"},
    "bounds": {"alpha", "window", "validation_fraction"},
    "margins": {"margin_mult", "step_margin_mult"},
    "meta": {"rate_mode", "rate"},
    "loss": {"kind", "scale"},
    "data": {"path", "timestamp_col", "label_col", "batch_by", "batch_size", "abstain_cost"},
}

_PRESETS = {"grid4": GRID4, "grid12": GRID12}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one run."""

    scenario: ScenarioKind
    horizon: int = 50
    batch_size: int = 75
    dim: int = 10
    bayes_risk: float = 0.10
    initial_batches: int = 2
    drift: Optional[float] = None
    eval_size: int = 100_000
    replicates: int = 15
    seed: int = 20240801
    out: str = "results"
    threads: int = 1
    preset: str = "grid12"
    rows: tuple[tuple[float, float, float], ...] = GRID12
    bound_alpha: float = 0.1
    bound_window: int = 3
    validation_fraction: float = 0.5
    margin_mult: float = 0.6
    step_margin_mult: float = 0.2
    rate_mode: str = "solve"
    rate: float = 1.6
    loss_kind: str = "clipped_hinge"
    loss_scale: float = 2.0
    data_path: Optional[str] = None
    timestamp_col: str = "timestamp"
    label_col: str = "label"
    batch_by: str = "count"
    data_batch_size: int = 75
    abstain_cost: Optional[float] = None

    def scenario_config(self) -> ScenarioConfig:
        return ScenarioConfig(
            kind=self.scenario,
            horizon=self.horizon,
            batch_size=self.batch_size,
            dim=self.dim,
            drift=self.drift,
            seed=self.seed,
            eval_size=self.eval_size,
            bayes_risk=self.bayes_risk,
            fit=FitConfig(),
            initial_batches=self.initial_batches,
        )

    def meta_config(self) -> MetaConfig:
        return MetaConfig(
            rows=self.rows,
            bound=BoundConfig(
                alpha=self.bound_alpha,
                window=self.bound_window,
                validation_fraction=self.validation_fraction,
            ),
            margin_mult=self.margin_mult,
            step_margin_mult=self.step_margin_mult,
            rate_mode=self.rate_mode,
            rate=self.rate,
            loss=LossFunction(self.loss_kind, self.loss_scale),
        )


def _parse_rows(text: str) -> tuple[tuple[float, float, float], ...]:
    rows = []
    for chunk in text.replace("\n", "/").split("/"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"strategy row {chunk!r} must have three values")
        rows.append(tuple(float(p) for p in parts))
    if not rows:
        raise ConfigError("strategies.rows is empty")
    if rows[0] != (0.0, 0.0, 0.0):
        raise ConfigError("strategy row 0 must be the fail-safe 0,0,0")
    return tuple(rows)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration; unknown keys are rejected."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    if not parser.has_option("run", "scenario"):
        raise ConfigError("run.scenario is required")

    def get(section, key, cast, default, check=None, describe=""):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        try:
            value = cast(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
        if check is not None and not check(value):
            raise ConfigError(f"{section}.{key}: {raw!r} is invalid ({describe})")
        return value

    try:
        scenario = ScenarioKind(parser.get("run", "scenario").strip().lower())
    except ValueError as exc:
        raise ConfigError(f"run.scenario: {exc}") from exc

    preset = get("strategies", "preset", str.strip, "grid12",
                 lambda v: v in _PRESETS, "must be grid4 or grid12")
    rows = _PRESETS[preset]
    if parser.has_option("strategies", "rows"):
        rows = _parse_rows(parser.get("strategies", "rows"))
        preset = "custom"

    cfg = RunConfig(
        scenario=scenario,
        horizon=get("run", "horizon", int, 50, lambda v: v >= 1, ">= 1"),
        batch_size=get("run", "batch_size", int, 75, lambda v: v >= 1, ">= 1"),
        dim=get("run", "dim", int, 10, lambda v: v >= 1, ">= 1"),
        bayes_risk=get("run", "bayes_risk", float, 0.10, lambda v: 0 < v < 0.5, "in (0, 0.5)"),
        drift=get("run", "drift", float, None, lambda v: v >= 0, ">= 0"),
        eval_size=get("run", "eval_size", int, 100_000, lambda v: v >= 1, ">= 1"),
        initial_batches=get("run", "initial_batches", int, 2, lambda v: v >= 1, ">= 1"),
        replicates=get("run", "replicates", int, 15, lambda v: v >= 1, ">= 1"),
        seed=get("run", "seed", int, 20240801, lambda v: v >= 0, ">= 0"),
        out=get("run", "out", str.strip, "results"),
        threads=get("run", "threads", int, 1, lambda v: v >= 1, ">= 1"),
        preset=preset,
        rows=rows,
        bound_alpha=get("bounds", "alpha", float, 0.1, lambda v: 0 < v < 1, "in (0, 1)"),
        bound_window=get("bounds", "window", int, 3, lambda v: v >= 1, ">= 1"),
        validation_fraction=get("bounds", "validation_fraction", float, 0.5,
                                lambda v: 0 < v < 1, "in (0, 1)"),
        margin_mult=get("margins", "margin_mult", float, 0.6, lambda v: v >= 0, ">= 0"),
        step_margin_mult=get("margins", "step_margin_mult", float, 0.2, lambda v: v >= 0, ">= 0"),
        rate_mode=get("meta", "rate_mode", str.strip, "solve",
                      lambda v: v in ("solve", "fixed"), "solve or fixed"),
        rate=get("meta", "rate", float, 1.6, lambda v: v > 0, "> 0"),
        loss_kind=get("loss", "kind", str.strip, "clipped_hinge",
                      lambda v: v in ("clipped_hinge", "zero_one", "scaled_absolute"),
                      "a known loss kind"),
        loss_scale=get("loss", "scale", float, 2.0, lambda v: v > 0, "> 0"),
        data_path=get("data", "path", str.strip, None),
        timestamp_col=get("data", "timestamp_col", str.strip, "timestamp"),
        label_col=get("data", "label_col", str.strip, "label"),
        batch_by=get("data", "batch_by", str.strip, "count",
                     lambda v: v in ("count", "month"), "count or month"),
        data_batch_size=get("data", "batch_size", int, 75, lambda v: v >= 2, ">= 2"),
        abstain_cost=get("data", "abstain_cost", float, None, lambda v: 0 < v < 1, "in (0, 1)"),
    )
    if cfg.scenario is ScenarioKind.INGESTED and not cfg.data_path:
        raise ConfigError("data.path is required for the ingested scenario")
    return cfg


def save_manifest(cfg: RunConfig, path: Path, extra_comments: Sequence[str] = ()) -> None:
    """Write the resolved config as a loadable INI manifest."""
    lines = ["# run manifest; load this file to reproduce the run exactly"]
    lines += [f"# {c}" for c in extra_comments]
    lines += [
        "[run]",
        f"scenario = {cfg.scenario.value}",
        f"horizon = {cfg.horizon}",
        f"batch_size = {cfg.batch_size}",
        f"dim = {cfg.dim}",
        f"bayes_risk = {cfg.bayes_risk!r}",
        f"initial_batches = {cfg.initial_batches}",
    ]
    if cfg.drift is not None:
        lines.append(f"drift = {cfg.drift!r}")
    lines += [
        f"eval_size = {cfg.eval_size}",
        f"replicates = {cfg.replicates}",
        f"seed = {cfg.seed}",
        f"out = {cfg.out}",
        f"threads = {cfg.threads}",
        "",
        "[strategies]",
        "rows = " + " / ".join(",".join(repr(v) for v in row) for row in cfg.rows),
        "",
        "[bounds]",
        f"alpha = {cfg.bound_alpha!r}",
        f"window = {cfg.bound_window}",
        f"validation_fraction = {cfg.validation_fraction!r}",
        "",
        "[margins]",
        f"margin_mult = {cfg.margin_mult!r}",
        f"step_margin_mult = {cfg.step_margin_mult!r}",
        "",
        "[meta]",
        f"rate_mode = {cfg.rate_mode}",
        f"rate = {cfg.rate!r}",
        "",
        "[loss]",
        f"kind = {cfg.loss_kind}",
        f"scale = {cfg.loss_scale!r}",
    ]
    if cfg.data_path:
        lines += [
            "",
            "[data]",
            f"path = {cfg.data_path}",
            f"timestamp_col = {cfg.timestamp_col}",
            f"label_col = {cfg.label_col}",
            f"batch_by = {cfg.batch_by}",
            f"batch_size = {cfg.data_batch_size}",
        ]
        if cfg.abstain_cost is not None:
            lines.append(f"abstain_cost = {cfg.abstain_cost!r}")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Dataset ingestion


@dataclass(frozen=True)
class IngestedStream:
    """A timestamped dataset replayed as monitoring batches."""

    batches: tuple[MonitoringBatch, ...]
    feature_names: tuple[str, ...]
    rule: str

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.batches)


def _parse_timestamp(raw: str):
    raw = raw.strip()
    try:
        value = float(raw)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise ConfigError(f"timestamp {raw!r} is not finite")
        return value
    try:
        return date.fromisoformat(raw[:10])
    except ValueError as exc:
        raise ConfigError(f"cannot parse timestamp {raw!r}") from exc


def ingest(
    path: str | Path,
    batch_by: str = "count",
    batch_size: int = 75,
    timestamp_col: str = "timestamp",
    label_col: str = "label",
    strict_sorted: bool = False,
) -> IngestedStream:
    """Read a header CSV of (timestamp, features..., label) into batches.

    Every feature and label must be a finite number; the first that is not
    is reported as ``file:line``.  Rows are sorted by timestamp (an error
    in strict mode if out of order).  Binary labels {0, 1} are mapped to
    {-1, +1}; labels already in {-1, +1} or real-valued labels pass
    through unchanged.
    """
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ConfigError(f"{path} has no header row")
            for col in (timestamp_col, label_col):
                if col not in reader.fieldnames:
                    raise ConfigError(f"{path} is missing column {col!r}")
            feature_names = tuple(
                c for c in reader.fieldnames if c not in (timestamp_col, label_col)
            )
            if not feature_names:
                raise ConfigError(f"{path} has no feature columns")
            stamps, feats, labels = [], [], []
            for i, row in enumerate(reader, start=2):
                stamps.append(_parse_timestamp(row[timestamp_col]))
                try:
                    values = {c: float(row[c]) for c in (*feature_names, label_col)}
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{path}:{i}: non-numeric value ({exc})") from exc
                bad = [c for c, v in values.items() if not math.isfinite(v)]
                if bad:
                    raise ConfigError(f"{path}:{i}: non-finite value in column {bad[0]!r}")
                feats.append([values[c] for c in feature_names])
                labels.append(values[label_col])
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not stamps:
        raise ConfigError(f"{path} contains no data rows")
    if len({type(s) for s in stamps}) > 1:
        raise ConfigError("timestamps mix numeric and date formats")

    order = sorted(range(len(stamps)), key=lambda i: stamps[i])
    if strict_sorted and order != list(range(len(stamps))):
        raise ConfigError("timestamps are not sorted (strict mode)")
    stamps = [stamps[i] for i in order]
    features = np.asarray(feats, dtype=float)[order]
    label_arr = np.asarray(labels, dtype=float)[order]
    uniq = set(np.unique(label_arr).tolist())
    if uniq == {0.0, 1.0} or uniq <= {0.0} or uniq <= {1.0}:
        label_arr = np.where(label_arr > 0, 1.0, -1.0)

    groups: list[np.ndarray] = []
    if batch_by == "count":
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        groups = [
            np.arange(lo, min(lo + batch_size, len(stamps)))
            for lo in range(0, len(stamps), batch_size)
        ]
        rule = f"count:{batch_size}"
    elif batch_by == "month":
        if not isinstance(stamps[0], date):
            raise ConfigError("monthly batching needs date timestamps")
        keys = [(s.year, s.month) for s in stamps]
        groups, current = [], [0]
        for i in range(1, len(keys)):
            if keys[i] == keys[i - 1]:
                current.append(i)
            else:
                groups.append(np.asarray(current))
                current = [i]
        groups.append(np.asarray(current))
        rule = "month"
    else:
        raise ConfigError(f"unknown batching rule {batch_by!r}")

    batches = tuple(
        MonitoringBatch(k, features[idx], label_arr[idx]) for k, idx in enumerate(groups)
    )
    return IngestedStream(batches=batches, feature_names=feature_names, rule=rule)


# ---------------------------------------------------------------------------
# Run orchestration


def _fmt(x: float) -> str:
    return repr(float(x))


def _replay_batches(cfg: RunConfig) -> tuple[MonitoringBatch, ...]:
    """Parse the ingested CSV once and reject data no replicate can run on:
    fewer than two batches, labels the loss does not accept, or a batch
    too small to split at the validation fraction."""
    stream = ingest(cfg.data_path, cfg.batch_by, cfg.data_batch_size,
                    cfg.timestamp_col, cfg.label_col)
    if len(stream.batches) < 2:
        raise ConfigError(f"{cfg.data_path}: replay needs at least two batches")
    loss = cfg.meta_config().loss
    for k, batch in enumerate(stream.batches):
        try:
            loss.check_labels(batch.labels)
            holdout_size(batch.size, cfg.validation_fraction)
        except ValueError as exc:
            raise ConfigError(f"{cfg.data_path}: batch {k} ({batch.size} rows): {exc}") from exc
    return stream.batches


def _replicate_worker(args):
    cfg, rep, batches = args
    return run_replicate(
        cfg.scenario_config(), cfg.meta_config(), rep,
        batches=batches, fixed_abstain_cost=cfg.abstain_cost,
    )


def run(cfg: RunConfig) -> dict:
    """Execute a run and write steps.csv, summary.csv and manifest.ini.

    Returns a small summary dict (paths, realized costs and rates).
    """
    batches = _replay_batches(cfg) if cfg.scenario is ScenarioKind.INGESTED else None
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [(cfg, r, batches) for r in range(cfg.replicates)]
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            traces = list(pool.map(_replicate_worker, jobs))
    else:
        traces = [_replicate_worker(j) for j in jobs]

    m = len(cfg.rows)
    steps_path = out_dir / "steps.csv"
    header = (
        ["replicate", "t", "true_risk", "cum_avg_risk", "emp_risk", "abstain_prob",
         "meta_top", "abstain_cost", "meta_rate"]
        + [f"w{j}" for j in range(m)]
        + [f"strat{j}_cum_risk" for j in range(m)]
        + [f"strat{j}_abstain" for j in range(m)]
    )
    with open(steps_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for tr in traces:
            cum = tr.cum_avg_true()
            scum = tr.strategy_cum_avg_true()
            for t in range(tr.horizon):
                row = [
                    tr.replicate, t + 1, _fmt(tr.true_risk[t]), _fmt(cum[t]),
                    _fmt(tr.emp_risk[t]), _fmt(tr.abstain_prob[t]),
                    int(tr.meta_top[t]), _fmt(tr.abstain_cost), _fmt(tr.meta_rate),
                ]
                row += [_fmt(v) for v in tr.meta_weights[t]]
                row += [_fmt(v) for v in scum[t]]
                row += [_fmt(v) for v in tr.strategy_abstain[t]]
                writer.writerow(row)

    horizon = traces[0].horizon
    cum_all = np.stack([tr.cum_avg_true() for tr in traces])
    abst_all = np.stack([tr.abstain_prob for tr in traces])
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mean_cum_risk", "stderr_cum_risk", "mean_abstain", "stderr_abstain"])
        denom = math.sqrt(len(traces)) if len(traces) > 1 else 1.0
        for t in range(horizon):
            writer.writerow([
                t + 1,
                _fmt(cum_all[:, t].mean()),
                _fmt(cum_all[:, t].std(ddof=1) / denom if len(traces) > 1 else 0.0),
                _fmt(abst_all[:, t].mean()),
                _fmt(abst_all[:, t].std(ddof=1) / denom if len(traces) > 1 else 0.0),
            ])

    rates = [tr.meta_rate for tr in traces]
    costs = [tr.abstain_cost for tr in traces]
    comments = [
        f"realized abstain costs: {' '.join(_fmt(c) for c in costs)}",
        f"chosen learning rates: {' '.join(_fmt(r) for r in rates)}",
    ]
    manifest_path = out_dir / "manifest.ini"
    save_manifest(cfg, manifest_path, comments)
    return {
        "steps": steps_path,
        "summary": summary_path,
        "manifest": manifest_path,
        "abstain_costs": costs,
        "meta_rates": rates,
        "traces": traces,
    }


def bound_curves(
    deltas: Sequence[float],
    rate_min: float = 0.05,
    rate_max: float = 3.0,
    points: int = 60,
    n_strategies: int = 10,
    horizon: int = 50,
) -> list[tuple[float, float, float, float]]:
    """Rows of (abstain_cost, rate, classical bound, drift-aware bound).

    The drift-aware bound is evaluated with drift equal to twice the
    abstain cost, infinite batch size and exact coverage, the regime used
    for the headline comparison of the two bounds.
    """
    rows = []
    for delta in deltas:
        for i in range(points):
            rate = rate_min + (rate_max - rate_min) * i / max(points - 1, 1)
            classical = classical_ewaf_bound(rate, delta, n_strategies, horizon)
            ours = risk_bound(RiskBoundInputs(
                abstain_cost=delta, step_margin=0.0, drift=2.0 * delta,
                rate=rate, cover_alpha=0.0, n_strategies=n_strategies,
                horizon=horizon, batch_size=None, holdout_size=None,
                slack=None, tail=0.0,
            ))
            rows.append((delta, rate, classical, ours))
    return rows


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.out is not None:
        overrides["out"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    if overrides:
        cfg = replace(cfg, **overrides)
    result = run(cfg)
    print(f"wrote {result['steps']}")
    print(f"wrote {result['summary']}")
    print(f"wrote {result['manifest']}")
    mean_rate = sum(result["meta_rates"]) / len(result["meta_rates"])
    mean_cost = sum(result["abstain_costs"]) / len(result["abstain_costs"])
    print(f"mean abstain cost {mean_cost:.4f}, mean learning rate {mean_rate:.4f}")
    return 0


def _cmd_bounds(args) -> int:
    try:
        deltas = [float(v) for v in args.deltas.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--deltas: {exc}") from exc
    if not deltas:
        raise ConfigError("--deltas must list at least one abstain cost")
    rows = bound_curves(deltas, args.rate_min, args.rate_max, args.points,
                        args.strategies, args.horizon)
    out = Path(args.out) if args.out else None
    lines = ["abstain_cost,rate,classical_bound,drift_aware_bound"]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_ingest_check(args) -> int:
    stream = ingest(args.csv, args.batch_by, args.batch_size,
                    args.timestamp_col, args.label_col, strict_sorted=args.strict)
    print(f"rule {stream.rule}: {len(stream.batches)} batches")
    print(f"feature columns ({len(stream.feature_names)}): {', '.join(stream.feature_names)}")
    print("batch sizes: " + " ".join(str(s) for s in stream.sizes))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="modelgate",
        description="Sequential approval engine for model updates under bounded drift",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config", help="INI config file (see documentation)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--replicates", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--threads", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_bounds = sub.add_parser("bounds", help="emit learning-rate bound curves as CSV")
    p_bounds.add_argument("--deltas", default="0.05,0.15,0.25")
    p_bounds.add_argument("--rate-min", type=float, default=0.05, dest="rate_min")
    p_bounds.add_argument("--rate-max", type=float, default=3.0, dest="rate_max")
    p_bounds.add_argument("--points", type=int, default=60)
    p_bounds.add_argument("--strategies", type=int, default=10)
    p_bounds.add_argument("--horizon", type=int, default=50)
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_check = sub.add_parser("ingest-check", help="validate a timestamped CSV dataset")
    p_check.add_argument("csv")
    p_check.add_argument("--batch-by", choices=("count", "month"), default="count", dest="batch_by")
    p_check.add_argument("--batch-size", type=int, default=75, dest="batch_size")
    p_check.add_argument("--timestamp-col", default="timestamp", dest="timestamp_col")
    p_check.add_argument("--label-col", default="label", dest="label_col")
    p_check.add_argument("--strict", action="store_true", help="reject unsorted timestamps")
    p_check.set_defaults(func=_cmd_ingest_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleRateError as exc:
        print(f"no feasible learning rate: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
