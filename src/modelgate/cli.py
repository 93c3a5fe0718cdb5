"""The ``modelgate`` command: run orchestration, report emission and
dataset ingestion.

A run writes three artifacts into the output directory: a per-step CSV, a
per-step summary across replicates, and a manifest that is itself a
loadable config reproducing the run byte for byte (``modelgate.config``
holds the settings and their INI schema).  A separate subcommand emits the
learning-rate / risk-bound curves, and another validates a timestamped CSV
dataset for replay.

Exit codes: 0 success, 2 configuration error, 3 no feasible learning
rate, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, replace
from datetime import date
from itertools import groupby
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import (
    _DEFAULTS,
    _FLOAT,
    _INT,
    _SCHEMA,
    ConfigError,
    RunConfig,
    _above,
    _at_least,
    _between,
    _check_columns,
    _fmt,
    _require,
    load_config,
    save_manifest,
)
from .core import _KINDS as _LOSS_KINDS, LossFunction, MonitoringBatch
from .meta import InfeasibleRateError, RiskBoundInputs, classical_ewaf_bound, risk_bound
from .sim import ReplicateTrace, ScenarioKind, holdout_size, run_replicate, run_replicates

__all__ = ["IngestedStream", "run", "bound_curves", "ingest", "main"]

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
    """A finite number or an ISO date (its first 10 characters); raises
    ValueError otherwise."""
    raw = raw.strip()
    try:
        value = float(raw)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise ValueError(f"timestamp {raw!r} is not finite")
        return value
    try:
        return date.fromisoformat(raw[:10])
    except ValueError:
        raise ValueError(f"cannot parse timestamp {raw!r}") from None


def ingest(
    path: str | Path,
    batch_by: str = _DEFAULTS["batch_by"],
    batch_size: int = _DEFAULTS["data_batch_size"],
    timestamp_col: str = _DEFAULTS["timestamp_col"],
    label_col: str = _DEFAULTS["label_col"],
    strict_sorted: bool = False,
) -> IngestedStream:
    """Read a UTF-8 header CSV of (timestamp, features..., label) into batches.

    A byte-order mark is skipped, and so are blank lines.  Column names
    must be distinct, and every row must have as many cells as the header.
    Every timestamp must be a finite number or an ISO date, and every
    feature and label a finite number.  The first row that breaks a rule is
    reported as ``file:line``.  Rows are sorted by timestamp (an error in
    strict mode if out of order).  Binary labels {0, 1} are mapped to
    {-1, +1}; labels already in {-1, +1} or real-valued labels pass
    through unchanged.
    """
    _check_columns(timestamp_col, label_col)
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path} has no header row")
            for name in header:
                if header.count(name) > 1:
                    raise ConfigError(f"{path}:{reader.line_num}: repeated column {name!r}")
            for col in (timestamp_col, label_col):
                if col not in header:
                    raise ConfigError(f"{path} is missing column {col!r}")
            feature_names = tuple(c for c in header if c not in (timestamp_col, label_col))
            if not feature_names:
                raise ConfigError(f"{path} has no feature columns")
            width = len(header)
            stamp_at = header.index(timestamp_col)
            # each row's values: its features in header order, then its label
            value_at = [header.index(c) for c in (*feature_names, label_col)]
            stamps, rows = [], []
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise ConfigError(
                        f"{path}:{reader.line_num}: {len(row)} cells where the header has {width}"
                    )
                try:
                    stamps.append(_parse_timestamp(row[stamp_at]))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
                try:
                    values = [float(row[k]) for k in value_at]
                except ValueError as exc:
                    raise ConfigError(f"{path}:{reader.line_num}: non-numeric value ({exc})") from exc
                if not all(map(math.isfinite, values)):
                    bad = next(k for k, v in zip(value_at, values) if not math.isfinite(v))
                    raise ConfigError(
                        f"{path}:{reader.line_num}: non-finite value in column {header[bad]!r}"
                    )
                rows.append(values)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
    if not stamps:
        raise ConfigError(f"{path} contains no data rows")
    if len({type(s) for s in stamps}) > 1:
        raise ConfigError("timestamps mix numeric and date formats")

    order = sorted(range(len(stamps)), key=lambda i: stamps[i])
    if strict_sorted and order != list(range(len(stamps))):
        raise ConfigError("timestamps are not sorted (strict mode)")
    stamps = [stamps[i] for i in order]
    data = np.asarray(rows, dtype=float)[order]
    features = data[:, :-1]
    label_arr = data[:, -1]
    uniq = set(np.unique(label_arr).tolist())
    if uniq == {0.0, 1.0} or uniq <= {0.0} or uniq <= {1.0}:
        label_arr = np.where(label_arr > 0, 1.0, -1.0)

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
        months = groupby(range(len(stamps)), key=lambda i: (stamps[i].year, stamps[i].month))
        groups = [np.asarray(list(rows)) for _, rows in months]
        rule = "month"
    else:
        raise ConfigError(f"unknown batching rule {batch_by!r}")

    batches = tuple(
        MonitoringBatch(features[idx], label_arr[idx]) for idx in groups
    )
    return IngestedStream(batches=batches, feature_names=feature_names, rule=rule)


# ---------------------------------------------------------------------------
# Run orchestration


def _replay_batches(cfg: RunConfig) -> tuple[MonitoringBatch, ...]:
    """Parse the ingested CSV once and reject data no replicate can run on:
    fewer than two batches, labels the loss does not accept, or a batch
    too small to split at the validation fraction."""
    stream = ingest(cfg.data_path, cfg.batch_by, cfg.data_batch_size,
                    cfg.timestamp_col, cfg.label_col)
    if len(stream.batches) < 2:
        raise ConfigError(f"{cfg.data_path}: replay needs at least two batches")
    loss = cfg.loss
    for k, batch in enumerate(stream.batches):
        what = f"{cfg.data_path}: batch {k}"
        try:
            loss.check_labels(batch.labels)
        except ValueError as exc:
            raise ConfigError(f"{what} ({batch.size} rows): {exc}") from exc
        _check_split(what, batch.size, cfg.validation_fraction)
    return stream.batches


def _check_split(what: str, size: int, fraction: Optional[float] = None) -> None:
    """Reject a batch that cannot split into nonempty validation and
    training parts: fewer than two rows never can, at any fraction; with
    ``fraction`` given, ``sim.holdout_size`` decides."""
    try:
        if size < 2:
            raise ValueError("fewer than two rows cannot split into validation and training parts")
        if fraction is not None:
            holdout_size(size, fraction)
    except ValueError as exc:
        raise ConfigError(f"{what} ({size} rows): {exc}") from exc


def _write_csv(path: Path, header: list[str], blocks: Iterable[list[str]]) -> None:
    """Write ``header`` and then each block of joined lines in one call.

    The bytes are what ``csv.writer`` writes for the same cells, "\r\n"
    line ends included: every cell is a number or a plain column name, none
    of which it would quote.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lines in blocks:
            fh.write("\r\n".join(lines) + "\r\n")


def _step_lines(tr: ReplicateTrace) -> list[str]:
    """One trace's ``steps.csv`` lines: nine leading cells, then its
    weight, per-strategy cumulative-risk and abstention columns."""
    wide = np.hstack([tr.meta_weights, tr.strategy_cum_avg_true(), tr.strategy_abstain]).tolist()
    tail = f"{_fmt(tr.abstain_cost)},{_fmt(tr.meta_rate)}"
    cum = tr.cum_avg_true()
    return [
        f"{tr.replicate},{t + 1},{_fmt(tr.true_risk[t])},{_fmt(cum[t])},{_fmt(tr.emp_risk[t])},"
        f"{_fmt(tr.abstain_prob[t])},{int(tr.meta_top[t])},{tail},{','.join(map(repr, wide[t]))}"
        for t in range(tr.horizon)
    ]


def _chunk_worker(args) -> list[ReplicateTrace]:
    """One contiguous chunk of replicates, run in lockstep.  A chunk of one
    goes through ``run_replicate``, the per-replicate call that the
    benchmark's tracer (``perfbench/tracer.py``) wraps here."""
    cfg, chunk, batches = args
    if len(chunk) == 1:
        return [run_replicate(cfg, chunk[0], batches=batches)]
    return run_replicates(cfg, chunk, batches)


def run(cfg: RunConfig) -> dict:
    """Execute a run and write steps.csv, summary.csv and manifest.ini.

    Returns a small summary dict (paths, realized costs and rates).
    """
    batches = _replay_batches(cfg) if cfg.scenario is ScenarioKind.INGESTED else None
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # the pool forks every worker at the first submit, so spawn no idle ones
    n = cfg.replicates
    workers = min(cfg.threads, n)
    # each worker steps one contiguous chunk of replicates in lockstep
    jobs = [(cfg, range(k * n // workers, (k + 1) * n // workers), batches) for k in range(workers)]
    if workers > 1:
        # imported here so a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_chunk_worker, jobs))
    else:
        chunks = [_chunk_worker(j) for j in jobs]
    traces = [tr for chunk in chunks for tr in chunk]

    m = len(cfg.rows)
    steps_path = out_dir / "steps.csv"
    header = (
        ["replicate", "t", "true_risk", "cum_avg_risk", "emp_risk", "abstain_prob",
         "meta_top", "abstain_cost", "meta_rate"]
        + [f"w{j}" for j in range(m)]
        + [f"strat{j}_cum_risk" for j in range(m)]
        + [f"strat{j}_abstain" for j in range(m)]
    )
    _write_csv(steps_path, header, map(_step_lines, traces))

    horizon = traces[0].horizon
    cum_all = np.stack([tr.cum_avg_true() for tr in traces])
    abst_all = np.stack([tr.abstain_prob for tr in traces])
    summary_path = out_dir / "summary.csv"
    # one std per column, not one reduction along axis 0, which sums in
    # another order and so writes other bytes
    if len(traces) > 1:
        root_n = math.sqrt(len(traces))
        cum_se = [cum_all[:, t].std(ddof=1) / root_n for t in range(horizon)]
        abst_se = [abst_all[:, t].std(ddof=1) / root_n for t in range(horizon)]
    else:
        cum_se = abst_se = [0.0] * horizon
    summary = [
        ",".join([
            str(t + 1),
            _fmt(cum_all[:, t].mean()),
            _fmt(cum_se[t]),
            _fmt(abst_all[:, t].mean()),
            _fmt(abst_se[t]),
        ])
        for t in range(horizon)
    ]
    _write_csv(summary_path,
               ["t", "mean_cum_risk", "stderr_cum_risk", "mean_abstain", "stderr_abstain"],
               [summary])

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
        inputs = RiskBoundInputs(
            abstain_cost=delta, step_margin=0.0, drift=2.0 * delta, cover_alpha=0.0,
            n_strategies=n_strategies, horizon=horizon, batch_size=None, holdout_size=None,
        )
        for i in range(points):
            rate = rate_min + (rate_max - rate_min) * i / max(points - 1, 1)
            classical = classical_ewaf_bound(rate, delta, n_strategies, horizon)
            rows.append((delta, rate, classical, risk_bound(inputs, rate)))
    return rows


def _cmd_run(args) -> int:
    names = ("seed", "replicates", "out", "threads")
    overrides = {k: v for k in names if (v := getattr(args, k)) is not None}
    cfg = replace(load_config(args.config), **overrides)  # checked like the keys they replace
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
    # the same checks as the config keys these flags mirror
    for delta in deltas:
        _require("--deltas", delta, _FLOAT, _between(0, 1))  # as data.abstain_cost
    for flag, value, type_, check in (
        ("--rate-min", args.rate_min, _FLOAT, _above(0)),
        ("--rate-max", args.rate_max, _FLOAT, _above(0)),
        ("--points", args.points, _INT, _at_least(1)),
        ("--strategies", args.strategies, _INT, _at_least(1)),
        ("--horizon", args.horizon, _INT, _at_least(1)),
    ):
        _require(flag, value, type_, check)
    # every rate of the curves lies between the two flags, and a bound that
    # rounds away at some rate and abstain cost does so at any smaller one
    for flag, rate in (("--rate-min", args.rate_min), ("--rate-max", args.rate_max)):
        try:
            bound_curves([min(deltas)], rate, rate, 1, args.strategies, args.horizon)
        except ValueError as exc:
            raise ConfigError(f"{flag}: {exc}") from exc
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
    _require("--batch-size", args.batch_size, _INT, _at_least(2))  # as data.batch_size
    stream = ingest(args.csv, args.batch_by, args.batch_size,
                    args.timestamp_col, args.label_col, strict_sorted=args.strict)
    for k, size in enumerate(stream.sizes):
        _check_split(f"{args.csv}: batch {k}", size)
    print(f"rule {stream.rule}: {len(stream.batches)} batches")
    print(f"feature columns ({len(stream.feature_names)}): {', '.join(stream.feature_names)}")
    print("batch sizes: " + " ".join(str(s) for s in stream.sizes))
    # the labels as a run replays them, and the loss kinds whose own check
    # accepts them: the [loss] section is not read here
    labels = np.unique(np.concatenate([batch.labels for batch in stream.batches]))
    if labels.size <= 10:
        print("labels: " + ", ".join(f"{v:g}" for v in labels))
    else:
        print(f"labels: {labels.size} distinct values in [{labels[0]:g}, {labels[-1]:g}]")
    accepted = []
    for kind in _LOSS_KINDS:
        try:
            LossFunction(kind).check_labels(labels)
        except ValueError:
            continue
        accepted.append(kind)
    print("loss kinds accepting them: " + ", ".join(accepted))
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
    # the [data] keys' defaults and choices, as a run reads them
    batch_rules = next(key.type.choices for key in _SCHEMA if key.field == "batch_by")
    p_check.add_argument("--batch-by", choices=batch_rules,
                         default=_DEFAULTS["batch_by"], dest="batch_by")
    p_check.add_argument("--batch-size", type=int, default=_DEFAULTS["data_batch_size"],
                         dest="batch_size")
    p_check.add_argument("--timestamp-col", default=_DEFAULTS["timestamp_col"], dest="timestamp_col")
    p_check.add_argument("--label-col", default=_DEFAULTS["label_col"], dest="label_col")
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
