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
import textwrap
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from datetime import date
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bounds import BoundConfig
from .core import LossFunction, MonitoringBatch
from .meta import InfeasibleRateError, RiskBoundInputs, classical_ewaf_bound, risk_bound
from .sim import (
    GRID4,
    GRID12,
    FitConfig,
    MetaConfig,
    ReplicateTrace,
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
    """A run configuration failed validation."""


_PRESETS = {"grid4": GRID4, "grid12": GRID12}


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one run.

    Every value is checked against the config schema on construction, so a
    config made with ``dataclasses.replace`` (command-line overrides, a
    rerun from a manifest) is checked exactly like one read from a file.
    """

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

    def __post_init__(self):
        for key in _FIELD_KEYS:
            value = getattr(self, key.field)
            if value is None and _DEFAULTS[key.field] is None:
                continue
            _require(key.name, value, key.type, key.check)
        if self.scenario is ScenarioKind.INGESTED and not self.data_path:
            raise ConfigError("data.path is required for the ingested scenario")

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


# ---------------------------------------------------------------------------
# Config schema: one row per INI key drives parsing, validation, the
# manifest and CONFIG_GRAMMAR


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


class _Type(NamedTuple):
    """How one kind of value is read from INI text, checked and written back."""

    name: str  # its spelling in CONFIG_GRAMMAR
    parse: Callable[[str], Any]  # raises ValueError or KeyError on malformed text
    accepts: Callable[[Any], bool]
    format: Optional[Callable[[Any], str]] = None  # None: read, never written
    choices: tuple[str, ...] = ()  # the accepted names of a choice


class _Check(NamedTuple):
    """A condition on a typed value: its CONFIG_GRAMMAR text and its test."""

    text: str
    ok: Callable[[Any], bool]


def _at_least(lo) -> _Check:
    return _Check(f">= {lo}", lambda v: v >= lo)


def _above(lo) -> _Check:
    return _Check(f"> {lo}", lambda v: v > lo)


def _between(lo, hi) -> _Check:
    return _Check(f"in ({lo}, {hi})", lambda v: lo < v < hi)


def _spec(type_: _Type, check: Optional[_Check]) -> str:
    return f"{type_.name} {check.text}" if check else type_.name


def _require(name: str, value, type_: _Type, check: Optional[_Check] = None) -> None:
    """Raise ConfigError unless ``value`` is of ``type_`` and passes ``check``."""
    if not (type_.accepts(value) and (check is None or check.ok(value))):
        raise ConfigError(f"{name}: {value!r} is invalid (want {_spec(type_, check)})")


def _choice(*names: str) -> _Type:
    return _Type(" | ".join(names), str.strip, lambda v: v in names, str, names)


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _parse_rows(text: str) -> tuple[tuple[float, ...], ...]:
    chunks = text.replace("\n", "/").split("/")
    return tuple(tuple(float(p) for p in chunk.split(",")) for chunk in chunks if chunk.strip())


def _valid_rows(v) -> bool:
    return isinstance(v, tuple) and bool(v) and v[0] == (0.0, 0.0, 0.0) and all(
        isinstance(row, tuple) and len(row) == 3 and all(map(_finite, row))
        and 0 <= row[0] <= 1 and row[1] >= 0 and row[2] >= 0 for row in v
    )


_INT = _Type("int", int, lambda v: isinstance(v, int), str)
_FLOAT = _Type("finite float", float, _finite, _fmt)
_STR = _Type("string", str.strip, lambda v: isinstance(v, str), str)
_SCENARIO = _Type(" | ".join(kind.value for kind in ScenarioKind),
                  lambda s: ScenarioKind(s.strip().lower()),
                  lambda v: isinstance(v, ScenarioKind), attrgetter("value"))
_ROWS = _Type('triples "a,o,l" separated by "/" or newlines, row 0 = 0,0,0 (the '
              "fail-safe), 0 <= a <= 1, o >= 0, l >= 0", _parse_rows, _valid_rows,
              lambda rows: " / ".join(",".join(_fmt(v) for v in row) for row in rows))
_PRESET = _Type(" | ".join(_PRESETS), lambda s: _PRESETS[s.strip()], _valid_rows)


class _Key(NamedTuple):
    """One INI key: its section, the ``RunConfig`` field it sets, its type,
    an optional check on the typed value, and the help CONFIG_GRAMMAR shows."""

    section: str
    key: str
    field: str
    type: _Type
    check: Optional[_Check] = None
    help: str = ""

    @property
    def name(self) -> str:
        return f"{self.section}.{self.key}"

    @property
    def spec(self) -> str:
        return _spec(self.type, self.check)


# Table order is manifest order.  A field without a default is a required
# key; one whose default is None may be left unset.
_SCHEMA = (
    _Key("run", "scenario", "scenario", _SCENARIO),
    _Key("run", "horizon", "horizon", _INT, _at_least(1), "ignored for ingested streams"),
    _Key("run", "batch_size", "batch_size", _INT, _at_least(1),
         "a run rejects a size that does not split at bounds.validation_fraction "
         "into two nonempty parts (so at least 2)"),
    _Key("run", "dim", "dim", _INT, _at_least(1)),
    _Key("run", "bayes_risk", "bayes_risk", _FLOAT, _between(0, 0.5), "best-in-class hinge risk"),
    _Key("run", "initial_batches", "initial_batches", _INT, _at_least(1),
         "pre-deployment data volume"),
    _Key("run", "drift", "drift", _FLOAT, _at_least(0), "unset: the realized abstain cost"),
    _Key("run", "eval_size", "eval_size", _INT, _at_least(1),
         "rows of the Monte Carlo sample that measures true risk, for losses that are "
         "not affine only (zero_one, scaled_absolute, clipped_hinge with scale < 2); an "
         "affine loss integrates it exactly"),
    _Key("run", "replicates", "replicates", _INT, _at_least(1)),
    _Key("run", "seed", "seed", _INT, _at_least(0)),
    _Key("run", "out", "out", _STR, help="output directory"),
    _Key("run", "threads", "threads", _INT, _at_least(1),
         "worker processes, at most one per replicate"),
    _Key("strategies", "preset", "rows", _PRESET),
    _Key("strategies", "rows", "rows", _ROWS, help="overrides preset"),
    _Key("bounds", "alpha", "bound_alpha", _FLOAT, _between(0, 1)),
    _Key("bounds", "window", "bound_window", _INT, _at_least(1)),
    _Key("bounds", "validation_fraction", "validation_fraction", _FLOAT, _between(0, 1)),
    _Key("margins", "margin_mult", "margin_mult", _FLOAT, _at_least(0),
         "total margin = mult * cost"),
    _Key("margins", "step_margin_mult", "step_margin_mult", _FLOAT, _at_least(0),
         "per-step margin = mult * total"),
    _Key("meta", "rate_mode", "rate_mode", _choice("solve", "fixed")),
    _Key("meta", "rate", "rate", _FLOAT, _above(0), "used when rate_mode = fixed"),
    _Key("loss", "kind", "loss_kind", _choice("clipped_hinge", "zero_one", "scaled_absolute")),
    _Key("loss", "scale", "loss_scale", _FLOAT, _above(0)),
    _Key("data", "path", "data_path", _STR,
         help="required by the ingested scenario: a CSV file with a header row and finite "
         "features and labels.  A run needs at least two batches, each split at "
         "bounds.validation_fraction into two nonempty parts, and, for clipped_hinge "
         "and zero_one, labels 0/1 or -1/+1"),
    _Key("data", "timestamp_col", "timestamp_col", _STR, help="column name"),
    _Key("data", "label_col", "label_col", _STR, help="column name"),
    _Key("data", "batch_by", "batch_by", _choice("count", "month")),
    _Key("data", "batch_size", "data_batch_size", _INT, _at_least(2), "for batch_by = count"),
    _Key("data", "abstain_cost", "abstain_cost", _FLOAT, _between(0, 1),
         "unset: the first model's risk on batch 1"),
)

# the one key that stores each RunConfig field; the others (preset) are input only
_FIELD_KEYS = tuple(key for key in _SCHEMA if key.type.format is not None)


def _grammar() -> str:
    lines = ["Sections and keys of a run config.  A finite float rejects nan, inf and -inf."]
    for section, keys in groupby(_SCHEMA, key=attrgetter("section")):
        lines += ["", f"[{section}]"]
        for key in keys:
            default = _DEFAULTS[key.field]
            if default is MISSING:
                shown = "required"
            elif default is None:
                shown = "optional"
            else:
                preset = [name for name, rows in _PRESETS.items() if rows == default]
                shown = "default " + (preset[0] if preset else key.type.format(default))
            lines += textwrap.wrap(
                "; ".join(filter(None, (key.spec, shown, key.help))), 76,
                initial_indent=f"{key.key} = ", subsequent_indent=" " * (len(key.key) + 3),
                break_on_hyphens=False,
            )
    return "\n".join(lines) + "\n"


CONFIG_GRAMMAR = _grammar()


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a UTF-8 run configuration; unknown sections and
    keys are rejected."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc

    known = {(key.section, key.key) for key in _SCHEMA}
    for section in parser.sections():
        if section not in {key.section for key in _SCHEMA}:
            raise ConfigError(f"unknown section [{section}]")
        for name in parser[section]:
            if (section, name) not in known:
                raise ConfigError(f"unknown key {name!r} in section [{section}]")

    values = {}
    for key in _SCHEMA:  # in table order, so rows overrides preset
        if parser.has_option(key.section, key.key):
            raw = parser.get(key.section, key.key)
            try:
                values[key.field] = key.type.parse(raw)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"{key.name}: cannot parse {raw!r} (want {key.spec})") from exc
        elif _DEFAULTS[key.field] is MISSING:
            raise ConfigError(f"{key.name} is required")
    return RunConfig(**values)


def save_manifest(cfg: RunConfig, path: Path, extra_comments: Sequence[str] = ()) -> None:
    """Write the resolved config as a loadable INI manifest: every key in
    schema order, unset optional values omitted."""
    blocks = []
    for section, keys in groupby(_FIELD_KEYS, key=attrgetter("section")):
        values = [(key, getattr(cfg, key.field)) for key in keys]
        # only a replayed stream reads [data]; it is written once a key leaves its default
        if section == "data" and all(v == _DEFAULTS[key.field] for key, v in values):
            continue
        blocks.append("\n".join([f"[{section}]"] + [
            f"{key.key} = {key.type.format(v)}" for key, v in values if v is not None
        ]))
    lines = ["# run manifest; load this file to reproduce the run exactly"]
    lines += [f"# {c}" for c in extra_comments]
    path.write_text("\n".join(lines + ["\n\n".join(blocks)]) + "\n", encoding="utf-8")


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
    batch_by: str = _DEFAULTS["batch_by"],
    batch_size: int = _DEFAULTS["data_batch_size"],
    timestamp_col: str = _DEFAULTS["timestamp_col"],
    label_col: str = _DEFAULTS["label_col"],
    strict_sorted: bool = False,
) -> IngestedStream:
    """Read a UTF-8 header CSV of (timestamp, features..., label) into batches.

    Every feature and label must be a finite number; the first that is not
    is reported as ``file:line``.  Rows are sorted by timestamp (an error
    in strict mode if out of order).  Binary labels {0, 1} are mapped to
    {-1, +1}; labels already in {-1, +1} or real-valued labels pass
    through unchanged.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
    except (OSError, UnicodeDecodeError) as exc:
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
    if cfg.scenario is ScenarioKind.INGESTED:
        batches = _replay_batches(cfg)
    else:
        batches = None
        _check_split("run.batch_size", cfg.batch_size, cfg.validation_fraction)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [(cfg, r, batches) for r in range(cfg.replicates)]
    # the pool forks every worker at the first submit, so spawn no idle ones
    workers = min(cfg.threads, cfg.replicates)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    _write_csv(steps_path, header, map(_step_lines, traces))

    horizon = traces[0].horizon
    cum_all = np.stack([tr.cum_avg_true() for tr in traces])
    abst_all = np.stack([tr.abstain_prob for tr in traces])
    summary_path = out_dir / "summary.csv"
    denom = math.sqrt(len(traces)) if len(traces) > 1 else 1.0
    summary = [
        ",".join([
            str(t + 1),
            _fmt(cum_all[:, t].mean()),
            _fmt(cum_all[:, t].std(ddof=1) / denom if len(traces) > 1 else 0.0),
            _fmt(abst_all[:, t].mean()),
            _fmt(abst_all[:, t].std(ddof=1) / denom if len(traces) > 1 else 0.0),
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
    for k, size in enumerate(stream.sizes):
        _check_split(f"{args.csv}: batch {k}", size)
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
