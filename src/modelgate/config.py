"""Run settings: the ``RunConfig`` record and the INI schema that reads and
writes it.

Runs are described by a flat INI file (sections and key=value pairs; see
``CONFIG_GRAMMAR``).  One table, ``_SCHEMA``, drives parsing, validation,
the grammar text and the manifest, which is itself a loadable config that
reproduces the run byte for byte.  A ``RunConfig`` built in code is checked
against the same table as one read from a file.
"""

from __future__ import annotations

import configparser
import math
import textwrap
from dataclasses import MISSING, dataclass, fields
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .core import _KINDS as _LOSS_KINDS, LossFunction
from .sim import GRID4, GRID12, MIN_BAYES_RISK, ScenarioKind, holdout_size

__all__ = ["ConfigError", "RunConfig", "CONFIG_GRAMMAR", "load_config", "save_manifest"]


class ConfigError(ValueError):
    """A run configuration failed validation."""


_PRESETS = {"grid4": GRID4, "grid12": GRID12}


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one run: the one settings record, read
    by the command line and by ``sim.run_replicate`` alike.

    Every value is checked against the config schema on construction, so a
    config made with ``dataclasses.replace`` (command-line overrides, a
    rerun from a manifest) or in code is checked exactly like one read from
    a file.
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
        if self.scenario is not ScenarioKind.INGESTED:
            for key in _REPLAY_KEYS:
                if getattr(self, key.field) != _DEFAULTS[key.field]:
                    raise ConfigError(
                        f"{key.name}: set for scenario {self.scenario.value}, but only "
                        "the ingested scenario replays data"
                    )
            try:
                holdout_size(self.batch_size, self.validation_fraction)
            except ValueError as exc:
                raise ConfigError(f"run.batch_size: {self.batch_size!r} is invalid ({exc})") from exc
        if self.scenario is ScenarioKind.SMALL_FREQUENT_SHIFTS and self.dim < 2:
            raise ConfigError("small_frequent_shifts rotates the coefficients, so dim must be >= 2")
        _check_columns(self.timestamp_col, self.label_col)

    @property
    def loss(self) -> LossFunction:
        """The loss the ``[loss]`` keys name."""
        return LossFunction(self.loss_kind, self.loss_scale)


def _check_columns(timestamp_col: str, label_col: str) -> None:
    """Reject one column named as both the timestamp and the label."""
    if timestamp_col == label_col:
        raise ConfigError(
            f"data.label_col: {label_col!r} is also data.timestamp_col; the two must differ"
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


def _half_open(lo, hi) -> _Check:
    return _Check(f"in [{lo}, {hi})", lambda v: lo <= v < hi)


def _spec(type_: _Type, check: Optional[_Check]) -> str:
    return f"{type_.name} {check.text}" if check else type_.name


def _require(name: str, value, type_: _Type, check: Optional[_Check] = None) -> None:
    """Raise ConfigError unless ``value`` is of ``type_`` and passes ``check``."""
    if not (type_.accepts(value) and (check is None or check.ok(value))):
        raise ConfigError(f"{name}: {value!r} is invalid (want {_spec(type_, check)})")


def _choice(*names: str) -> _Type:
    return _Type(" | ".join(names), str.strip, lambda v: v in names, str, names)


# a bool is an int to isinstance, but a manifest would write it as True or
# False, which no int or float key parses
def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _parse_rows(text: str) -> tuple[tuple[float, ...], ...]:
    chunks = text.replace("\n", "/").split("/")
    return tuple(tuple(float(p) for p in chunk.split(",")) for chunk in chunks if chunk.strip())


def _valid_rows(v) -> bool:
    return isinstance(v, tuple) and bool(v) and v[0] == (0.0, 0.0, 0.0) and all(
        isinstance(row, tuple) and len(row) == 3 and all(map(_finite, row))
        and 0 <= row[0] <= 1 and row[1] >= 0 and row[2] >= 0 for row in v
    )


_INT = _Type("int", int, lambda v: isinstance(v, int) and not isinstance(v, bool), str)
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
    _Key("run", "dim", "dim", _INT, _at_least(1),
         "at least 2 for small_frequent_shifts, whose shifts are rotations"),
    _Key("run", "bayes_risk", "bayes_risk", _FLOAT, _half_open(MIN_BAYES_RISK, 0.5),
         "exact best-in-class hinge risk; the least is its value at coefficient norm 15 "
         "(about 0.0528)"),
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
    _Key("loss", "kind", "loss_kind", _choice(*_LOSS_KINDS),
         help="under zero_one a simulated gate abstains at every step at the default "
         "margins: the per-step margin (about 0.013) is far below the bounds' Hoeffding "
         "half-widths (about 0.1), so every candidate is vetoed"),
    _Key("loss", "scale", "loss_scale", _FLOAT, _above(0)),
    _Key("data", "path", "data_path", _STR,
         help="required by the ingested scenario: a CSV file with a header row and finite "
         "features and labels.  A run needs at least two batches, each split at "
         "bounds.validation_fraction into two nonempty parts, and, for clipped_hinge "
         "and zero_one, labels 0/1 or -1/+1.  Only the ingested scenario reads path "
         "and the keys up to batch_size; any other rejects one set away from its default"),
    _Key("data", "timestamp_col", "timestamp_col", _STR, help="column name"),
    _Key("data", "label_col", "label_col", _STR, help="column name; must differ from timestamp_col"),
    _Key("data", "batch_by", "batch_by", _choice("count", "month")),
    _Key("data", "batch_size", "data_batch_size", _INT, _at_least(2), "for batch_by = count"),
    _Key("data", "abstain_cost", "abstain_cost", _FLOAT, _between(0, 1),
         "the cost of every scenario, simulated or replayed; unset: the initial model's "
         "risk, on batch 1 of a replayed stream or under a simulated stream's first "
         "distribution"),
)

# the one key that stores each RunConfig field; the others (preset) are input only
_FIELD_KEYS = tuple(key for key in _SCHEMA if key.type.format is not None)
# the [data] keys that only a replay reads; a simulated scenario must leave
# them at their defaults
_REPLAY_KEYS = tuple(key for key in _SCHEMA if key.section == "data" and key.key != "abstain_cost")


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
        # [data] is written once a key leaves its default: abstain_cost applies
        # to every scenario, the other keys only to a replayed stream (a
        # simulated config leaves them at their defaults)
        if section == "data" and all(v == _DEFAULTS[key.field] for key, v in values):
            continue
        blocks.append("\n".join([f"[{section}]"] + [
            f"{key.key} = {key.type.format(v)}" for key, v in values if v is not None
        ]))
    lines = ["# run manifest; load this file to reproduce the run exactly"]
    lines += [f"# {c}" for c in extra_comments]
    path.write_text("\n".join(lines + ["\n\n".join(blocks)]) + "\n", encoding="utf-8")

