import csv
import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from modelgate.cli import bound_curves, ingest, main, run
from modelgate.config import (
    CONFIG_GRAMMAR,
    ConfigError,
    RunConfig,
    _SCHEMA,
    load_config,
    save_manifest,
)
from modelgate.sim import GRID4, GRID12, MIN_BAYES_RISK, ReplicateTrace, ScenarioKind

SMALL_CONFIG = """\
[run]
scenario = small_frequent_shifts
horizon = 8
batch_size = 40
eval_size = 1500
replicates = 2
seed = 99
out = {out}

[strategies]
rows = 0,0,0 / 0.5,10000,0 / 0.3,0,1.5

[meta]
rate_mode = fixed
rate = 1.5
"""


def ini(entries):
    """INI text of ``{(section, key): value}``, one block per section."""
    sections = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "\n\n".join(f"[{s}]\n" + "\n".join(lines) for s, lines in sections.items()) + "\n"


def write_config(tmp_path, text=None, name="run.ini"):
    path = tmp_path / name
    path.write_text(text if text is not None else SMALL_CONFIG.format(out=tmp_path / "out"))
    return path


class TestLoadConfig:
    def test_minimal_config_applies_documented_defaults(self, tmp_path):
        path = write_config(tmp_path, "[run]\nscenario = iid_good_models\n")
        cfg = load_config(path)
        assert cfg.scenario is ScenarioKind.IID_GOOD_MODELS
        assert cfg.horizon == 50
        assert cfg.batch_size == 75
        assert cfg.bound_alpha == 0.1
        assert cfg.bound_window == 3
        assert cfg.replicates == 15
        assert cfg.margin_mult == 0.6 and cfg.step_margin_mult == 0.2
        assert cfg.rows == GRID12

    def test_preset_grid12_is_the_published_table(self, tmp_path):
        path = write_config(tmp_path, "[run]\nscenario = iid_good_models\n[strategies]\npreset = grid12\n")
        cfg = load_config(path)
        assert cfg.rows == GRID12
        assert len(GRID12) == 12
        assert GRID12[0] == (0.0, 0.0, 0.0)
        assert GRID12[2] == (0.5, 10000.0, 0.0)
        assert GRID12[3] == (0.3, 0.0, 10.0)
        assert GRID12[-1] == (0.8, 100.0, 10.0)
        assert len(GRID4) == 4 and GRID4[-1] == (0.3, 0.0, 1.5)

    def test_explicit_rows_override_preset(self, tmp_path):
        path = write_config(
            tmp_path,
            "[run]\nscenario = iid_good_models\n"
            "[strategies]\npreset = grid4\nrows = 0,0,0 / 0.4,2,1\n",
        )
        cfg = load_config(path)
        assert cfg.rows == ((0.0, 0.0, 0.0), (0.4, 2.0, 1.0))

    def test_row_zero_must_be_fail_safe(self, tmp_path):
        path = write_config(
            tmp_path, "[run]\nscenario = iid_good_models\n[strategies]\nrows = 0.4,2,1\n"
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[run]\nscenario = iid_good_models\nbananas = 3\n")
        with pytest.raises(ConfigError, match="bananas"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[run]\nscenario = iid_good_models\n[extra]\nx = 1\n")
        with pytest.raises(ConfigError, match="extra"):
            load_config(path)

    def test_negative_batch_size_rejected(self, tmp_path):
        path = write_config(tmp_path, "[run]\nscenario = iid_good_models\nbatch_size = -5\n")
        with pytest.raises(ConfigError, match="batch_size"):
            load_config(path)

    def test_missing_scenario_rejected(self, tmp_path):
        path = write_config(tmp_path, "[run]\nhorizon = 5\n")
        with pytest.raises(ConfigError, match="scenario"):
            load_config(path)

    def test_ingested_requires_data_path(self, tmp_path):
        path = write_config(tmp_path, "[run]\nscenario = ingested\n")
        with pytest.raises(ConfigError, match="data.path"):
            load_config(path)

    @pytest.mark.parametrize("name, value", [
        ("data.path", "x.csv"), ("data.timestamp_col", "ts"), ("data.label_col", "y"),
        ("data.batch_by", "month"), ("data.batch_size", 30),
    ])
    def test_simulated_scenario_rejects_replay_keys(self, name, value):
        field = next(key.field for key in _SCHEMA if key.name == name)
        with pytest.raises(ConfigError, match=f"^{re.escape(name)}: set for scenario iid_good_models"):
            RunConfig(ScenarioKind.IID_GOOD_MODELS, **{field: value})
        replay = RunConfig(ScenarioKind.INGESTED, **{"data_path": "in.csv", field: value})
        assert getattr(replay, field) == value
        # a rerun or a command-line override is checked the same way
        with pytest.raises(ConfigError, match="set for scenario adaptive_shifts"):
            dataclasses.replace(replay, scenario=ScenarioKind.ADAPTIVE_SHIFTS)

    def test_simulated_scenario_keeps_data_defaults_and_abstain_cost(self):
        cfg = RunConfig(ScenarioKind.SMALL_FREQUENT_SHIFTS, timestamp_col="timestamp",
                        batch_by="count", data_batch_size=75, abstain_cost=0.2)
        assert cfg.abstain_cost == 0.2 and cfg.data_path is None

    def test_rotation_in_one_dimension_rejected(self):
        # small_frequent_shifts rotates the coefficients; other scenarios run at dim 1
        with pytest.raises(ConfigError, match="dim must be >= 2"):
            RunConfig(ScenarioKind.SMALL_FREQUENT_SHIFTS, dim=1)
        cfg = RunConfig(ScenarioKind.SMALL_FREQUENT_SHIFTS, dim=2)
        with pytest.raises(ConfigError, match="dim must be >= 2"):
            dataclasses.replace(cfg, dim=1)
        for kind in (ScenarioKind.ADAPTIVE_SHIFTS, ScenarioKind.IID_GOOD_MODELS):
            assert RunConfig(kind, dim=1).dim == 1

    def test_rotation_in_one_dimension_is_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, ini({
            ("run", "scenario"): "small_frequent_shifts", ("run", "dim"): 1,
            ("run", "horizon"): 8, ("run", "replicates"): 1, ("run", "out"): tmp_path / "out",
            ("meta", "rate_mode"): "fixed",
        }))
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "dim must be >= 2" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_manifest_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        manifest = tmp_path / "manifest.ini"
        save_manifest(cfg, manifest, ["note: test"])
        again = load_config(manifest)
        assert again == cfg

    @pytest.mark.parametrize("key", [k for k in _SCHEMA if k.type.name == "finite float"],
                             ids=lambda k: k.name)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_is_exit_2(self, tmp_path, capsys, key, value):
        # tiny sizes and a fixed rate, so a missed check fails fast instead of running
        config = write_config(tmp_path, ini({
            ("run", "scenario"): "iid_good_models", ("run", "horizon"): 2,
            ("run", "eval_size"): 200, ("run", "replicates"): 1, ("run", "out"): tmp_path / "out",
            ("meta", "rate_mode"): "fixed", (key.section, key.key): value,
        }))
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key.name}: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    # below the least risk any norm in the signal-scale bracket reaches, about 0.0528
    @pytest.mark.parametrize("value", ["0.05", "1e-07", repr(math.nextafter(MIN_BAYES_RISK, 0.0)), "0.0"])
    def test_unreachable_bayes_risk_is_exit_2(self, tmp_path, capsys, value):
        config = write_config(tmp_path, ini({
            ("run", "scenario"): "iid_good_models", ("run", "horizon"): 2,
            ("run", "eval_size"): 200, ("run", "replicates"): 1, ("run", "out"): tmp_path / "out",
            ("meta", "rate_mode"): "fixed", ("run", "bayes_risk"): value,
        }))
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: run.bayes_risk: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, name", [
        ("[strategies]\nrows = 0,0,0 / 1.5,1,1", "strategies.rows"),  # approve_prob > 1
        ("[strategies]\nrows = 0,0,0 / x,1,1", "strategies.rows"),
        ("[strategies]\nrows = 0,0,0 / 0.5,1", "strategies.rows"),
        ("[strategies]\npreset = grid5", "strategies.preset"),
        ("[loss]\nkind = hinge", "loss.kind"),
        ("[bounds]\nwindow = 1.5", "bounds.window"),
    ], ids=["approve_prob_above_one", "non_numeric_row", "short_row", "unknown_preset",
            "unknown_loss", "fractional_int"])
    def test_bad_value_names_its_key(self, tmp_path, text, name):
        path = write_config(tmp_path, "[run]\nscenario = iid_good_models\n" + text + "\n")
        with pytest.raises(ConfigError, match=re.escape(name + ":")):
            load_config(path)

    def test_grammar_lists_every_key(self):
        blocks = dict(re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", CONFIG_GRAMMAR, re.M | re.S))
        for key in _SCHEMA:
            assert re.search(rf"^{key.key} = ", blocks[key.section], re.M), key.name


def _floats(lo=None, hi=None, **open_ends):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **open_ends).map(repr)


def _rows_text(rows, sep):
    return sep.join(",".join(map(repr, row)) for row in [(0.0, 0.0, 0.0), *rows])


_NAMES = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./%", min_size=1, max_size=12)
_ROW = st.tuples(st.floats(0, 1), st.floats(0, 1e6), st.floats(0, 1e6))

#: INI text of a valid value for every schema key
KEY_VALUES = {
    ("run", "scenario"): st.sampled_from([kind.value for kind in ScenarioKind]),
    ("run", "horizon"): st.integers(1, 10**9).map(str),
    ("run", "batch_size"): st.integers(1, 10**9).map(str),
    ("run", "dim"): st.integers(1, 10**9).map(str),
    ("run", "bayes_risk"): _floats(MIN_BAYES_RISK, 0.5, exclude_max=True),
    ("run", "initial_batches"): st.integers(1, 10**9).map(str),
    ("run", "drift"): _floats(0),
    ("run", "eval_size"): st.integers(1, 10**9).map(str),
    ("run", "replicates"): st.integers(1, 10**9).map(str),
    ("run", "seed"): st.integers(0, 2**63).map(str),
    ("run", "out"): _NAMES,
    ("run", "threads"): st.integers(1, 10**9).map(str),
    ("strategies", "preset"): st.sampled_from(["grid4", "grid12"]),
    ("strategies", "rows"): st.builds(_rows_text, st.lists(_ROW, max_size=4),
                                      st.sampled_from([" / ", "\n  "])),
    ("bounds", "alpha"): _floats(0, 1, exclude_min=True, exclude_max=True),
    ("bounds", "window"): st.integers(1, 10**9).map(str),
    ("bounds", "validation_fraction"): _floats(0, 1, exclude_min=True, exclude_max=True),
    ("margins", "margin_mult"): _floats(0),
    ("margins", "step_margin_mult"): _floats(0),
    ("meta", "rate_mode"): st.sampled_from(["solve", "fixed"]),
    ("meta", "rate"): _floats(0, exclude_min=True),
    ("loss", "kind"): st.sampled_from(["clipped_hinge", "zero_one", "scaled_absolute"]),
    ("loss", "scale"): _floats(0, exclude_min=True),
    ("data", "path"): _NAMES,
    ("data", "timestamp_col"): _NAMES,
    ("data", "label_col"): _NAMES,
    ("data", "batch_by"): st.sampled_from(["count", "month"]),
    ("data", "batch_size"): st.integers(2, 10**9).map(str),
    ("data", "abstain_cost"): _floats(0, 1, exclude_min=True, exclude_max=True),
}


def test_round_trip_values_cover_every_key():
    assert set(KEY_VALUES) == {(key.section, key.key) for key in _SCHEMA}


def _down(x):
    return math.nextafter(x, -math.inf)


def _up(x):
    return math.nextafter(x, math.inf)


#: For every schema key with a check, at each end the check bounds: the last
#: value it accepts and the first it rejects
CHECK_EDGES = {
    "run.horizon": [(1, 0)],
    "run.batch_size": [(2, 1)],
    "run.dim": [(1, 0)],
    "run.bayes_risk": [(MIN_BAYES_RISK, _down(MIN_BAYES_RISK)), (_down(0.5), 0.5)],
    "run.initial_batches": [(1, 0)],
    "run.drift": [(0.0, _down(0.0))],
    "run.eval_size": [(1, 0)],
    "run.replicates": [(1, 0)],
    "run.seed": [(0, -1)],
    "run.threads": [(1, 0)],
    "bounds.alpha": [(_up(0.0), 0.0), (_down(1.0), 1.0)],
    "bounds.window": [(1, 0)],
    "bounds.validation_fraction": [(_up(0.0), 0.0), (_down(1.0), 1.0)],
    "margins.margin_mult": [(0.0, _down(0.0))],
    "margins.step_margin_mult": [(0.0, _down(0.0))],
    "meta.rate": [(_up(0.0), 0.0)],
    "loss.scale": [(_up(0.0), 0.0)],
    "data.batch_size": [(2, 1)],
    "data.abstain_cost": [(_up(0.0), 0.0), (_down(1.0), 1.0)],
}


def test_check_edges_cover_every_checked_key():
    assert set(CHECK_EDGES) == {key.name for key in _SCHEMA if key.check is not None}


@pytest.mark.parametrize("name", sorted(CHECK_EDGES))
def test_each_check_rejects_the_first_value_past_its_edge(name):
    # RunConfig holds the only copy of each rule, for the library as for the CLI
    field = next(key.field for key in _SCHEMA if key.name == name)
    # data.batch_size is read only by a replay, so only a replay may set it;
    # and a fraction at either edge leaves an empty part of a simulated
    # batch, while a replay's batches are split-checked when they are read
    replay_only = name in ("data.batch_size", "bounds.validation_fraction")
    base = ({"scenario": ScenarioKind.INGESTED, "data_path": "in.csv"} if replay_only
            else {"scenario": ScenarioKind.IID_GOOD_MODELS})
    for accepted, rejected in CHECK_EDGES[name]:
        assert getattr(RunConfig(**base, **{field: accepted}), field) == accepted
        with pytest.raises(ConfigError, match=f"^{re.escape(name)}: {re.escape(repr(rejected))} is invalid"):
            RunConfig(**base, **{field: rejected})


@pytest.mark.parametrize("key", [k for k in _SCHEMA if k.type.name in ("int", "finite float")],
                         ids=lambda k: k.name)
@pytest.mark.parametrize("value", [True, False])
def test_bool_in_a_number_field_names_its_key(key, value):
    # a bool is an int to isinstance, but a manifest would write it as True
    # or False, which no int or float key parses back
    with pytest.raises(ConfigError, match=f"^{re.escape(key.name)}: {value!r} is invalid"):
        RunConfig(ScenarioKind.INGESTED, data_path="in.csv", **{key.field: value})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.fixed_dictionaries(
    {("run", "scenario"): KEY_VALUES[("run", "scenario")]},
    optional={k: v for k, v in KEY_VALUES.items() if k != ("run", "scenario")},
))
@example({("run", "scenario"): "iid_good_models"})
def test_any_valid_config_round_trips_through_its_manifest(tmp_path, values):
    assume(values[("run", "scenario")] != "ingested" or ("data", "path") in values)
    # a rotation needs two dimensions
    assume(values[("run", "scenario")] != "small_frequent_shifts" or values.get(("run", "dim")) != "1")
    # and a column cannot be both the timestamp and the label
    assume(values.get(("data", "timestamp_col"), "timestamp") != values.get(("data", "label_col"), "label"))
    # a simulated scenario rejects the keys only a replay reads
    assume(values[("run", "scenario")] == "ingested" or not any(
        ("data", key) in values for key in ("path", "timestamp_col", "label_col", "batch_by", "batch_size")
    ))
    # and a simulated batch must split at the validation fraction into two
    # nonempty parts
    size = int(values.get(("run", "batch_size"), 75))
    fraction = float(values.get(("bounds", "validation_fraction"), 0.5))
    assume(values[("run", "scenario")] == "ingested" or 0 < int(fraction * size) < size)
    cfg = load_config(write_config(tmp_path, ini(values)))
    manifest = tmp_path / "manifest.ini"
    save_manifest(cfg, manifest, ["note: test"])
    assert load_config(manifest) == cfg
    first = manifest.read_bytes()
    save_manifest(load_config(manifest), manifest, ["note: test"])
    assert manifest.read_bytes() == first


class TestRun:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        result = run(cfg)
        steps = result["steps"].read_bytes()
        summary = result["summary"].read_bytes()
        manifest = result["manifest"]

        # re-running from the manifest reproduces byte-identical CSVs
        rerun_cfg = load_config(manifest)
        import dataclasses
        rerun_cfg = dataclasses.replace(rerun_cfg, out=str(tmp_path / "out2"))
        result2 = run(rerun_cfg)
        assert result2["steps"].read_bytes() == steps
        assert result2["summary"].read_bytes() == summary

    def test_csv_row_count_and_summary_consistency(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        result = run(cfg)
        with open(result["steps"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == cfg.replicates * cfg.horizon

        # summary means equal the recomputed means from the per-step file
        by_t = {}
        for row in rows:
            by_t.setdefault(int(row["t"]), []).append(float(row["cum_avg_risk"]))
        with open(result["summary"]) as fh:
            for srow in csv.DictReader(fh):
                t = int(srow["t"])
                assert float(srow["mean_cum_risk"]) == pytest.approx(
                    np.mean(by_t[t]), abs=1e-12
                )

    def test_weight_columns_form_simplex(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        result = run(cfg)
        with open(result["steps"]) as fh:
            for row in csv.DictReader(fh):
                w = [float(row[f"w{j}"]) for j in range(3)]
                assert sum(w) == pytest.approx(1.0, abs=1e-9)


def _fmt(x) -> str:
    return repr(float(x))


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def reference_steps(traces, m) -> bytes:
    """steps.csv as ``csv.writer`` writes it, every float as ``repr(float(x))``."""
    rows = [["replicate", "t", "true_risk", "cum_avg_risk", "emp_risk", "abstain_prob",
             "meta_top", "abstain_cost", "meta_rate"]
            + [f"w{j}" for j in range(m)]
            + [f"strat{j}_cum_risk" for j in range(m)]
            + [f"strat{j}_abstain" for j in range(m)]]
    for tr in traces:
        cum = tr.cum_avg_true()
        scum = tr.strategy_cum_avg_true()
        for t in range(tr.horizon):
            rows.append(
                [tr.replicate, t + 1, _fmt(tr.true_risk[t]), _fmt(cum[t]), _fmt(tr.emp_risk[t]),
                 _fmt(tr.abstain_prob[t]), int(tr.meta_top[t]), _fmt(tr.abstain_cost),
                 _fmt(tr.meta_rate)]
                + [_fmt(v) for v in tr.meta_weights[t]]
                + [_fmt(v) for v in scum[t]]
                + [_fmt(v) for v in tr.strategy_abstain[t]]
            )
    return _csv_bytes(rows)


def reference_summary(traces) -> bytes:
    """summary.csv as ``csv.writer`` writes it, every float as ``repr(float(x))``."""
    cum_all = np.stack([tr.cum_avg_true() for tr in traces])
    abst_all = np.stack([tr.abstain_prob for tr in traces])
    n = len(traces)
    denom = math.sqrt(n) if n > 1 else 1.0
    rows = [["t", "mean_cum_risk", "stderr_cum_risk", "mean_abstain", "stderr_abstain"]]
    for t in range(traces[0].horizon):
        rows.append([
            t + 1,
            _fmt(cum_all[:, t].mean()),
            _fmt(cum_all[:, t].std(ddof=1) / denom if n > 1 else 0.0),
            _fmt(abst_all[:, t].mean()),
            _fmt(abst_all[:, t].std(ddof=1) / denom if n > 1 else 0.0),
        ])
    return _csv_bytes(rows)


class TestCsvBytes:
    """The run writes the bytes ``csv.writer`` would for the same cells."""

    def test_run_with_twelve_strategies(self, tmp_path):
        text = ("[run]\nscenario = iid_random_models\nhorizon = 6\nbatch_size = 40\n"
                "eval_size = 1500\nreplicates = 2\nseed = 31\n\n[meta]\nrate_mode = fixed\n")
        cfg = load_config(write_config(tmp_path, text))
        result = run(dataclasses.replace(cfg, out=str(tmp_path / "out")))
        assert len(cfg.rows) == 12
        assert result["steps"].read_bytes() == reference_steps(result["traces"], 12)
        assert result["summary"].read_bytes() == reference_summary(result["traces"])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), replicates=st.integers(1, 3), horizon=st.integers(1, 5),
           m=st.integers(1, 4))
    def test_any_trace(self, tmp_path, monkeypatch, data, replicates, horizon, m):
        import modelgate.cli as cli

        special = st.sampled_from([5e-324, 1e300, 0.1 + 0.2, 0.0, -0.0, 1.0, 3.0, 1e16, -2.5e-8])
        integral = st.integers(-10**6, 10**6).map(float)
        # summed and squared in summary.csv: kept clear of overflow
        small = st.one_of(special.filter(lambda x: abs(x) < 1e300), integral,
                          st.floats(-1e100, 1e100))
        wide = st.one_of(special, integral, st.floats(-1e300, 1e300))

        def column(cells, shape):
            return np.array(data.draw(st.lists(cells, min_size=int(np.prod(shape)),
                                               max_size=int(np.prod(shape))))).reshape(shape)

        traces = [
            ReplicateTrace(
                replicate=r, abstain_cost=data.draw(wide), meta_rate=data.draw(wide),
                true_risk=column(small, horizon), emp_risk=column(wide, horizon),
                abstain_prob=column(small, horizon), meta_weights=column(wide, (horizon, m)),
                meta_top=np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=horizon,
                                                     max_size=horizon))),
                strategy_true_risk=column(wide, (horizon, m)),
                strategy_abstain=column(wide, (horizon, m)),
                coeff_history=np.zeros((0, 2)), shift_times=(), model_coefs=np.zeros((3, 0)),
            )
            for r in range(replicates)
        ]
        # a chunk of one replicate runs through run_replicate, a longer one in lockstep
        monkeypatch.setattr(cli, "run_replicate", lambda cfg, r, **kw: traces[r])
        monkeypatch.setattr(cli, "run_replicates", lambda cfg, chunk, batches: [traces[r] for r in chunk])
        cfg = RunConfig(scenario=ScenarioKind.IID_GOOD_MODELS, horizon=horizon,
                        replicates=replicates, rows=GRID12[:m], out=str(tmp_path / "any"))
        result = run(cfg)
        assert result["steps"].read_bytes() == reference_steps(traces, m)
        assert result["summary"].read_bytes() == reference_summary(traces)


class TestBoundCurves:
    def test_classical_anchor_row(self):
        rows = bound_curves([0.15], rate_min=0.70, rate_max=0.70, points=1)
        _, rate, classical, ours = rows[0]
        assert rate == 0.70
        assert classical == pytest.approx(0.300, abs=0.005)
        assert ours <= classical

    def test_drift_aware_below_classical_everywhere(self):
        rows = bound_curves([0.15], rate_min=0.1, rate_max=3.0, points=30)
        for _, _, classical, ours in rows:
            assert ours <= classical + 1e-12

    def test_curves_rise_past_their_minima(self):
        rows = bound_curves([0.15], rate_min=0.1, rate_max=8.0, points=60)
        classical = [r[2] for r in rows]
        ours = [r[3] for r in rows]
        for series in (classical, ours):
            k = int(np.argmin(series))
            assert series[-1] > series[k]
            assert all(series[i] <= series[i + 1] + 1e-12 for i in range(k, len(series) - 1))


def toy_csv(tmp_path, rows, header="timestamp,x1,x2,label"):
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestIngest:
    def test_three_rows_batch_size_one(self, tmp_path):
        path = toy_csv(tmp_path, ["1,0.5,1.0,1", "2,0.25,-1.0,0", "3,0.1,0.2,1"])
        stream = ingest(path, "count", 1)
        assert len(stream.batches) == 3
        assert stream.sizes == (1, 1, 1)
        assert stream.feature_names == ("x1", "x2")
        # {0,1} labels mapped to signed form
        assert sorted({float(b.labels[0]) for b in stream.batches}) == [-1.0, 1.0]

    def test_monthly_batching_twelve_months(self, tmp_path):
        rows = [f"2021-{m:02d}-15,1.0,2.0,1" for m in range(1, 13) for _ in range(3)]
        stream = ingest(toy_csv(tmp_path, rows), "month")
        assert len(stream.batches) == 12
        assert stream.sizes == (3,) * 12

    def test_duplicate_timestamps_allowed(self, tmp_path):
        rows = ["2021-01-01,1,2,1", "2021-01-01,3,4,0", "2021-02-01,5,6,1"]
        stream = ingest(toy_csv(tmp_path, rows), "month")
        assert stream.sizes == (2, 1)

    def test_unsorted_rows_sorted_unless_strict(self, tmp_path):
        rows = ["3,1,2,1", "1,3,4,0", "2,5,6,1"]
        stream = ingest(toy_csv(tmp_path, rows), "count", 3)
        assert stream.batches[0].features[0, 0] == 3.0  # row with timestamp 1
        with pytest.raises(ConfigError, match="sorted"):
            ingest(toy_csv(tmp_path, rows), "count", 3, strict_sorted=True)

    def test_non_numeric_feature_rejected(self, tmp_path):
        path = toy_csv(tmp_path, ["1,oops,2,1"])
        with pytest.raises(ConfigError, match="non-numeric"):
            ingest(path)

    def test_non_finite_values_rejected(self, tmp_path):
        for rows, where in ((["1,inf,2,1"], ":2: non-finite value in column 'x1'"),
                            (["1,1,2,1", "2,1,2,nan"], ":3: non-finite value in column 'label'"),
                            (["nan,1,2,1"], "timestamp 'nan' is not finite")):
            with pytest.raises(ConfigError, match=where):
                ingest(toy_csv(tmp_path, rows))

    def test_missing_column_rejected(self, tmp_path):
        path = toy_csv(tmp_path, ["1,2,3"], header="timestamp,x1,x2")
        with pytest.raises(ConfigError, match="label"):
            ingest(path)

    def test_monthly_needs_dates(self, tmp_path):
        path = toy_csv(tmp_path, ["1,2,3,1"])
        with pytest.raises(ConfigError, match="date"):
            ingest(path, "month")


# (header, rows, the line reported, the message after it)
MALFORMED_CSV = {
    "repeated_column": ("timestamp,x0,x0,label", ["1,0.5,0.7,1", "2,0.3,0.1,0"],
                        1, "repeated column 'x0'"),
    "extra_cell": ("timestamp,x1,x2,label", ["1,0.5,1.0,1", "2,0.25,-1.0,0,9"],
                   3, "5 cells where the header has 4"),
    "missing_cell": ("timestamp,x1,x2,label", ["1,0.5,1.0,1", "2,0.25,0"],
                     3, "3 cells where the header has 4"),
    "nul_in_timestamp": ("timestamp,x1,x2,label", ["1,0.5,1.0,1", "2\x00,0.25,-1.0,0"],
                         3, "cannot parse timestamp '2\\x00'"),
    "line_after_a_blank_line": ("timestamp,x1,x2,label", ["1,0.5,1.0,1", "", "2,oops,1.0,0"],
                                4, "non-numeric value"),
}


class TestIngestRules:
    """What ``ingest`` accepts: distinct column names, one cell per column in
    every row, parseable timestamps; a byte-order mark and blank lines are
    skipped.  A broken rule names ``file:line``."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
    def test_malformed_file_names_its_line(self, tmp_path, capsys, case):
        header, rows, line, message = MALFORMED_CSV[case]
        path = toy_csv(tmp_path, rows, header=header)
        with pytest.raises(ConfigError, match=re.escape(f"{path}:{line}: {message}")):
            ingest(path)
        assert main(["ingest-check", str(path), "--batch-size", "2"]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out and captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {path}:{line}: ")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        rows = ["3,0.5,1.0,1", "1,0.25,-1.0,0", "2,0.1,0.2,1", "4,2.0,3.0,0"]
        plain = ingest(toy_csv(tmp_path, rows), "count", 2)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "data.csv").read_bytes())
        marked = ingest(path, "count", 2)
        assert marked.feature_names == plain.feature_names == ("x1", "x2")
        for a, b in zip(marked.batches, plain.batches, strict=True):
            assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)

    def test_columns_are_read_by_position(self, tmp_path):
        # the label and the timestamp may sit anywhere; features keep header order
        path = toy_csv(tmp_path, ["1,0.5,2,-1.0", "0,0.25,1,3.0"], header="label,b,timestamp,a")
        stream = ingest(path, "count", 2)
        assert stream.feature_names == ("b", "a")
        assert stream.batches[0].features.tolist() == [[0.25, 3.0], [0.5, -1.0]]
        assert stream.batches[0].labels.tolist() == [-1.0, 1.0]


class TestMainExitCodes:
    def test_run_success(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", str(config)]) == 0
        out = capsys.readouterr().out
        assert "steps.csv" in out

    def test_config_error_is_exit_2(self, tmp_path, capsys):
        bad = write_config(tmp_path, "[run]\nscenario = nope\n")
        assert main(["run", str(bad)]) == 2

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["run", "/nonexistent/config.ini"]) == 2

    @pytest.mark.parametrize("flags", [["--replicates", "0"], ["--seed", "-1"], ["--threads", "0"]],
                             ids=lambda f: f[0])
    def test_bad_override_is_exit_2(self, tmp_path, capsys, flags):
        config = write_config(tmp_path)
        assert main(["run", str(config), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: run.{flags[0][2:]}: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_cli_overrides(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out2 = tmp_path / "alt"
        assert main(["run", str(config), "--replicates", "1", "--out", str(out2)]) == 0
        with open(out2 / "steps.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 8  # 1 replicate x 8 steps

    def test_bounds_subcommand(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        assert main(["bounds", "--deltas", "0.15", "--points", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "abstain_cost,rate,classical_bound,drift_aware_bound"
        assert len(lines) == 6

    @pytest.mark.parametrize("flags", [
        ["--deltas", "nan"], ["--deltas", "0.1,1.5"], ["--deltas", "0"],
        ["--rate-max", "inf"], ["--rate-min", "-1"], ["--rate-min", "1e-17"],
        ["--points", "0"], ["--strategies", "0"], ["--horizon", "0"],
    ], ids=" ".join)
    def test_bad_bounds_flag_is_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "curves.csv"
        assert main(["bounds", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {flags[0]}: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == "" and not out.exists()

    def test_ingest_check_subcommand(self, tmp_path, capsys):
        path = toy_csv(tmp_path, ["1,0.5,1.0,1", "2,0.25,-1.0,0", "3,0.1,0.2,1", "4,0.3,0.4,0"])
        assert main(["ingest-check", str(path), "--batch-size", "2"]) == 0
        assert "2 batches" in capsys.readouterr().out

    @pytest.mark.parametrize("size", ["0", "1"])
    def test_bad_ingest_check_batch_size_is_exit_2(self, tmp_path, capsys, size):
        path = toy_csv(tmp_path, ["1,0.5,1.0,1", "2,0.25,-1.0,0", "3,0.1,0.2,1", "4,0.3,0.4,0"])
        assert main(["ingest-check", str(path), "--batch-size", size]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --batch-size: ")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    def test_ingest_check_bad_file_is_exit_2(self, tmp_path, capsys):
        path = toy_csv(tmp_path, ["1,oops,1,1"])
        assert main(["ingest-check", str(path)]) == 2
        capsys.readouterr()
        # a column named as both the timestamp and the label
        path = toy_csv(tmp_path, ["1,0.5,1.0,1", "2,0.25,-1.0,0"])
        assert main(["ingest-check", str(path), "--label-col", "timestamp", "--batch-size", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            "config error: data.label_col: 'timestamp' is also data.timestamp_col; the two must differ"
        ]

    def test_ingest_check_defaults_are_the_run_defaults(self, tmp_path, capsys, monkeypatch):
        import modelgate.cli as cli

        calls = []
        real = cli.ingest
        monkeypatch.setattr(cli, "ingest", lambda *a, **k: calls.append(a) or real(*a, **k))
        path = toy_csv(tmp_path, ["1,0.5,1.0,1", "2,0.25,-1.0,0"])
        assert main(["ingest-check", str(path)]) == 0
        cfg = RunConfig(ScenarioKind.INGESTED, data_path=str(path))
        assert calls == [(str(path), cfg.batch_by, cfg.data_batch_size, cfg.timestamp_col, cfg.label_col)]
        with pytest.raises(SystemExit):
            main(["ingest-check", str(path), "--batch-by", "week"])
        assert "choose from 'count', 'month'" in capsys.readouterr().err


def replay_csv(tmp_path, rows, bad_row=None, label=lambda y: y):
    """``rows`` rows of a 3-feature stream; ``bad_row`` gets a nan feature."""
    rng = np.random.default_rng(1)
    lines = []
    for i in range(rows):
        x = rng.standard_normal(3)
        y = 1 if rng.random() < 0.5 + 0.4 * np.tanh(x[0]) else 0
        a = "nan" if i == bad_row else f"{x[0]:.5f}"
        lines.append(f"{i + 1},{a},{x[1]:.5f},{x[2]:.5f},{label(y)}")
    return toy_csv(tmp_path, lines, header="timestamp,a,b,c,label")


def replay_config(tmp_path, data):
    return write_config(tmp_path, f"""\
[run]
scenario = ingested
replicates = 2
out = {tmp_path / 'rout'}

[strategies]
rows = 0,0,0 / 0.5,10000,0 / 0.3,0,1.5

[meta]
rate_mode = fixed

[data]
path = {data}
batch_size = 75
""", name="replay.ini")


def replay_case(rows, bad_row=None, label=lambda y: y):
    return lambda tmp_path: replay_config(tmp_path, replay_csv(tmp_path, rows, bad_row, label))


def label_col_is_timestamp_col(tmp_path):
    path = replay_config(tmp_path, replay_csv(tmp_path, 300))
    path.write_text(path.read_text() + "label_col = timestamp\n")  # into [data]
    return path


def simulated_with_data_path(tmp_path):
    return write_config(tmp_path, f"""\
[run]
scenario = iid_good_models
replicates = 1
out = {tmp_path / 'rout'}

[data]
path = {tmp_path / 'missing.csv'}
batch_by = month
""")


def simulated_batch_of_one(tmp_path):
    return write_config(tmp_path, f"""\
[run]
scenario = iid_good_models
horizon = 3
batch_size = 1
eval_size = 500
replicates = 1
out = {tmp_path / 'rout'}

[meta]
rate_mode = fixed
""")


class TestMalformedReplay:
    @pytest.mark.parametrize("make_config, expect", [
        (replay_case(301), "batch 4 (1 rows)"),          # 1-row tail batch
        (replay_case(300, bad_row=10), ":12: non-finite value in column 'a'"),
        (replay_case(300, label=lambda y: 0.25 + 0.5 * y), "labels in {-1, +1}"),  # real-valued labels
        (replay_case(75), "at least two batches"),
        (simulated_batch_of_one, "run.batch_size: 1 is invalid"),  # no batch splits
        (label_col_is_timestamp_col, "data.label_col: 'timestamp' is also data.timestamp_col"),
        (simulated_with_data_path, "data.path: set for scenario iid_good_models"),
    ], ids=["tail_too_small_to_split", "nan_feature", "real_labels_with_hinge", "one_batch",
            "simulated_batch_of_one", "label_col_is_timestamp_col", "simulated_with_data_path"])
    def test_run_exits_2_with_one_line(self, tmp_path, capsys, make_config, expect):
        config = make_config(tmp_path)
        assert main(["run", str(config)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        assert len(captured.err.strip().splitlines()) == 1
        assert expect in captured.err
        assert not (tmp_path / "rout").exists()  # rejected before any replicate ran

    def test_ingest_check_rejects_unsplittable_batch(self, tmp_path, capsys):
        # 301 rows by 75 leave a 1-row tail that no validation fraction splits
        path = replay_csv(tmp_path, 301)
        assert main(["ingest-check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert f"{path}: batch 4 (1 rows)" in captured.err

    @pytest.mark.parametrize("label, shown, kinds", [
        (lambda i: i % 3, "0, 1, 2", "scaled_absolute"),
        (lambda i: i % 2, "-1, 1", "clipped_hinge, zero_one, scaled_absolute"),  # replayed as {-1, +1}
        (lambda i: 2 * (i % 2) - 1, "-1, 1", "clipped_hinge, zero_one, scaled_absolute"),
        (lambda i: i / 100, "300 distinct values in [0, 2.99]", "scaled_absolute"),
    ], ids=["0_1_2", "0_1", "-1_1", "300_values"])
    def test_ingest_check_names_the_loss_kinds_its_labels_fit(self, tmp_path, capsys, label, shown, kinds):
        lines = [f"{i + 1},{math.sin(i):.5f},{label(i):g}" for i in range(300)]
        assert main(["ingest-check", str(toy_csv(tmp_path, lines, header="timestamp,a,label"))]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith(f"labels: {shown}\nloss kinds accepting them: {kinds}\n")

    def test_ingest_check_rejects_nan(self, tmp_path, capsys):
        path = replay_csv(tmp_path, 300, bad_row=3)
        assert main(["ingest-check", str(path)]) == 2
        assert f"{path}:5:" in capsys.readouterr().err

    def test_csv_parsed_once_per_run(self, tmp_path, monkeypatch):
        import modelgate.cli as cli

        calls = []
        real = cli.ingest
        monkeypatch.setattr(cli, "ingest", lambda *a, **k: calls.append(a) or real(*a, **k))
        cfg = load_config(replay_config(tmp_path, replay_csv(tmp_path, 300)))
        run(cfg)
        assert cfg.replicates == 2 and len(calls) == 1


class TestUndecodableInput:
    """A file that is not UTF-8 is a config error naming the file, not a traceback."""

    def config_with_latin1(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(SMALL_CONFIG.format(out=tmp_path / "out").encode() + b"# caf\xe9\n")
        return path

    def csv_with_ff(self, tmp_path):
        path = replay_csv(tmp_path, 300)
        path.write_bytes(path.read_bytes().replace(b"\n5,", b"\n5,\xff", 1))
        return path

    def assert_one_line(self, capsys, path):
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: cannot read")
        assert str(path) in lines[0]

    def test_run_on_a_latin1_config(self, tmp_path, capsys):
        path = self.config_with_latin1(tmp_path)
        assert main(["run", str(path)]) == 2
        self.assert_one_line(capsys, path)
        assert not (tmp_path / "out").exists()

    def test_ingest_check_on_byte_ff(self, tmp_path, capsys):
        path = self.csv_with_ff(tmp_path)
        assert main(["ingest-check", str(path)]) == 2
        self.assert_one_line(capsys, path)

    def test_run_replaying_byte_ff(self, tmp_path, capsys):
        data = self.csv_with_ff(tmp_path)
        assert main(["run", str(replay_config(tmp_path, data))]) == 2
        self.assert_one_line(capsys, data)
        assert not (tmp_path / "rout").exists()


class TestIngestedRun:
    def test_ingested_scenario_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        ts = 0
        for _ in range(6 * 30):
            ts += 1
            x = rng.standard_normal(3)
            y = 1 if rng.random() < 0.5 + 0.4 * np.tanh(x[0]) else 0
            rows.append(f"{ts},{x[0]:.5f},{x[1]:.5f},{x[2]:.5f},{y}")
        data = toy_csv(tmp_path, rows, header="timestamp,a,b,c,label")
        config = write_config(
            tmp_path,
            f"""\
[run]
scenario = ingested
replicates = 1
seed = 3
out = {tmp_path / 'iout'}

[strategies]
rows = 0,0,0 / 0.5,10000,0 / 0.3,0,1.5

[meta]
rate_mode = fixed
rate = 1.5

[data]
path = {data}
batch_by = count
batch_size = 30
""",
            name="ingested.ini",
        )
        cfg = load_config(config)
        result = run(cfg)
        trace = result["traces"][0]
        assert trace.horizon == 5  # 6 batches: one initial + 5 monitoring
        assert np.all(trace.true_risk == trace.emp_risk)
        assert 0.0 < trace.abstain_cost < 1.0


class TestProcessIsolation:
    def test_two_processes_produce_identical_outputs(self, tmp_path):
        import subprocess
        import sys

        config = write_config(tmp_path)
        outs = []
        # the module and the package entry point run the same command line
        for sub, module in (("p1", "modelgate.cli"), ("p2", "modelgate")):
            out_dir = tmp_path / sub
            proc = subprocess.run(
                [sys.executable, "-m", module, "run", str(config), "--out", str(out_dir)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0
            assert "RuntimeWarning" not in proc.stderr
            outs.append((out_dir / "steps.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_serial_run_loads_no_process_pool(self, tmp_path):
        import subprocess
        import sys

        config = write_config(tmp_path)
        script = (
            "import sys, dataclasses\n"
            "import modelgate.cli as cli\n"
            "cfg = cli.load_config(sys.argv[1])\n"
            "cli.run(dataclasses.replace(cfg, threads=1, out=sys.argv[2]))\n"
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(config), str(tmp_path / "serial")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "serial" / "steps.csv").is_file()
        assert proc.stdout.strip() == "[]"

    def test_pool_has_at_most_one_worker_per_replicate(self, tmp_path, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool:  # stands in for the process pool: records its size, runs in-process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # run imports the pool from here, and only when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = load_config(write_config(tmp_path))
        run(dataclasses.replace(cfg, threads=64))
        run(dataclasses.replace(cfg, threads=64, replicates=1))
        assert cfg.replicates == 2 and sizes == [2]

    def test_solved_rate_replay_matches_on_two_workers(self, tmp_path):
        # a fixed abstain cost gives every replicate of a replay the same rate
        # inputs: the serial run solves once, the workers each solve again
        from modelgate.meta import max_learning_rate

        cfg = dataclasses.replace(load_config(replay_config(tmp_path, replay_csv(tmp_path, 3825))),
                                  rate_mode="solve", abstain_cost=0.3)
        max_learning_rate.cache_clear()
        serial = run(dataclasses.replace(cfg, out=str(tmp_path / "serial"), threads=1))
        info = max_learning_rate.cache_info()
        assert (info.misses, info.hits) == (1, cfg.replicates - 1)
        pooled = run(dataclasses.replace(cfg, out=str(tmp_path / "pooled"), threads=2))
        assert serial["meta_rates"] == pooled["meta_rates"] != [cfg.rate] * cfg.replicates
        assert serial["steps"].read_bytes() == pooled["steps"].read_bytes()

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("replicates", [2, 3])
    def test_worker_pool_matches_serial(self, tmp_path, replicates, workers):
        # each worker steps a contiguous chunk of replicates in lockstep; three
        # replicates on two workers split unevenly, into chunks of one and two
        cfg = dataclasses.replace(load_config(write_config(tmp_path)), replicates=replicates)
        serial = run(dataclasses.replace(cfg, out=str(tmp_path / "serial"), threads=1))
        pooled = run(dataclasses.replace(cfg, out=str(tmp_path / "pooled"), threads=workers))
        assert [tr.replicate for tr in pooled["traces"]] == list(range(replicates))
        assert serial["steps"].read_bytes() == pooled["steps"].read_bytes()
        assert serial["summary"].read_bytes() == pooled["summary"].read_bytes()
