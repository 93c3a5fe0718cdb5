"""Workload inputs: INI configs and the synthetic replay CSV, made from a seed.

Pure Python on purpose: the parent process writes every input before any
process imports numpy, so BLAS is pinned before it loads.
"""

from __future__ import annotations

import math
import random
from datetime import datetime, timedelta
from pathlib import Path

SCENARIOS = ("adaptive_shifts", "small_frequent_shifts", "iid_good_models", "iid_random_models")

#: modelgate's ``grid12`` preset, spelled out so a config can extend it; the
#: worker checks it still equals ``modelgate.sim.GRID12``.
GRID12 = (
    (0.0, 0.0, 0.0), (0.0, 0.0, 0.99), (0.5, 10000.0, 0.0),
    (0.3, 0.0, 10.0), (0.3, 10.0, 10.0), (0.3, 100.0, 10.0),
    (0.5, 0.0, 10.0), (0.5, 10.0, 10.0), (0.5, 100.0, 10.0),
    (0.8, 0.0, 10.0), (0.8, 10.0, 10.0), (0.8, 100.0, 10.0),
)

#: 84 more (approve_prob, optimism, learn_rate) rows: 96 strategies in all.
SWEEP = tuple(
    (a, o, l)
    for a in (0.1, 0.2, 0.4, 0.6, 0.7, 0.9, 0.95)
    for o in (0.0, 1.0, 10.0, 100.0)
    for l in (1.0, 3.0, 30.0)
)

# replay stream: 51 batches of 75 rows (a 50-step horizon), 10 features
REPLAY_BATCHES = 51
REPLAY_BATCH_SIZE = 75
REPLAY_DIM = 10
# A set abstention cost, near the median first-model risk across seeds.  The
# default estimates it from batch 1's 75 rows (0.26-0.41 across seeds), and
# that sampling noise, not the gate, would dominate risk_ratio's spread.
REPLAY_ABSTAIN_COST = 0.35

NAMES = ("production", "long_horizon", "ingested_replay")


def _ini(run: dict, sections: dict | None = None) -> str:
    lines = ["[run]"] + [f"{k} = {v}" for k, v in run.items()]
    for name, keys in (sections or {}).items():
        lines += ["", f"[{name}]"] + [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def write_replay_csv(path: Path, seed: int, batches: int) -> None:
    """A timestamped stream whose logistic label law rotates steadily.

    Features are standard normal; the coefficient vector turns through a
    quarter circle over the stream, so older batches describe a different
    law than newer ones.
    """
    rng = random.Random(seed)
    u = [rng.gauss(0.0, 1.0) for _ in range(REPLAY_DIM)]
    v = [rng.gauss(0.0, 1.0) for _ in range(REPLAY_DIM)]
    nu = math.sqrt(sum(a * a for a in u))
    u = [a / nu for a in u]
    dot = sum(a * b for a, b in zip(u, v))
    v = [b - dot * a for a, b in zip(u, v)]
    nv = math.sqrt(sum(b * b for b in v))
    v = [b / nv for b in v]
    scale = 3.0
    rows = batches * REPLAY_BATCH_SIZE
    start = datetime(2024, 1, 1)
    out = ["timestamp," + ",".join(f"x{k}" for k in range(REPLAY_DIM)) + ",label"]
    for i in range(rows):
        angle = 0.5 * math.pi * i / rows
        beta = [scale * (math.cos(angle) * a + math.sin(angle) * b) for a, b in zip(u, v)]
        x = [rng.gauss(0.0, 1.0) for _ in range(REPLAY_DIM)]
        margin = sum(a * b for a, b in zip(beta, x))
        label = 1 if rng.random() < 1.0 / (1.0 + math.exp(-margin)) else 0
        stamp = (start + timedelta(minutes=20 * i)).isoformat()
        out.append(stamp + "," + ",".join(f"{a:.6f}" for a in x) + f",{label}")
    path.write_text("\n".join(out) + "\n")


def write_inputs(name: str, seed: int, work: Path, tiny: bool) -> list[dict]:
    """Write one workload's configs into ``work``; one dict per config.

    Each dict holds the config path, its replicate count and horizon, and
    the strategy count, which is what the output checks need.  ``tiny``
    shrinks every size for the harness self-test.
    """
    horizon, eval_size = (5, 500) if tiny else (50, 100_000)
    # no learning rate is certifiable over a 5-step horizon
    rate = {"meta": {"rate_mode": "fixed"}} if tiny else {}
    jobs = []
    if name == "production":
        for scenario in SCENARIOS:
            jobs.append((scenario, _ini({
                "scenario": scenario, "horizon": horizon, "eval_size": eval_size,
                "replicates": 1, "seed": seed, "threads": 1,
            }, rate), 1, horizon, len(GRID12)))
    elif name == "long_horizon":
        rows = GRID12 + SWEEP
        long_t = 5 if tiny else 200
        text = " / ".join(",".join(repr(v) for v in row) for row in rows)
        jobs.append(("iid_random_models", _ini(
            {"scenario": "iid_random_models", "horizon": long_t,
             "eval_size": 500 if tiny else 2000, "replicates": 1, "seed": seed, "threads": 1},
            {"strategies": {"rows": text}, **rate},
        ), 1, long_t, len(rows)))
    elif name == "ingested_replay":
        batches = 6 if tiny else REPLAY_BATCHES
        replicates = 2 if tiny else 4
        data = work / "replay.csv"
        write_replay_csv(data, seed, batches)
        jobs.append(("ingested", _ini(
            {"scenario": "ingested", "replicates": replicates, "seed": seed, "threads": 1},
            {"data": {"path": data.resolve(), "batch_by": "count",
                      "batch_size": REPLAY_BATCH_SIZE, "abstain_cost": REPLAY_ABSTAIN_COST},
             **rate},
        ), replicates, batches - 1, len(GRID12)))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

    out = []
    for scenario, text, replicates, steps, strategies in jobs:
        path = work / f"{scenario}.ini"
        path.write_text(text)
        out.append({"config": str(path), "scenario": scenario, "replicates": replicates,
                    "horizon": steps, "strategies": strategies})
    return out
