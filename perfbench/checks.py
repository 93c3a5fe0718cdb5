"""Output checks on a ``steps.csv`` written by ``modelgate.cli.run``.

A replicate fails when any of its rows breaks a check; a file whose shape is
wrong fails every replicate it should hold.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

WEIGHT_SUM_TOL = 1e-9


def sha256(paths) -> str:
    """One digest over the bytes of several files, in the order given."""
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def check_steps(path: Path, replicates: int, horizon: int, strategies: int):
    """Check one ``steps.csv``; returns (failed replicate ids, messages).

    - replicates x horizon rows, steps 1..horizon per replicate, all finite;
    - the meta weights ``w*`` sum to 1 within 1e-9;
    - every probability column lies in [0, 1];
    - the fail-safe strategy 0 always abstains, and its cumulative risk is
      the running mean of a series that equals the abstain cost exactly at
      every step (the per-step fail-safe risk property).
    """
    everyone = set(range(replicates))
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return everyone, [f"cannot read {path}: {exc}"]
    if not rows:
        return everyone, [f"{path} is empty"]
    header, body = rows[0], rows[1:]
    m = strategies
    expected = (
        ["replicate", "t", "true_risk", "cum_avg_risk", "emp_risk", "abstain_prob",
         "meta_top", "abstain_cost", "meta_rate"]
        + [f"w{j}" for j in range(m)]
        + [f"strat{j}_cum_risk" for j in range(m)]
        + [f"strat{j}_abstain" for j in range(m)]
    )
    if header != expected:
        return everyone, [f"{path}: unexpected header"]
    if len(body) != replicates * horizon:
        return everyone, [f"{path}: {len(body)} rows, expected {replicates * horizon}"]

    col = {name: k for k, name in enumerate(header)}
    weights = slice(col["w0"], col["w0"] + m)
    probs = [col["abstain_prob"]] + list(range(weights.start, weights.stop)) + [
        col[f"strat{j}_abstain"] for j in range(m)
    ]
    failed, messages = set(), []

    def fail(rep, why):
        failed.add(rep)
        messages.append(f"{path} replicate {rep}: {why}")

    fail_safe_sum = {}
    for k, row in enumerate(body):
        rep_expected, t_expected = divmod(k, horizon)
        try:
            values = [float(v) for v in row]
        except ValueError:
            fail(rep_expected, f"row {k + 2} is not numeric")
            continue
        rep, t = int(values[0]), int(values[1])
        if rep != rep_expected or t != t_expected + 1:
            fail(rep_expected, f"row {k + 2} is replicate {rep} step {t}")
            continue
        if not all(math.isfinite(v) for v in values):
            fail(rep, f"step {t} has a non-finite value")
            continue
        if abs(sum(values[weights]) - 1.0) > WEIGHT_SUM_TOL:
            fail(rep, f"step {t} meta weights sum to {sum(values[weights])!r}")
        if any(not 0.0 <= values[c] <= 1.0 for c in probs):
            fail(rep, f"step {t} has a probability outside [0, 1]")
        cost = values[col["abstain_cost"]]
        running = fail_safe_sum.get(rep, 0.0) + cost
        fail_safe_sum[rep] = running
        if values[col["strat0_abstain"]] != 1.0 or values[col["strat0_cum_risk"]] != running / t:
            fail(rep, f"step {t} fail-safe strategy is not exactly the abstain cost")
    return failed, messages


def quality(path: Path, horizon: int):
    """Per replicate: (final cumulative risk / abstain cost); plus all abstain probs."""
    ratios, abstain = [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            abstain.append(float(row["abstain_prob"]))
            if int(row["t"]) == horizon:
                ratios.append(float(row["cum_avg_risk"]) / float(row["abstain_cost"]))
    return ratios, abstain
