#!/usr/bin/env python3
"""modelgate benchmark: gate decisions per second, set-up, memory and quality.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed makes every input: the configs'
``run.seed`` and, for ``ingested_replay``, the replay CSV.  The workload
runs single-process in a fresh interpreter with the BLAS pool pinned to
``BLAS_THREADS`` before numpy loads, through ``modelgate.cli.load_config``
and ``modelgate.cli.run``.  It repeats whole passes over its configs for
about ``--seconds`` and checks every pass's ``steps.csv``; all passes must
write the same bytes.

Workloads (why each was chosen is in BENCHMARK.json):

- ``production``: the four simulated scenarios at production defaults
  (T = 50, batch 75, eval_size 100k, grid12, rate_mode solve), one
  replicate each per pass.
- ``long_horizon``: iid_random_models, T = 200, 96 strategies, eval_size
  2000, one replicate per pass.
- ``ingested_replay``: a seeded 51 x 75-row drifting CSV replayed with
  scenario ``ingested``, four replicates per pass.

``--trace 0`` prints the end-to-end metrics: ``decisions_per_s`` (median
over passes of replicates x steps / wall time of the ``cli.run`` calls),
``setup_s`` (median over fresh interpreters of launch to ready: import
modelgate, load every config, its one lazy cache), ``peak_rss_mb``,
``failed_share`` and ``passed_share``, ``risk_ratio`` (mean final
cumulative true risk / abstain cost) and ``abstain_share`` (mean deployed
abstention probability).  The summary line carries only those BENCHMARK.json
lists.  ``peak_rss_mb`` and ``abstain_share`` are left out of it because they
spread too far across seeds for a regression bound: peak memory on
production is about 105 or 120 MiB depending on whether the adaptive
adversary shifts in the last steps, and abstention varies several-fold.
``failed_share`` is 0 at a working commit, so ``passed_share`` stands in.

``--trace 1`` runs pass 0
untraced, then traced passes, and prints the per-layer metrics: self
seconds per pass of each layer (median over traced passes), work counts of
one pass, and the tracing overhead.  Layer self time is a span's duration
minus its child spans; ``core`` functions are counted, not timed, so their
time stays with the layer that called them.  Which end-to-end metric each
layer should move:

- ``sim.eval_s`` (run_replicate self time: eval sampling, candidate
  scoring, deployed risk) and ``sim.eval_rows``: ``decisions_per_s`` and
  ``peak_rss_mb`` on production; near zero on ingested_replay;
- ``sim.refit_s`` and ``sim.refit_row_iters``: ingested_replay, then
  production;
- ``sim.shift_s`` (report only: it is zero on ingested_replay) and
  ``sim.shifts``: production only;
- ``bounds.table_s`` and ``bounds.rescored_rows``: long_horizon and
  ingested_replay;
- ``strategy.*`` and ``meta.advance_s`` / ``meta.combine_s``:
  long_horizon;
- ``meta.solver_s`` and ``meta.bound_evals``: ingested_replay and
  production;
- ``cli.config_s``: ``setup_s``; ``cli.ingest_s`` (report only: zero on
  the simulated workloads) and ``cli.ingest_rows``: ingested_replay only.

Results go to ``perfbench/out/<workload>-seed<N>-trace<T>/result.json``;
the last line of standard output is the JSON summary.  Harness options for
the self-test (``selftest.py``): ``--tiny`` shrinks every size, and
``--corrupt-steps`` alters pass 0's ``steps.csv`` before it is checked.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_SAMPLES = 9  # fresh interpreters timed per run; setup_s is their median
DEADLINE_S = 170.0
PRODUCTION_FIXTURE_DECISIONS = 60 * 50  # 4 scenarios x 15 replicates x 50 steps

sys.path.insert(0, str(BENCH))
from tracer import growth_exponent, module_seconds  # noqa: E402
from workloads import NAMES, write_inputs  # noqa: E402


def git_commit(root: Path):
    """HEAD's commit read from ``.git``, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def start_worker(spec: Path, env: dict, *extra: str):
    """Start a worker and time it from launch to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(spec), *extra],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    return proc, setup


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-steps", action="store_true", dest="corrupt")
    args = ap.parse_args(argv)

    if not (SRC / "modelgate" / "__init__.py").is_file():
        print(f"error: no modelgate sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    began = time.perf_counter()

    work = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = write_inputs(args.workload, args.seed, work, args.tiny)
    spec = work / "spec.json"
    spec.write_text(json.dumps({
        "jobs": jobs, "seconds": args.seconds, "trace": bool(args.trace),
        "corrupt": args.corrupt,
    }, indent=1))
    env = child_env()

    setups = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            probe, seconds = start_worker(spec, env, "--setup-only")
            probe.communicate()
            setups.append(seconds)
        worker, seconds = start_worker(spec, env)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(seconds)
    try:
        worker.communicate(timeout=max(DEADLINE_S - (time.perf_counter() - began), 1.0))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        print(f"error: the workload exited with code {worker.returncode}", file=sys.stderr)
        return 1
    report = json.loads((work / "worker.json").read_text())
    passes = report["passes"]
    if report["risk_ratio"] is None:
        print("error: no replicate ran: " + "; ".join(passes[0]["messages"][:4]), file=sys.stderr)
        return 1

    # every complete pass must write the same bytes; one that does not fails all
    # its replicates (a pass where a replicate raised has no digest)
    reference = next((p["digest"] for p in passes if p["digest"]), None)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] if p["digest"] in (None, reference) else p["attempted"]
                 for p in passes)
    untraced = [p["decisions_per_s"] for p in passes if not p["traced"]]
    traced = [p["decisions_per_s"] for p in passes if p["traced"]]
    env_record = dict(report["env"], commit=git_commit(ROOT))

    e2e = {
        "decisions_per_s": (median(untraced), "1/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MiB"),
        "passed_share": ((attempted - failed) / attempted, "ratio"),
        "failed_share": (failed / attempted, "ratio"),
        "risk_ratio": (report["risk_ratio"], "ratio"),
        "abstain_share": (report["abstain_share"], "ratio"),
    }
    lines = [
        f"modelgate benchmark: workload {args.workload}, seed {args.seed}, "
        f"trace {args.trace}{', tiny' if args.tiny else ''}",
        "env: " + ", ".join(f"{k} {v}" for k, v in env_record.items()),
        f"passes: {len(passes)} ({sum(p['traced'] for p in passes)} traced), "
        f"{passes[0]['decisions']} decisions and {passes[0]['attempted']} replicates each, "
        f"{sum(p['wall_s'] for p in passes):.1f} s measured",
        f"setup samples (s): {' '.join(f'{s:.4f}' for s in setups)}",
    ]
    lines += [f"{name:<16}{value:.6g} {unit}" for name, (value, unit) in e2e.items()]
    lines.append(f"steps.csv sha256 (all passes): {reference}")
    if args.workload == "production":
        fixture = PRODUCTION_FIXTURE_DECISIONS / e2e["decisions_per_s"][0]
        lines.append(f"derived: acceptance fixture ~ 60 x 50 / decisions_per_s = {fixture:.1f} s")
    for p in passes:
        lines += [f"check failed: {m}" for m in p["messages"][:10]]

    metrics = {}
    if args.trace:
        trace = report["trace"]
        layers = {name: median([lp[name] for lp in trace["layers_per_pass"]])
                  for name in trace["layers_per_pass"][0]}
        overhead = median(traced) - median(untraced)
        lines.append("per-layer self time per pass (median of traced passes):")
        total = sum(layers.values())
        for name, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name + '_s':<22}{seconds:10.4f} s  {100 * seconds / total:5.1f}%")
        lines.append("per-module self time per pass (core is counted, not timed):")
        lines += [f"  {name:<22}{s:10.4f} s" for name, s in module_seconds(layers).items()]
        lines.append("work counts per pass:")
        lines += [f"  {name:<24}{n}" for name, n in trace["counts"].items()]
        lines.append(f"tracing overhead: traced - untraced decisions_per_s = {overhead:.4f} 1/s "
                     f"({100 * overhead / median(untraced):.2f}%)")
        lines.append("self seconds per replicate by step t (growth exponent over the 2nd half):")
        for layer, series in trace["growth"].items():
            series = {int(t): s for t, s in series.items()}
            marks = [t for t in sorted(series) if t in (1, 2, 5) or t % max(len(series) // 8, 1) == 0]
            cells = " ".join(f"t{t}={1e3 * series[t]:.3f}ms" for t in marks)
            lines.append(f"  {layer:<18}k={growth_exponent(series):5.2f}  {cells}")
        lines.append("traced and untraced steps.csv digests "
                     + ("match" if len({p["digest"] for p in passes}) == 1 else "DIFFER"))
        metrics = {f"{name}_s": {"value": s, "unit": "s"} for name, s in layers.items()}
        metrics.update({name: {"value": n, "unit": "count"} for name, n in trace["counts"].items()})
        metrics["trace.overhead_decisions_per_s"] = {"value": overhead, "unit": "1/s"}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}

    wanted = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    metrics = {name: metrics[name] for name in wanted}
    correct = failed == 0
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env_record,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "setup_samples_s": setups, "passes": passes, "summary": summary,
        "trace_report": report.get("trace"),
    }, indent=1))
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
