"""One workload in a fresh interpreter: set up, run timed passes, check them.

Started by ``run.py`` with BLAS already pinned in its environment.  Prints
``ready`` once set-up is done (import modelgate, load every config), then
runs passes: each pass calls ``modelgate.cli.run`` once per config.  All
passes of one invocation must write the same ``steps.csv`` bytes.  With
tracing on, pass 0 runs untraced as the reference and later passes traced.
Writes ``worker.json`` (and ``spans.csv`` when traced) into the work dir.

    python3 perfbench/worker.py SPEC.json [--setup-only]
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import tracer as tracing
from checks import check_steps, quality, sha256
from workloads import GRID12


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def run_pass(cli, spec, configs, k: int, work: Path, tracer) -> dict:
    """Run every config once; time only the ``cli.run`` calls."""
    out = work / f"pass{k}"
    wall, failed, messages, steps = 0.0, 0, [], []
    for job, cfg in zip(spec["jobs"], configs):
        cfg = replace(cfg, out=str(out / job["scenario"]))
        start = time.perf_counter()
        try:
            if tracer is None:
                cli.run(cfg)
            else:
                result = tracer.call("cli.run", cli.run, cfg)
                tracer.counts["sim.shifts"] += sum(len(tr.shift_times) for tr in result["traces"])
        except Exception as exc:  # a replicate that raised counts as failed
            wall += time.perf_counter() - start
            failed += job["replicates"]
            messages.append(f"{job['scenario']}: {type(exc).__name__}: {exc}")
            steps.append(None)
            continue
        wall += time.perf_counter() - start
        path = Path(cfg.out) / "steps.csv"
        if k == 0 and spec["corrupt"]:
            text = path.read_text().splitlines()
            cells = text[1].split(",")
            cells[9] = repr(float(cells[9]) + 1e-6)  # w0 of the first row
            text[1] = ",".join(cells)
            path.write_text("\n".join(text) + "\n")
        bad, why = check_steps(path, job["replicates"], job["horizon"], job["strategies"])
        failed += len(bad)
        messages += why
        steps.append(path)
        if tracer is not None:
            tracer.counts["cli.bytes_written"] += sum(
                f.stat().st_size for f in Path(cfg.out).iterdir()
            )
    attempted = sum(job["replicates"] for job in spec["jobs"])
    decisions = sum(job["replicates"] * job["horizon"] for job in spec["jobs"])
    return {
        "traced": tracer is not None,
        "wall_s": wall,
        "decisions": decisions,
        "decisions_per_s": decisions / wall,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "messages": messages,
        "digest": None if None in steps else sha256(steps),
        "steps": [p and str(p) for p in steps],
    }


def main(argv) -> int:
    spec_path = Path(argv[0])
    spec = json.loads(spec_path.read_text())
    import modelgate  # set-up starts here, after BLAS was pinned
    from modelgate import cli

    configs = [cli.load_config(job["config"]) for job in spec["jobs"]]
    for cfg in configs:  # the one lazily cached quantity of a replicate
        modelgate.sim.solve_signal_scale(cfg.bayes_risk)
    print("ready", flush=True)
    if "--setup-only" in argv[1:]:
        return 0

    work = spec_path.parent
    for job, cfg in zip(spec["jobs"], configs):
        if job["strategies"] > len(GRID12) and cfg.rows[: len(GRID12)] != modelgate.sim.GRID12:
            raise SystemExit("perfbench GRID12 no longer matches modelgate.sim.GRID12")

    tracer = None
    passes = []
    started = time.perf_counter()
    while True:
        k = len(passes)
        if spec["trace"] and k == 1:
            tracer = tracing.Tracer().install()
            for job in spec["jobs"]:  # set-up's config parsing, as its own span
                tracer.call("cli.load_config", cli.load_config, job["config"])
        counts_before = dict(tracer.counts) if tracer else {}
        spans_before = len(tracer.spans) if tracer else 0
        result = run_pass(cli, spec, configs, k, work, tracer)
        if tracer is not None:
            result["counts"] = {
                name: tracer.counts.get(name, 0) - counts_before.get(name, 0)
                for name in tracing.COUNTS
            }
            result["span_range"] = [spans_before, len(tracer.spans)]
        passes.append(result)
        elapsed = time.perf_counter() - started
        if spec["trace"] and len(passes) < 2:
            continue
        # start another pass only if it should end within half a pass of the budget
        if elapsed + result["wall_s"] / 2 >= spec["seconds"]:
            break

    ratios, abstain = [], []
    for job, path in zip(spec["jobs"], passes[0]["steps"]):
        if path is None:
            continue
        r, a = quality(Path(path), job["horizon"])
        ratios += r
        abstain += a
    report = {
        "env": environment(),
        "passes": passes,
        "risk_ratio": sum(ratios) / len(ratios) if ratios else None,
        "abstain_share": sum(abstain) / len(abstain) if abstain else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans
        own = tracing.self_times(spans)
        config_s = sum(ns for span, ns in zip(spans, own) if span[0] == "cli.load_config") * 1e-9
        per_pass = []
        for p in passes[1:]:
            lo, hi = p["span_range"]
            layers = tracing.layer_seconds(spans[lo:hi], own[lo:hi])
            layers["cli.config"] = config_s
            per_pass.append(layers)
        lo, hi = passes[1]["span_range"]
        report["trace"] = {
            "layers_per_pass": per_pass,
            "counts": passes[1]["counts"],
            "growth": tracing.growth(spans[lo:hi], own[lo:hi]),
        }
        tracing.write_spans(spans, work / "spans.csv")
    (work / "worker.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
