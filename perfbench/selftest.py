#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (T = 5, eval_size 500).

    python3 perfbench/selftest.py

Checks that every workload prints each metric with its unit in both trace
modes, that the summary line carries exactly the metrics BENCHMARK.json
lists, that a deliberately corrupted ``steps.csv`` is counted in
``failed_share``, and that the benchmark refuses to run without the
program's sources.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

E2E_UNITS = {
    "decisions_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB",
    "failed_share": "ratio", "risk_ratio": "ratio", "abstain_share": "ratio",
}
LAYER_LINES = (
    "sim.eval_s", "sim.refit_s", "sim.shift_s", "sim.data_s", "bounds.table_s",
    "strategy.status_s", "strategy.advance_s", "meta.advance_s", "meta.combine_s",
    "meta.solver_s", "cli.config_s", "cli.ingest_s", "cli.emit_s",
    "sim.eval_rows", "sim.refit_row_iters", "sim.shifts", "bounds.tables",
    "bounds.rescored_rows", "strategy.state_entries", "meta.bound_evals",
    "core.loss_values", "core.predict_rows", "cli.ingest_rows", "cli.bytes_written",
    "tracing overhead",
)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out = bench("--workload", workload, "--trace", str(trace), "--tiny")
            expect(code == 0 and out, f"{workload} trace {trace} exits 0 with output")
            summary = json.loads(out[-1])
            expect(summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1,
                   f"{workload} trace {trace} is correct")
            expect({m: summary["metrics"][m]["unit"] for m in summary["metrics"]}
                   == {m["name"]: m["unit"] for m in listed},
                   f"{workload} trace {trace} reports exactly the listed metrics and units")
            text = "\n".join(out[:-1])
            for name, unit in E2E_UNITS.items():
                expect(any(line.startswith(name) and line.endswith(" " + unit) for line in out),
                       f"{workload} prints {name} in {unit}")
            if trace:
                missing = [name for name in LAYER_LINES if name not in text]
                expect(not missing, f"{workload} trace report names every layer ({missing})")
                expect("digests match" in text, f"{workload} traced digest equals untraced")

    code, out = bench("--workload", "production", "--trace", "0", "--tiny", "--corrupt-steps")
    summary = json.loads(out[-1])
    failed_share = next(float(line.split()[1]) for line in out if line.startswith("failed_share"))
    expect(code == 0 and not summary["correct"] and summary["failed"] >= 1 and failed_share > 0,
           "a corrupted steps.csv is counted in failed_share")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    code, out = bench("--workload", "production", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and not out, "without the program's sources it fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
