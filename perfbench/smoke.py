"""Smoke test of the benchmark at tiny input sizes.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced, checks that each result
line reports exactly the metrics BENCHMARK.json names with no failed
operation, and that the traced run passes its workload-design check.  Then it
plants a wrong expected verdict and checks that failed_frac becomes positive.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = ["--seed", "7", "--seconds", "1", "--size", "tiny"]


def result_of(stdout: str) -> tuple[dict, dict]:
    lines = stdout.strip().splitlines()
    diagnostics = json.loads(lines[-2].split(": ", 1)[1])
    return json.loads(lines[-1]), diagnostics


def check_workload(name: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return [f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result, diagnostics = result_of(proc.stdout)
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result["metrics"]) != wanted:
        problems.append(f"{name} trace={trace}: metrics differ by {set(result['metrics']) ^ wanted}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{name} trace={trace}: {result['failed']}/{result['attempted']} failed: "
                        f"{proc.stderr[-500:]}")
    if trace and not diagnostics["design_check"].startswith("PASS"):
        problems.append(f"{name}: {diagnostics['design_check']}")
    if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
        problems.append(f"{name}: a metric is not positive: {result['metrics']}")
    return problems


def planted_failure(name: str) -> list[str]:
    """Expect every arrangement to be flexible: each is rigid by construction."""
    honest = workloads.arrangement

    def planted(*args):
        inp = honest(*args)
        inp.rigid, inp.remaining = False, inp.remaining + 1
        return inp

    workloads.arrangement = planted
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            run.main(["--workload", name, "--trace", "0", *TINY])
    finally:
        workloads.arrangement = honest
    result, diagnostics = result_of(out.getvalue())
    if result["correct"] or diagnostics["failed_frac"] <= 0:
        return [f"{name}: planted wrong verdict went unnoticed: {result}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for entry in spec["workloads"]:
        for trace in (0, 1):
            problems += check_workload(entry["name"], trace, spec)
    for name in ("xval-arrangement", "pebble-large"):
        problems += planted_failure(name)
    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
