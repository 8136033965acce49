"""Measure the benchmark over several seeds and record medians and spreads.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 101] [--workload NAME ...] [--out FILE]

Runs run.py untraced once per seed and workload, one run after another, for
BENCHMARK.json's run_seconds.  For every end-to-end metric it reports the
median, the quartiles (statistics.quantiles, n=4) and the spread (quartile
distance / median); the same for the unscaled (raw wall-clock) round and
set-up times; for every command the median of the per-run raw medians; and the
range of the host reference time.  With --out it writes that as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].split(": ", 1)[1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        metrics: dict[str, list[float]] = {}
        commands: dict[str, list[float]] = {}
        unscaled: dict[str, list[float]] = {}
        refs: list[float] = []
        failed = 0
        for seed in seeds:
            result, diagnostics = one_run(workload, seed, seconds)
            failed += result["failed"]
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for name, (median, _count) in diagnostics["commands"].items():
                commands.setdefault(name, []).append(median)
            for name in ("unscaled_setup_s", "unscaled_round_s"):
                unscaled.setdefault(name, []).append(diagnostics[name])
            refs += diagnostics["host_ref_s"]
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary = {name: summarize(v) for name, v in metrics.items()}
        unscaled_summary = {name: summarize(v) for name, v in unscaled.items()}
        for name, s in {**summary, **unscaled_summary}.items():
            print(f"{workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f} "
                  f"(bound {bounds.get(name, '-')})", flush=True)
        doc["workloads"][workload] = {
            "seeds": seeds,
            "failed": failed,
            "metrics": summary,
            "commands": {name: statistics.median(v) for name, v in sorted(commands.items())},
            "unscaled": unscaled_summary,
            "host_ref_s": [min(refs), max(refs)],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
