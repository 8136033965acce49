"""Benchmark of the rodrigidity package through its public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy.  One process, one client, a
closed loop: ``rodrigidity.cli.main`` is called in-process, each call after
the previous one returned.  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics, timed in seconds at a nominal host speed:
a fixed reference job is timed just before and after every call, and the
call's wall time is scaled by the ratio of the job's nominal time to the mean
of those readings.  With ``--trace 1`` half of the time runs
untraced, the same rounds run again traced, and the per-layer metrics are
reported together with the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Session, geometry_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 21

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import rodrigidity.cli
for path in sys.argv[2:]:
    rodrigidity.cli.load_geometry(path)
"""


# The host reference: a fixed pure-Python job like the package's own work
# (modular row reduction, then a breadth-first search over dict-of-set
# adjacency).  It never calls the package, so only the host moves its time.
_P = 2_147_483_647
_REF_RNG = random.Random(20211203)
_REF_MATRIX = [[_REF_RNG.randrange(_P) for _ in range(40)] for _ in range(40)]
_REF_GRAPH = {v: {_REF_RNG.randrange(3000) for _ in range(4)} for v in range(3000)}
# The reference job's time on an undisturbed 2-vCPU Xeon VM (BASELINE.json's
# host).  Timings are reported in seconds at that host speed.
REF_NOMINAL_S = 0.007


def _reference_job() -> int:
    a = [row[:] for row in _REF_MATRIX]
    n, r = len(a), 0
    for c in range(n):
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], _P - 2, _P)
        row = a[r] = [x * inv % _P for x in a[r]]
        for i in range(r + 1, n):
            f = a[i][c]
            if f:
                a[i] = [(x - f * y) % _P for x, y in zip(a[i], row)]
        r += 1
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [w for v in frontier for w in _REF_GRAPH[v] if w not in seen and not seen.add(w)]
    return r + len(seen)


def reference() -> float:
    """Seconds for the host reference job (median of 3), with the collector
    off so that heap the package left behind does not slow it."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            start = perf_counter()
            _reference_job()
            times.append(perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def measure_setup(files: list[str]) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters each importing rodrigidity.cli and
    parsing the workload's geometry files, and the mean of the reference
    readings taken just before and after each."""
    times, readings = [], [reference()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        # No timeout: Popen.wait polls with sleeps when given one, which
        # would quantize the measurement.
        subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *files], cwd=ROOT, check=True)
        times.append(perf_counter() - start)
        readings.append(reference())
    return times, [(a + b) / 2 for a, b in zip(readings, readings[1:])]


class Rounds:
    """Round k's inputs depend only on (workload, seed, k) and are written once."""

    def __init__(self, workload, size: dict, seed: int, folder: Path):
        self.workload, self.size, self.seed, self.folder = workload, size, seed, folder
        self._cache: dict[int, dict] = {}

    def __getitem__(self, k: int) -> dict:
        if k not in self._cache:
            folder = self.folder / str(k)
            folder.mkdir(parents=True, exist_ok=True)
            rng = random.Random(f"{self.workload.name}/{self.seed}/{k}")
            self._cache[k] = self.workload.make_inputs(rng, self.size, folder)
        return self._cache[k]


def run_pass(workload, rounds: Rounds, main, *, seconds=None, count=None):
    """Closed loop over rounds 0, 1, ...: for `seconds` (at least one round)
    or for exactly `count` rounds."""
    session = Session(main, reference)
    deadline = perf_counter() + seconds if seconds is not None else None
    k = 0
    while (k < count) if count is not None else (k == 0 or perf_counter() < deadline):
        inputs = rounds[k]
        session.begin_round()
        workload.run_round(inputs, session)
        k += 1
    return session


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Times taken to nominal host speed, each by the reference reading around it."""
    return [t * REF_NOMINAL_S / r for t, r in zip(times, refs)]


def end_to_end(workload, session, setup_s: float) -> dict:
    """Medians of times scaled to nominal host speed."""
    rounds = [0.0] * len(session.round_times)
    medians = {}
    for name, times in session.times.items():
        times = scaled(times, session.refs[name])
        medians[name] = statistics.median(times)
        for t, k in zip(times, session.call_rounds[name]):
            rounds[k] += t
    geomean = math.exp(statistics.fmean(math.log(medians[name]) for name in workload.timed))
    return {
        "setup_s": (setup_s, "s"),
        "round_s": (statistics.median(rounds), "s"),
        "call_geomean_s": (geomean, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def command_summary(session) -> dict:
    """Per-command medians under the names the workload docs use."""
    out = {name: [round(statistics.median(t), 6), len(t)] for name, t in session.times.items()}
    if session.validated_rates:
        out["campaign_validated_per_s"] = [round(statistics.median(session.validated_rates), 3),
                                           len(session.validated_rates)]
    return out


def report_failures(session) -> None:
    for message in session.failures[:5]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "rodrigidity" / "__init__.py").is_file():
        print(f"perfbench: no rodrigidity sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import rodrigidity.cli

    if Path(rodrigidity.cli.__file__).resolve().parent != SRC / "rodrigidity":
        print(f"perfbench: imported rodrigidity from {rodrigidity.cli.__file__}, not {SRC}", file=sys.stderr)
        return 1

    workload = WORKLOADS[args.workload]
    inputs_dir = WORK / f"inputs-{args.workload}-{args.seed}-{args.trace}"
    spans_file = WORK / f"spans-{args.workload}-{args.seed}.json"
    shutil.rmtree(inputs_dir, ignore_errors=True)
    try:
        rounds = Rounds(workload, workload.sizes[args.size], args.seed, inputs_dir)
        if args.trace == 0:
            setup_times, setup_refs = measure_setup(geometry_files(rounds[0]))
            session = run_pass(workload, rounds, rodrigidity.cli.main, seconds=args.seconds)
            sessions = [session]
            metrics = end_to_end(workload, session, statistics.median(scaled(setup_times, setup_refs)))
            diagnostics = {
                "rounds": len(session.round_times),
                "commands": command_summary(session),
                "unscaled_setup_s": round(statistics.median(setup_times), 6),
                "unscaled_round_s": round(statistics.median(session.round_times), 6),
            }
        else:
            from tracing import Tracer, design_check

            untraced = run_pass(workload, rounds, rodrigidity.cli.main, seconds=args.seconds / 2)
            n = len(untraced.round_times)
            tracer = Tracer()
            with tracer.installed():
                traced = run_pass(workload, rounds, tracer.main, count=n)
            sessions = [untraced, traced]
            metrics = tracer.metrics(n)
            tracer.dump(spans_file)
            ok, why = design_check(args.workload, metrics)
            wall = sum(untraced.round_times), sum(traced.round_times)
            diagnostics = {
                "rounds": n,
                "untraced_s": round(wall[0], 4),
                "traced_s": round(wall[1], 4),
                "tracing_overhead_s": round(wall[1] - wall[0], 4),
                "tracing_overhead_frac": round((wall[1] - wall[0]) / wall[0], 4),
                "design_check": ("PASS: " if ok else "FAIL: ") + why,
                "spans_file": str(spans_file.relative_to(ROOT)),
            }
            print(f"{'metric':34} {'value':>14}  unit")
            for name, (value, unit) in sorted(metrics.items()):
                print(f"{name:34} {value:14.6g}  {unit}")
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    refs = [r for s in sessions for readings in s.refs.values() for r in readings]
    for s in sessions:
        report_failures(s)
    diagnostics.update({
        "workload": args.workload,
        "seed": args.seed,
        "failed_frac": failed / attempted,
        "host_ref_s": [round(f(refs), 6) for f in (min, statistics.median, max)],
    })
    print("perfbench diagnostics: " + json.dumps(diagnostics, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
