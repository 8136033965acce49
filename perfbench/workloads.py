"""Workload inputs, command rounds and output checks.

A round is one unit of closed-loop work: the round's geometry files are
written first, then ``rodrigidity.cli.main`` is called in-process for each
command in turn, each call starting only after the previous one returned.
Every input carries the verdict it must get, known from how it was built, so
the checks do not trust the program to grade itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import traceback
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

# Share of rod pairs that meet in a point.  Exactly this share is drawn, so
# every arrangement of a workload has the same number of points and
# incidences and a seed changes structure, not size.
ARRANGEMENT_DENSITY = 0.6

RIGID_CLASSES = ("minimally-rigid", "rigid-redundant")


@dataclass
class Input:
    path: str
    vertices: int  # cone-graph vertices: points + rods
    rigid: bool  # expected verdict
    remaining: int  # expected leftover pebbles


def _write_geometry(path: Path, num_points: int, rods: list[list[int]]) -> None:
    lines = [f"points: {num_points}"] + ["line: " + " ".join(map(str, r)) for r in rods]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rigid_by_triangles(rods: list[list[int]]) -> bool:
    """Sufficient rigidity test: three rods meeting pairwise in distinct
    points form a rigid triangle, and a rod pinned to a rigid cluster at two
    distinct points joins it.  True when one cluster absorbs every rod."""
    sets = [set(r) for r in rods]
    for a, b, c in combinations(range(len(sets)), 3):
        if sets[a] & sets[b] and sets[b] & sets[c] and sets[a] & sets[c]:
            break
    else:
        return False
    members = {a, b, c}
    points = sets[a] | sets[b] | sets[c]
    grew = True
    while grew:
        grew = False
        for r, s in enumerate(sets):
            if r not in members and len(s & points) >= 2:
                members.add(r)
                points |= s
                grew = True
    return len(members) == len(sets)


def arrangement(rng: random.Random, m: int, path: Path) -> Input:
    """Partial line arrangement on m rods, rigid by construction.

    Each chosen pair of rods meets in its own point, so every point lies on
    exactly two rods and no two rods share two points.  Draws repeat until
    the triangle closure covers every rod; labels and rod order are shuffled.
    """
    pairs = list(combinations(range(m), 2))
    for _ in range(1000):
        chosen = rng.sample(pairs, round(ARRANGEMENT_DENSITY * len(pairs)))
        rods: list[list[int]] = [[] for _ in range(m)]
        for point, (i, j) in enumerate(chosen):
            rods[i].append(point)
            rods[j].append(point)
        if _rigid_by_triangles(rods):
            break
    else:
        raise RuntimeError(f"no rigid arrangement with {m} rods in 1000 draws")
    labels = list(range(len(chosen)))
    rng.shuffle(labels)
    rng.shuffle(rods)
    rods = [sorted(labels[p] for p in rod) for rod in rods]
    _write_geometry(path, len(chosen), rods)
    return Input(str(path), len(chosen) + m, rigid=True, remaining=3)


def chain(rng: random.Random, n: int, path: Path) -> Input:
    """n three-point rods, each sharing an end point with the next.

    n rigid bodies joined by n - 1 pins keep n - 1 internal degrees of
    freedom, so the pebble game leaves n + 2 pebbles."""
    num_points = 2 * n + 1
    labels = list(range(num_points))
    rng.shuffle(labels)
    rods = [sorted(labels[q] for q in (2 * i, 2 * i + 1, 2 * i + 2)) for i in range(n)]
    rng.shuffle(rods)
    _write_geometry(path, num_points, rods)
    return Input(str(path), num_points + n, rigid=False, remaining=n + 2)


class Session:
    """Closed-loop caller of one ``main``: times each call and records failures.

    A failure is an exit code of 1 or 3, an exception escaping ``main``, or a
    failed output check; each call counts as failed at most once."""

    def __init__(self, main: Callable, reference: Callable[[], float]):
        self.main = main
        self.reference = reference  # host-speed reading, taken before and after every call
        self._last_reading: Optional[float] = None  # after the previous call of this round
        self.times: dict[str, list[float]] = defaultdict(list)
        self.refs: dict[str, list[float]] = defaultdict(list)  # mean reading around each time
        self.call_rounds: dict[str, list[int]] = defaultdict(list)  # round index of each time
        self.round_times: list[float] = []
        self.attempted = 0
        self.failed_calls: set[int] = set()
        self.failures: list[str] = []
        self.validated_rates: list[float] = []

    @property
    def failed(self) -> int:
        return len(self.failed_calls)

    def begin_round(self) -> None:
        self.round_times.append(0.0)
        self._last_reading = None  # inputs were written since the last reading

    def fail(self, message: str) -> None:
        self.failed_calls.add(self.attempted)
        self.failures.append(message)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def call(self, metric: str, argv: list[str]) -> tuple[Optional[int], str]:
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        before = self._last_reading if self._last_reading is not None else self.reference()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code, problem = None, f"SystemExit({exc.code}) {err.getvalue().strip()}"
        except Exception:
            code, problem = None, traceback.format_exc()
        elapsed = perf_counter() - start
        self._last_reading = self.reference()
        self.refs[metric].append((before + self._last_reading) / 2)
        self.times[metric].append(elapsed)
        self.call_rounds[metric].append(len(self.round_times) - 1)
        self.round_times[-1] += elapsed
        if code is None:
            self.fail(f"rodrig {' '.join(argv)}: {problem}")
        elif code in (1, 3):
            self.fail(f"rodrig {' '.join(argv)}: exit {code}: {err.getvalue().strip()[:300]}")
        return code, out.getvalue()

    def parse(self, out: str, argv_hint: str) -> dict:
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            self.fail(f"{argv_hint}: output is not JSON: {out[:200]!r}")
            return {}
        if not isinstance(doc, dict):
            self.fail(f"{argv_hint}: output is not a JSON object")
            return {}
        return doc


# --- the three workloads -------------------------------------------------------


def _rigid(doc: dict) -> bool:
    return doc.get("classification") in RIGID_CLASSES


def xval_inputs(rng: random.Random, size: dict, folder: Path) -> dict:
    return {
        "large": arrangement(rng, size["m"], folder / "large.geo"),
        "small": arrangement(rng, size["m_rational"], folder / "small.geo"),
    }


def xval_round(inputs: dict, s: Session) -> None:
    large, small = inputs["large"], inputs["small"]
    code, out = s.call("xval_check_s", ["check", large.path, "--cross-validate", "--format", "json"])
    doc = s.parse(out, "check --cross-validate")
    s.expect(doc.get("agreement") == "agree", f"check --cross-validate: agreement {doc.get('agreement')!r}")
    s.expect(_rigid(doc) == large.rigid and (code == 0) == large.rigid,
             f"check --cross-validate: {doc.get('classification')!r}, exit {code}, "
             f"expected rigid={large.rigid}")
    check_rigid = code == 0

    code, out = s.call("oracle_s", ["oracle", large.path, "--format", "json"])
    doc = s.parse(out, "oracle")
    full = doc.get("rank") == doc.get("max_rank")
    s.expect(full == check_rigid and doc.get("rigid") == full and (code == 0) == full,
             f"oracle: rank {doc.get('rank')}/{doc.get('max_rank')}, exit {code}, check rigid={check_rigid}")

    code, out = s.call("xval_small_check_s", ["check", small.path, "--cross-validate", "--format", "json"])
    zp = s.parse(out, "check --cross-validate (small)")
    s.expect(zp.get("agreement") == "agree" and _rigid(zp) == small.rigid,
             f"small check: {zp.get('agreement')!r} {zp.get('classification')!r}, "
             f"expected rigid={small.rigid}")

    code, out = s.call("xval_rational_check_s",
                       ["check", small.path, "--cross-validate", "--field", "rational", "--format", "json"])
    q = s.parse(out, "check --cross-validate --field rational")
    s.expect(q.get("agreement") == "agree", f"rational check: agreement {q.get('agreement')!r}")
    s.expect(q.get("classification") == zp.get("classification"),
             f"rational verdict {q.get('classification')!r} != Z_p verdict {zp.get('classification')!r}")


def pebble_inputs(rng: random.Random, size: dict, folder: Path) -> dict:
    return {
        "": arrangement(rng, size["m"], folder / "arrangement.geo"),
        "chain_": chain(rng, size["chain"], folder / "chain.geo"),
    }


def pebble_round(inputs: dict, s: Session) -> None:
    for prefix, inp in inputs.items():
        code, out = s.call(prefix + "check_s", ["check", inp.path, "--format", "json"])
        doc = s.parse(out, "check")
        remaining = doc.get("remaining_pebbles")
        s.expect(_rigid(doc) == inp.rigid and remaining == inp.remaining and (code == 0) == inp.rigid,
                 f"check {prefix or 'arrangement'}: {doc.get('classification')!r} with {remaining} "
                 f"pebbles, exit {code}; expected rigid={inp.rigid} with {inp.remaining}")

        code, out = s.call(prefix + "canon_s", ["canon", inp.path, "--format", "json"])
        canon = s.parse(out, "canon")
        edges = len(canon.get("edges", ()))
        s.expect(isinstance(remaining, int) and edges == 2 * inp.vertices - remaining,
                 f"canon {prefix or 'arrangement'}: {edges} edges, check left {remaining} pebbles "
                 f"on {inp.vertices} vertices")

        code, out = s.call(prefix + "minimal_s", ["minimal", inp.path, "--format", "json"])
        if inp.rigid:
            report = s.parse(out, "minimal")
            s.expect(code == 0 and report.get("classification") == doc.get("classification"),
                     f"minimal: base {report.get('classification')!r}, check {doc.get('classification')!r}")
        else:  # minimal stops after the base verdict and prints it as text
            dof = inp.remaining - 3
            s.expect(code == 2 and f"flexible ({dof} internal" in out,
                     f"minimal on flexible input: exit {code}, output {out.strip()[:120]!r}")


def fuzz_inputs(rng: random.Random, size: dict, folder: Path) -> dict:
    return {"seed": rng.randrange(1 << 31), "count": size["count"]}


_CAMPAIGN = re.compile(r"^agree=(\d+) .* disagreements=(\d+)$")


def fuzz_round(inputs: dict, s: Session) -> None:
    count = inputs["count"]
    code, out = s.call("campaign_s", ["fuzz", "--count", str(count), "--seed", str(inputs["seed"])])
    match = _CAMPAIGN.match(out.strip())
    validated = int(match[1]) if match else -1
    s.expect(match is not None and validated == count and match[2] == "0",
             f"fuzz: expected agree={count} and disagreements=0, got {out.strip()[:200]!r}")
    if validated > 0:
        s.validated_rates.append(validated / s.times["campaign_s"][-1])


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[random.Random, dict, Path], dict]
    run_round: Callable[[dict, Session], None]
    timed: tuple[str, ...]  # commands whose medians make up call_geomean_s
    sizes: dict  # "full" and "tiny" (smoke test) input sizes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("xval-arrangement", xval_inputs, xval_round,
                 ("xval_check_s", "oracle_s", "xval_rational_check_s"),
                 {"full": {"m": 20, "m_rational": 8}, "tiny": {"m": 7, "m_rational": 6}}),
        Workload("pebble-large", pebble_inputs, pebble_round,
                 ("check_s", "canon_s", "minimal_s", "chain_check_s", "chain_canon_s", "chain_minimal_s"),
                 {"full": {"m": 50, "chain": 400}, "tiny": {"m": 8, "chain": 10}}),
        Workload("fuzz-campaign", fuzz_inputs, fuzz_round, ("campaign_s",),
                 {"full": {"count": 20}, "tiny": {"count": 3}}),
    )
}


def geometry_files(inputs: dict) -> list[str]:
    return [v.path for v in inputs.values() if isinstance(v, Input)]
