"""Traced runs: spans around the package's public functions at module boundaries.

Each wrapped function replaces the module attribute its callers resolve (the
CLI, analysis and oracle modules import names into their own namespaces), so
only calls that cross a module boundary are recorded, plus the few internal
calls named in TARGETS.  Spans are (name, start, end, parent, root) rows kept
in memory and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

import rodrigidity.analysis as analysis
import rodrigidity.cli as cli
import rodrigidity.oracle as oracle
from rodrigidity.oracle import Infeasible

LAYERS = ("oracle", "pebble", "analysis", "cone", "geometry", "cli")

# span name -> module attributes that resolve to the function
TARGETS = {
    "geometry.load": [(cli, "load_geometry")],
    "geometry.is_connected": [(analysis, "is_connected")],
    "geometry.remove_line": [(analysis, "remove_line")],
    "cone.build_graph": [(cli, "build_cone_graph"), (analysis, "build_cone_graph")],
    "cone.build_incidence": [(cli, "build_cone_incidence"), (analysis, "build_cone_incidence"),
                             (oracle, "build_cone_incidence")],
    "pebble.play": [(analysis, "play")],
    "pebble.try_edge": [(analysis, "try_edge")],
    "pebble.independent_after": [(analysis, "independent_after")],
    "analysis.decide": [(cli, "decide_rod_rigidity"), (analysis, "decide_rod_rigidity")],
    "analysis.minimal": [(cli, "decide_minimal_rigidity")],
    "analysis.canonical": [(cli, "canonical_subgraph"), (analysis, "canonical_subgraph")],
    "analysis.campaign": [(cli, "run_agreement_campaign")],
    "analysis.random_geometry": [(analysis, "random_geometry")],
    "oracle.sample": [(cli, "sample_realization"), (analysis, "sample_realization")],
    "oracle.kernel": [(oracle, "matrix_kernel")],
    "oracle.realize_cone": [(cli, "realize_cone"), (analysis, "realize_cone")],
    "oracle.string_rigid": [(cli, "is_string_config_rigid"), (analysis, "is_string_config_rigid")],
    "oracle.build_matrix": [(cli, "build_concurrence_matrix"), (oracle, "build_concurrence_matrix")],
    "oracle.rank": [(cli, "rank_of"), (oracle, "rank_of")],
}


def _note_result(counts: Counter, name: str, args: tuple, result) -> None:
    """Counters read at the boundary from a call's arguments or result."""
    if name == "oracle.rank":
        rows, cols = args[0].shape
        counts["rank_cells"] += rows * cols
    elif name == "oracle.sample":
        counts["sample_infeasible" if isinstance(result, Infeasible) else "sample_proper"] += 1
    elif name == "pebble.play":
        counts["edges_accepted"] += len(result.accepted)
        counts["edges_offered"] += len(result.accepted) + len(result.rejected)
    elif name == "analysis.campaign":
        counts["campaign_attempted"] += result.attempted
        counts["campaign_validated"] += result.validated


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, root]
        self.tags: dict[int, str] = {}  # root span -> CLI command
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, perf_counter(), 0.0, parent, stack[0] if stack else index]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            _note_result(counts, name, args, result)
            return result

        return traced

    def main(self, argv):
        """cli.main as a root span tagged with its command."""
        self.tags[len(self.spans)] = argv[0]
        return self._main(argv)

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for targets in TARGETS.values() for mod, attr in targets]
        try:
            for name, targets in TARGETS.items():
                for mod, attr in targets:
                    setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            self._main = self.wrap("cli.main", cli.main)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def per_span(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def calls_per_command(self, span_name: str, command: str) -> float:
        roots = [i for i, tag in self.tags.items() if tag == command]
        if not roots:
            return 0.0
        roots_set = set(roots)
        hits = sum(1 for s in self.spans if s[0] == span_name and s[4] in roots_set)
        return hits / len(roots)

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per round; times of named functions are inclusive."""
        spans = self.per_span()
        c = self.counts

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0))[0] / rounds

        def incl(name):
            return spans.get(name, (0, 0.0, 0.0))[1] / rounds

        def self_of(name):
            return spans.get(name, (0, 0.0, 0.0))[2] / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        layer_self = defaultdict(float)
        for name, (_, _, self_s) in spans.items():
            layer_self[name.split(".")[0]] += self_s / rounds
        m = {f"{layer}.self_s": (layer_self[layer], "s/round") for layer in LAYERS}
        timed = {
            "oracle.kernel_s": incl("oracle.kernel"),
            "oracle.rank_s": incl("oracle.rank"),
            "oracle.sample_s": incl("oracle.sample"),
            "oracle.realize_cone_s": incl("oracle.realize_cone"),
            "pebble.play_s": incl("pebble.play"),
            "analysis.decide_s": self_of("analysis.decide"),
            "analysis.canonical_s": incl("analysis.canonical"),
            "analysis.random_geometry_s": incl("analysis.random_geometry"),
            "cone.build_graph_s": incl("cone.build_graph"),
            "cone.build_incidence_s": incl("cone.build_incidence"),
            "geometry.load_s": incl("geometry.load"),
            "geometry.is_connected_s": incl("geometry.is_connected"),
        }
        counted = {
            "oracle.kernel_calls": calls("oracle.kernel"),
            "oracle.rank_calls": calls("oracle.rank"),
            "oracle.rank_cells_computed": c["rank_cells"] / rounds,
            "oracle.sample_calls": calls("oracle.sample"),
            "oracle.sample_infeasible": c["sample_infeasible"] / rounds,
            "pebble.play_calls": calls("pebble.play"),
            "pebble.edges_offered": c["edges_offered"] / rounds,
            "pebble.try_edge_calls": calls("pebble.try_edge"),
            "pebble.independent_after_calls": calls("pebble.independent_after"),
            "analysis.decide_calls": calls("analysis.decide"),
            "analysis.campaign_attempted": c["campaign_attempted"] / rounds,
            "analysis.campaign_validated": c["campaign_validated"] / rounds,
            "cone.build_graph_calls": calls("cone.build_graph"),
            "cone.build_incidence_calls": calls("cone.build_incidence"),
            "geometry.remove_line_calls": calls("geometry.remove_line"),
        }
        ratios = {
            "oracle.sample_success_ratio": ratio(c["sample_proper"], spans.get("oracle.kernel", (0,))[0]),
            "pebble.accept_ratio": ratio(c["edges_accepted"], c["edges_offered"]),
            "analysis.validate_ratio": ratio(c["campaign_validated"], c["campaign_attempted"]),
        }
        per_command = {
            "cli.oracle_rank_calls": self.calls_per_command("oracle.rank", "oracle"),
            "cli.minimal_decide_calls": self.calls_per_command("analysis.decide", "minimal"),
        }
        m.update({k: (v, "s/round") for k, v in timed.items()})
        m.update({k: (v, "count/round") for k, v in counted.items()})
        m.update({k: (v, "ratio") for k, v in ratios.items()})
        m.update({k: (v, "count/command") for k, v in per_command.items()})
        return m

    def dump(self, path: Path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "root"],
            "spans": self.spans,
            "commands": {str(k): v for k, v in self.tags.items()},
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def design_check(workload: str, m: dict[str, tuple[float, str]]) -> tuple[bool, str]:
    """Does the workload stress the layer it was chosen for?"""
    v = {k: val for k, (val, _) in m.items()}
    if workload == "xval-arrangement":
        total = sum(v[f"{layer}.self_s"] for layer in LAYERS)
        share = v["oracle.self_s"] / total if total else 0.0
        return share > 0.5, f"oracle self time is {share:.1%} of traced call time (needs > 50%)"
    if workload == "pebble-large":
        busy = {k: v[k] for k in ("oracle.kernel_calls", "oracle.rank_calls", "oracle.sample_calls") if v[k]}
        return not busy, f"oracle calls per round: {busy or 'none'} (needs none)"
    kernel, sample = v["oracle.kernel_calls"], v["oracle.sample_calls"]
    return kernel > sample, (f"oracle kernel calls {kernel:.0f} vs sample calls {sample:.0f} per round "
                             "(needs kernel > sample)")
