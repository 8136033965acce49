"""Command-line front end.

Verdict-producing subcommands exit 0 when the configuration is rigid, 2 when
it is flexible, 1 on any error, and 3 when the combinatorial and algebraic
oracles disagree (a defect; the reproduction bundle is dumped to stderr).
All output is deterministic for a fixed input and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import (
    DEFAULT_SEED,
    CampaignError,
    OracleDisagreementError,
    canonical_subgraph,
    decide_minimal_rigidity,
    decide_rod_rigidity,
    minimal_report_to_json,
    run_agreement_campaign,
    verdict_to_json,
)
from .cone import build_cone_graph, build_cone_incidence, cone_graph_to_dot
from .geometry import GeometryError, IncidenceGeometry, _read_json, geometry_to_json, load_geometry
from .oracle import (
    ALTERNATE_PRIME,
    DEFAULT_FIELD,
    Infeasible,
    OracleError,
    PrimeField,
    RATIONALS,
    realization_from_coords,
    realization_from_json,
    realize_cone,
    sample_realization,
    string_config_rank,
)
# Not called here, but perfbench/tracing.py wraps these names in this module.
from .oracle import build_concurrence_matrix, is_string_config_rigid, rank_of  # noqa: F401

EXIT_RIGID = 0
EXIT_ERROR = 1
EXIT_FLEXIBLE = 2
EXIT_DISAGREEMENT = 3


# The --field choices, in the order --help lists them.
FIELDS = {"zp": DEFAULT_FIELD, "zp2": PrimeField(ALTERNATE_PRIME), "rational": RATIONALS}


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _dump_disagreement(exc: OracleDisagreementError) -> int:
    print(f"DEFECT: {exc}", file=sys.stderr)
    print(json.dumps(exc.bundle, sort_keys=True), file=sys.stderr)
    return EXIT_DISAGREEMENT


def _verdict_text(verdict) -> str:
    pebble = verdict.pebble
    if verdict.is_rigid:
        total = len(pebble.accepted) + len(pebble.rejected)
        text = (f"rigid ({len(pebble.accepted)}/{total} edges independent, "
                f"{pebble.remaining_pebbles} pebbles remain)")
    else:
        dof = verdict.degrees_of_freedom
        text = f"flexible ({dof} internal degree{'s' if dof != 1 else ''} of freedom)"
    if not verdict.connected:
        text += " [disconnected input]"
    return text + _cross_validation_text(verdict)


def _skipped(reason: Optional[str]) -> str:
    """Why a cross-validation certified nothing: a construction's refusal, or
    no reason when every sample fell short of the predicted rank."""
    return f"skipped ({reason or 'samples fell short'})"


def _cross_validation_text(verdict) -> str:
    """The clause for the verdict's cross-validation, none when nothing was
    sampled."""
    if verdict.agreement != "algebraic-skipped":
        return f"; cross-validation: {verdict.agreement}"
    if verdict.skip_reason is None and verdict.algebraic is None:
        return ""
    return f"; cross-validation: {_skipped(verdict.skip_reason)}"


def _deletion_checks_text(report) -> str:
    """Clauses naming the deletions whose cross-validation certified nothing,
    grouped by reason: refusals in the order first met, then the deletions
    whose samples all fell short."""
    skipped: dict[Optional[str], list[str]] = {}
    for l, (agreement, reason) in enumerate(report.deletion_checks or ()):
        if agreement != "agree":
            skipped.setdefault(reason, []).append(str(l))
    if None in skipped:
        skipped[None] = skipped.pop(None)  # the shortfall group last
    return "".join(f"; deleting rod{'s' if len(ls) > 1 else ''} {' '.join(ls)}: "
                   f"cross-validation {_skipped(reason)}" for reason, ls in skipped.items())


def _cmd_check(args) -> int:
    geometry = load_geometry(args.path)
    verdict = decide_rod_rigidity(geometry, cross_validate=args.cross_validate, seed=args.seed,
                                  field=FIELDS[args.field])
    if args.format == "json":
        _emit_json(verdict_to_json(verdict))
    else:
        print(_verdict_text(verdict))
    return EXIT_RIGID if verdict.is_rigid else EXIT_FLEXIBLE


def _cmd_minimal(args) -> int:
    geometry = load_geometry(args.path)
    report = decide_minimal_rigidity(geometry, cross_validate=args.cross_validate,
                                     seed=args.seed, field=FIELDS[args.field])
    if not report.base.is_rigid:
        print(_verdict_text(report.base) + "; minimality undefined")
        return EXIT_FLEXIBLE
    if args.format == "json":
        _emit_json(minimal_report_to_json(report))
        return EXIT_RIGID
    if report.minimally_rigid:
        text = "minimally rigid (deleting any rod yields a flexible configuration)"
    else:
        rods = " ".join(str(l) for l in report.removable)
        text = f"rigid but not minimally rigid (removable rods: {rods})"
    print(text + _cross_validation_text(report.base) + _deletion_checks_text(report))
    return EXIT_RIGID


def _cmd_canon(args) -> int:
    geometry = load_geometry(args.path)
    canon = canonical_subgraph(geometry)
    sub = canon.subgeometry
    tight = sub.num_incidences == sub.num_lines + 2 * sub.num_points - 3
    if args.format == "json":
        _emit_json({
            "edges": [list(e) for e in canon.edges],
            "line_order": list(canon.line_order),
            "subgeometry": geometry_to_json(sub),
            "tight": tight,
        })
    else:
        print(
            f"canonical subgraph: {len(canon.edges)} edges on {canon.num_vertices} vertices"
            f" (line order {' '.join(str(l) for l in canon.line_order)})"
        )
        print(
            f"derived subgeometry: |P'|={sub.num_points} |L'|={sub.num_lines} "
            f"|I'|={sub.num_incidences}"
            + (" (= |L'|+2|P'|-3)" if tight else " (< |L'|+2|P'|-3)")
        )
    return EXIT_RIGID


def _realized(result, prefix: str = ""):
    """A construction's realization; its refusal (Infeasible) is an error."""
    if isinstance(result, Infeasible):
        raise OracleError(prefix + result.reason)
    return result


def _cmd_oracle(args) -> int:
    geometry = load_geometry(args.path)
    rho = _realized(sample_realization(geometry, args.seed, field=FIELDS[args.field]),
                    "sampling infeasible: ")
    rank, max_rank = string_config_rank(build_cone_incidence(geometry),
                                        _realized(realize_cone(geometry, rho, args.seed)))
    rigid = rank == max_rank
    if args.format == "json":
        _emit_json({"rigid": rigid, "rank": rank, "max_rank": max_rank})
    elif rigid:
        print(f"rigid (concurrence rank {rank} = max {max_rank})")
    else:
        print(f"flexible (concurrence rank {rank}, deficit {max_rank - rank})")
    return EXIT_RIGID if rigid else EXIT_FLEXIBLE


def _cmd_dot(args) -> int:
    geometry = load_geometry(args.path)
    dot = cone_graph_to_dot(geometry, build_cone_graph(geometry))
    _write_output(args.output, dot)
    return EXIT_RIGID


def _load_realization_file(geometry: IncidenceGeometry, path: str):
    doc = _read_json(path)
    if isinstance(doc, dict) and "coords" in doc:
        return realization_from_coords(geometry, doc["coords"])
    rho = realization_from_json(doc)
    if not rho.satisfies(geometry):
        raise OracleError("the realization does not satisfy the geometry")
    return rho


def _cmd_svg(args) -> int:
    geometry = load_geometry(args.path)
    if args.realization:
        rho = _load_realization_file(geometry, args.realization)
    else:
        rho = _realized(sample_realization(geometry, args.seed, field=RATIONALS),
                        "sampling infeasible: ")
    if rho.field.p:
        return _fail("svg rendering needs a rational realization")
    if args.cone:
        svg = render_svg(build_cone_incidence(geometry),
                         _realized(realize_cone(geometry, rho, args.seed)),
                         hollow_from=geometry.num_points)
    else:
        svg = render_svg(geometry, rho)
    _write_output(args.output, svg)
    return EXIT_RIGID


def _cmd_fuzz(args) -> int:
    for flag, value, least in (("--count", args.count, 1), ("--max-points", args.max_points, 2),
                               ("--max-lines", args.max_lines, 1)):
        if value < least:
            return _fail(f"{flag} must be at least {least}, got {value}")
    report = run_agreement_campaign(
        target=args.count,
        seed=args.seed,
        max_points=args.max_points,
        max_lines=args.max_lines,
        field=FIELDS[args.field],
    )
    print(
        f"agree={report.validated} (rigid={report.rigid} flexible={report.flexible}) "
        f"skipped={report.skipped} attempted={report.attempted} disagreements=0"
    )
    return EXIT_RIGID


def _write_output(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def render_svg(geometry: IncidenceGeometry, realization, hollow_from: Optional[int] = None) -> str:
    """Rods as single segments spanning their points, in a 1000x1000 viewport.

    Incidence residuals are exactly zero, so every point sits on its rod's
    segment exactly; only the final decimal formatting rounds.  Points from
    index hollow_from on are drawn hollow (used for cone points)."""
    size, margin = 1000.0, 50.0
    xs = [Fraction(x) for x in realization.xs]
    ys = [Fraction(y) for y in realization.ys]
    if xs:
        minx, maxx = min(xs), max(xs)
        miny, maxy = min(ys), max(ys)
    else:
        minx = maxx = miny = maxy = Fraction(0)
    span = max(maxx - minx, maxy - miny)
    if span == 0:
        span = Fraction(1)
    scale = Fraction(900) / span

    def place(x: Fraction, y: Fraction) -> tuple[float, float]:
        return (
            margin + float((x - minx) * scale),
            margin + float((maxy - y) * scale),
        )

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">'
    ]
    for line in geometry.lines:
        lo = min(line, key=lambda p: (xs[p], ys[p]))
        hi = max(line, key=lambda p: (xs[p], ys[p]))
        x1, y1 = place(xs[lo], ys[lo])
        x2, y2 = place(xs[hi], ys[hi])
        out.append(
            f'  <line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="#333333" stroke-width="3"/>'
        )
    for p in range(geometry.num_points):
        cx, cy = place(xs[p], ys[p])
        if hollow_from is not None and p >= hollow_from:
            style = 'fill="#ffffff" stroke="#000000" stroke-width="2"'
        else:
            style = 'fill="#000000"'
        out.append(f'  <circle cx="{cx:.3f}" cy="{cy:.3f}" r="7" {style}/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


@functools.cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rodrig",
        description="Decide infinitesimal rigidity of planar rod configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, fmt=True, field=True):
        """The shared options that the command reads."""
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text")
        if field:
            p.add_argument("--field", choices=tuple(FIELDS), default="zp")

    p = sub.add_parser("check", help="rigidity verdict for a geometry file")
    p.add_argument("path")
    p.add_argument("--cross-validate", action="store_true",
                   help="also sample exact realizations and rank-check them")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("minimal", help="is the configuration minimally rigid?")
    p.add_argument("path")
    p.add_argument("--cross-validate", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("canon", help="canonical maximally independent subgraph")
    p.add_argument("path")
    common(p, seed=False, field=False)
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("oracle", help="algebraic-only verdict from an exact realization")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("dot", help="cone graph as Graphviz DOT")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("svg", help="render a rod configuration as SVG")
    p.add_argument("path")
    p.add_argument("--realization", help="realization JSON (or {'coords': ...} file)")
    p.add_argument("--cone", action="store_true",
                   help="render the extended string configuration instead")
    p.add_argument("-o", "--output")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_svg)

    p = sub.add_parser("fuzz", help="random cross-validation campaign")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--max-points", type=int, default=10)
    p.add_argument("--max-lines", type=int, default=6)
    common(p, fmt=False)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OracleDisagreementError as exc:
        return _dump_disagreement(exc)
    except (GeometryError, OracleError, CampaignError, OSError) as exc:
        return _fail(str(exc))
    except UnicodeDecodeError as exc:
        return _fail(f"input is not UTF-8 text: {exc}")


if __name__ == "__main__":
    sys.exit(main())
