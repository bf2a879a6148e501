"""Command-line frontend.

Subcommands:
    check FILE                        verdict report for a pair spec
    classify --mode maeda|rank2 --n-max N     TSV table on stdout
    aa FILE [--svg PATH] [--slice I=P/Q ...]  canonical body and vertices
    blowup FILE                       per-step lattice dump, outer body,
                                      self-intersection quadratic report

Exit codes: 0 computed (any verdict) or --help, 1 input error (a bad
spec, file or option, usage errors included), 2 a verdict came back
unknown/unsupported, 3 internal error (any other exception, such as a
failed self-check, a family-table miss or a library ValueError: a bug,
not bad input).  Reports are deterministic; timing goes to stderr only.
`classify` prints each rank-2 row's body from the closure its
acceptance test already computed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import angles, classify, polytope as pt, svgfig
from .dsl import InputError, load_pair_spec
from .geometry import BlowUp, Tri
from .pairs import LogPair, is_minimal, log_adjoint


def _fmt_point(pt_) -> str:
    return "(" + ", ".join(map(str, pt_)) + ")"


def _fmt_verdict(v) -> str:
    if v is True:
        return "yes"
    if v is False:
        return "no"
    return repr(v).lower()


def _print_body(exactness: str, closed: pt.HPolytope, out) -> None:
    print(f"exactness: {exactness}", file=out)
    print("closure:", file=out)
    for line in pt.canonical_lines(closed):
        print(f"  {line}", file=out)
    # a bounded non-empty polytope has a vertex; an infeasible one has none
    verts = pt.vertices(closed).vertices
    if not verts:
        print("vertices: (empty body)", file=out)
        return
    print("vertices:", file=out)
    for v in verts:
        print(f"  {_fmt_point(v)}", file=out)


def _print_quadratic(report: angles.QuadraticReport, out) -> None:
    print("self-intersection quadratic (reported, not imposed):", file=out)
    print(f"  constant: {report.constant}", file=out)
    print("  linear:   " + " ".join(map(str, report.linear)), file=out)
    for row in report.quadratic:
        print("  quad:     " + " ".join(map(str, row)), file=out)
    print(
        f"  sign table on 1/{report.grid_denominator} grid of the linear outer body: "
        f"{report.samples} samples, {report.positive} positive, "
        f"{report.zero} zero, {report.negative} negative",
        file=out,
    )


@dataclass
class RunReport:
    """Everything a check run computed, rendered byte-identically across runs."""

    echo: str
    pair: LogPair
    verdicts: dict
    body: angles.AABody
    quadratic: Optional[angles.QuadraticReport]

    @property
    def exit_code(self) -> int:
        return 2 if any(isinstance(v, Tri) for v in self.verdicts.values()) else 0

    def render(self, out) -> None:
        p = self.pair
        print(f"pair: {self.echo}", file=out)
        print(f"surface basis: {' '.join(p.surface.basis_labels)}", file=out)
        print("boundary:", file=out)
        for lab, cls in zip(p.labels, p.classes):
            print(f"  {lab}: {_fmt_point(cls.coeffs)}", file=out)
        for name, verdict in self.verdicts.items():
            print(f"{name}: {_fmt_verdict(verdict)}", file=out)
        _print_body(self.body.exactness, self.body.closed_hull, out)
        if self.quadratic is not None:
            _print_quadratic(self.quadratic, out)


def run_report(p: LogPair, echo: str) -> RunReport:
    if isinstance(p.surface.provenance, BlowUp):
        body, quadratic = angles.aa_outer_blowup(p)
    else:
        body, quadratic = angles.aa_body(p), None
    verdicts = {
        "log del Pezzo": angles.is_log_dp(p),
        # the printed body decides both ALdP verdicts, as `angles.is_*aldp` would
        "strongly asymptotically log del Pezzo": body.strongly_aldp,
        "asymptotically log del Pezzo": body.aldp,
        "minimal": is_minimal(p),
    }
    return RunReport(echo, p, verdicts, body, quadratic)


def cmd_check(args) -> int:
    script = load_pair_spec(args.file)
    report = run_report(script.final, args.file)
    report.render(sys.stdout)
    return report.exit_code


def cmd_blowup(args) -> int:
    script = load_pair_spec(args.file)
    stages = script.apply()
    for step, pair in zip(script.steps, stages[1:]):
        print(f"step: blowup {step.op} {step.target} -> {step.id}")
        print(f"  basis: {' '.join(pair.surface.basis_labels)}")
        print(f"  K: {_fmt_point(pair.surface.canonical)}")
        for lab, cls in zip(pair.labels, pair.classes):
            print(f"  {lab}: {_fmt_point(cls.coeffs)}")
        adjoint = log_adjoint(pair)
        print(f"  -K-C: {_fmt_point(adjoint.constant.coeffs)}")
    report = run_report(stages[-1], args.file)
    report.render(sys.stdout)
    return report.exit_code


def _parse_slices(raw_slices, r: int):
    out = []
    for raw in raw_slices or ():
        if "=" not in raw:
            raise InputError(f"bad slice {raw!r}: expected I=P/Q")
        idx_text, val_text = raw.split("=", 1)
        try:
            idx = int(idx_text)
            val = Fraction(val_text)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad slice {raw!r}: expected I=P/Q") from None
        if not 1 <= idx <= r:
            raise InputError(f"slice index {idx} out of range 1..{r}")
        if not 0 <= val <= 1:
            raise InputError("slice values must lie in [0, 1]")
        out.append((idx, val))
    if len({i for i, _ in out}) != len(out):
        raise InputError("repeated slice index")
    return sorted(out, reverse=True)


def cmd_aa(args) -> int:
    script = load_pair_spec(args.file)
    pair = script.final
    slices = _parse_slices(args.slice, pair.r)
    if slices and pair.r < 3:
        raise InputError("slices only make sense for three or more angles")
    dim = pair.r - len(slices)
    if args.svg and dim != 2:
        raise InputError(
            f"SVG output needs a 2-dimensional body; got {dim} (use --slice to cut down)"
        )
    body = angles.aa_body(pair)
    closed = body.closed_hull
    axis_names = [f"b{i + 1}" for i in range(pair.r)]
    for idx, val in slices:
        closed = pt.substitute(closed, idx - 1, val)
        axis_names.pop(idx - 1)
    print(f"pair: {args.file}")
    if slices:
        fixed = ", ".join(f"b{i}={v}" for i, v in sorted(slices))
        print(f"section: {fixed}  (a section, not a projection)")
    _print_body(body.exactness, closed, sys.stdout)
    if args.svg:
        title = os.path.basename(args.file)
        if slices:
            title += " section " + ",".join(f"b{i}={v}" for i, v in sorted(slices))
        doc = svgfig.render_body(
            closed,
            axis_labels=(axis_names[0], axis_names[1]),
            exact=body.exact,
            title=title,
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(doc)
        print(f"svg: {args.svg}")
    return 0


def _classes_column(c: classify.CandidatePair) -> str:
    if c.n is None:
        return "+".join(str(d) for d in c.classes)
    return "+".join(f"({a},{b})" for a, b in c.classes)


def cmd_classify(args) -> int:
    if args.n_max < 0:
        raise InputError(f"--n-max must be at least 0, got {args.n_max}")
    if args.mode == "maeda":
        for cand, label in classify.enumerate_maeda(args.n_max):
            n_col = "-" if cand.n is None else str(cand.n)
            print("\t".join([n_col, cand.surface, _classes_column(cand), label.text]))
        return 0
    for cand, label, strength in classify.enumerate_rank2(args.n_max):
        n_col = "-" if cand.n is None else str(cand.n)
        body_col = "; ".join(pt.canonical_lines(cand.body.closed_hull))
        print(
            "\t".join(
                [n_col, cand.surface, _classes_column(cand), label.text, strength, body_col]
            )
        )
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as input errors do:
    argparse's own 2 is this program's "verdict unknown"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it as it was."""
    parser = _Parser(
        prog="ample-angles",
        description="Exact bodies of ample angles on rational surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verdict report for a pair spec")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_classify = sub.add_parser("classify", help="enumerate classified pairs as TSV")
    p_classify.add_argument("--mode", choices=("maeda", "rank2"), required=True)
    p_classify.add_argument("--n-max", type=int, default=12)
    p_classify.set_defaults(func=cmd_classify)

    p_aa = sub.add_parser("aa", help="body of ample angles, optionally as SVG")
    p_aa.add_argument("file")
    p_aa.add_argument("--svg")
    p_aa.add_argument("--slice", action="append", metavar="I=P/Q")
    p_aa.set_defaults(func=cmd_aa)

    p_blow = sub.add_parser("blowup", help="apply a blow-up script with lattice dumps")
    p_blow.add_argument("file")
    p_blow.set_defaults(func=cmd_blowup)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except (InputError, OSError) as exc:  # SpecParseError is an InputError
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
