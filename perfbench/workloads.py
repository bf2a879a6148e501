"""The benchmark's workloads: seeded inputs, jobs and their reference checks.

A job's `run` is the timed span and calls the library in-process; its
`check` runs afterwards, untimed, and raises CheckFailed on a wrong answer.

Why these workloads:
  classify  hundreds of tiny exact Fourier-Motzkin systems plus make_pair and
            intersect; no vertex enumeration, no grid.  Per-call overhead and
            HalfSpace construction cost show here.
  reports   high-dimensional closed systems where brute-force vertices and the
            aa_outer_blowup grid dominate, plus the blow-up and contraction
            calculus, dsl, cli and svgfig.  The other two bypass all of this.
  queries   many cheap pointwise evaluations (contains, reparam) dominated by
            Fraction and DivisorClass arithmetic; no elimination, no vertices.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from fractions import Fraction
from pathlib import Path

import _util
from ampleangles import angles as an
from ampleangles import classify as cl
from ampleangles import cli, dsl
from ampleangles import pairs as pr
from ampleangles import polytope as pt

import checks
from checks import expect

HERE = Path(__file__).resolve().parent
REF = HERE / "ref"
# relative to the checkout root, which is every pass's working directory
WORK = ".perfbench_work"

QUERY_N_MAX = 6
QUERY_POINTS = 64
QUERY_DENOM = 16


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class CliJob:
    """One CLI command; stdout must match its reference file byte for byte."""

    def __init__(self, name, argv, exit_code, table=None, svg=None):
        self.name, self.argv, self.exit_code = name, argv, exit_code
        self.table = table  # classify mode whose rows are checked against the tables
        self.svg = svg  # path the command writes, checked against ref/<name>.svg

    def run(self, samples):
        return run_cli(self.argv)

    def check(self, result) -> None:
        code, stdout = result
        expect(code == self.exit_code, f"exit code {code}, want {self.exit_code}")
        ref = (REF / f"{self.name}.out").read_text(encoding="utf-8")
        expect(stdout == ref, "stdout differs from the reference")
        if self.table:
            checks.classify_rows(self.table, stdout)
        else:
            checks.printed_vertices(stdout)
        if self.svg:
            doc = Path(self.svg).read_text(encoding="utf-8")
            expect(doc == (REF / f"{self.name}.svg").read_text(encoding="utf-8"), "SVG differs")


class ScriptJob:
    """`blowup` on a seeded script, then unwind it with pairs.contract."""

    def __init__(self, name, path, steps):
        self.name, self.path, self.steps = name, path, steps

    def run(self, samples):
        code, stdout = run_cli(["blowup", self.path])
        script = dsl.load_pair_spec(self.path)
        pair = script.final
        while pair.history:
            pair, _ = pr.contract(pair, pair.history[-1].exc_label)
        return code, stdout, script.base, pair

    def check(self, result) -> None:
        code, stdout, base, unwound = result
        # verdicts on blow-up surfaces come back unknown: exit code 2
        expect(code == 2, f"exit code {code}, want 2")
        steps = [line for line in stdout.splitlines() if line.startswith("step: ")]
        expect(len(steps) == self.steps, f"{len(steps)} step dumps, want {self.steps}")
        checks.printed_vertices(stdout)
        expect(unwound == base, "unwinding the script did not give back its base")


class QueryJob:
    """Membership of seeded angles in one pair's open body; reparam inside it."""

    def __init__(self, name, n, classes, points):
        self.name, self.n, self.classes, self.points = name, n, classes, points

    def run(self, samples):
        surface = "P2" if self.n is None else f"F{self.n}"
        p = cl.build_pair(cl.CandidatePair(surface, self.n, self.classes))
        body = an.aa_halfspaces_rank_le2(p).open_part
        clock = time.perf_counter
        contains_calls, reparam_calls = samples["contains_us"], samples["reparam_us"]
        out = []
        for beta in self.points:
            t0 = clock()
            inside = pt.contains(body, beta)
            contains_calls.append((t0, clock()))
            rd = None
            if inside:
                gamma = pr.angles(beta)
                t0 = clock()
                rd = an.reparam(p, gamma)
                reparam_calls.append((t0, clock()))
            out.append((beta, inside, rd))
        return out

    def check(self, result) -> None:
        expect(len(result) == len(self.points), "not every point was queried")
        for beta, inside, rd in result:
            checks.membership(self.n, self.classes, beta, inside)
            if inside:
                checks.reparam(self.n, self.classes, beta, rd)


# ---------------------------------------------------------------------------
# Job lists


def classify_jobs(seed: int) -> list:
    # the inputs are fixed by the paper; the seed is accepted and unused
    return [
        CliJob(f"classify-{mode}", ["classify", "--mode", mode, "--n-max", "12"], 0, table=mode)
        for mode in ("maeda", "rank2")
    ]


SAMPLES = (
    ("figure1", 0),
    ("three-fibers", 0),
    ("infinitely-near", 2),
    ("shared-fiber-degeneration", 2),
)
CHAINS = (5, 6)

# (base spec, boundary labels, nodes as id -> incident labels, step kinds):
# the shape is fixed, the seed picks only the targets
SCRIPT_BASES = (
    ("surface F 1\ncomponent Z 1 0\ncomponent C2 1 3\n", ("Z", "C2"),
     {"Z.C2.1": ("Z", "C2"), "Z.C2.2": ("Z", "C2")}, ("node", "smooth", "smooth")),
    ("surface P2\ncomponent Q 2\ncomponent L 1\n", ("Q", "L"),
     {"Q.L.1": ("Q", "L"), "Q.L.2": ("Q", "L")}, ("smooth", "node", "smooth")),
    ("surface F 0\ncomponent A 1 1\ncomponent B 1 1\n", ("A", "B"),
     {"A.B.1": ("A", "B"), "A.B.2": ("A", "B")}, ("node", "smooth", "smooth")),
    ("surface F 2\ncomponent Z 1 0\ncomponent F 0 1\ncomponent C 1 2\n", ("Z", "F", "C"),
     {"Z.F.1": ("Z", "F"), "F.C.1": ("F", "C")}, ("smooth", "smooth")),
)


def blowup_script(rng: random.Random, base: str, labels, nodes, kinds) -> str:
    """A blow-up script whose targets are drawn by rng; node ids follow the
    naming rule of pairs.blow_up_node (<label>.<new>.1 for both neighbours)."""
    labels, nodes = list(labels), dict(nodes)
    lines = [base]
    for step, kind in enumerate(kinds, start=1):
        name = f"e{step}"
        if kind == "smooth":
            lines.append(f"blowup smooth {rng.choice(labels)} {name}\n")
        else:
            node = rng.choice(sorted(nodes))
            a, b = nodes.pop(node)
            nodes[f"{a}.{name}.1"] = (a, name)
            nodes[f"{b}.{name}.1"] = (b, name)
            labels.append(name)
            lines.append(f"blowup node {node} {name}\n")
    return "".join(lines)


def reports_jobs(seed: int) -> list:
    jobs = [CliJob(f"check-{name}", ["check", f"samples/{name}.pair"], code) for name, code in SAMPLES]
    jobs += [
        CliJob(f"check-chain-r{r}", ["check", f"perfbench/inputs/chain-r{r}.pair"], 2)
        for r in CHAINS
    ]
    svg = f"{WORK}/three-fibers.svg"
    jobs.append(
        CliJob("aa-three-fibers", ["aa", "samples/three-fibers.pair", "--slice", "1=1/2", "--svg", svg],
               0, svg=svg)
    )
    for k, (text, steps) in enumerate(script_texts(seed), start=1):
        path = f"{WORK}/script-{k}.pair"
        Path(path).write_text(text, encoding="utf-8")
        jobs.append(ScriptJob(f"blowup-script-{k}", path, steps))
    return jobs


def script_texts(seed: int) -> list[tuple[str, int]]:
    """The seeded blow-up scripts and their step counts."""
    rng = random.Random(seed)
    return [
        (blowup_script(rng, base, labels, nodes, kinds), len(kinds))
        for base, labels, nodes, kinds in SCRIPT_BASES
    ]


def query_pairs() -> list[tuple[str, object, tuple]]:
    """(label, n, classes) for every rank-2 survivor with n <= QUERY_N_MAX."""
    out = [(lab, None, degs) for lab, degs, _ in _util.P2_TABLE]
    for n in range(QUERY_N_MAX + 1):
        out += [(lab, n, classes) for lab, classes, _ in _util.fn_table(n)]
    return out


def queries_jobs(seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    for k, (label, n, classes) in enumerate(query_pairs()):
        points = [
            tuple(Fraction(rng.randint(1, QUERY_DENOM - 1), QUERY_DENOM) for _ in classes)
            for _ in range(QUERY_POINTS)
        ]
        jobs.append(QueryJob(f"query-{k:02d}-{label}", n, classes, points))
    return jobs


JOB_LISTS = {"classify": classify_jobs, "reports": reports_jobs, "queries": queries_jobs}


def make_jobs(workload: str, seed: int) -> list:
    return JOB_LISTS[workload](seed)
