"""Mutation gate for the exact kernels: each mutant must fail a test.

    python tests/mutants.py [NAME ...]

Run from the root of the repository, on a tree whose tests pass (CI runs
it after the tier-1 tests).  Each entry of MUTANTS names a file under
src/, an exact text in it, the text that replaces it, the test files that
must fail on the mutant, and what the mutant breaks.  For each entry the
runner copies src/ into a temporary directory, applies the replacement
there, and runs `python -m pytest -x -q` on the named files with the copy
first on PYTHONPATH.  The gate fails when a mutant's old text is not
found exactly once in its file, or when the named tests pass on a
mutant.  With names on the command line, only those entries run.
Standard library only; the test files themselves need pytest, as the
tier-1 tests do.

Equivalent mutants are left out, because no test can fail them:

- The walk's credit for Z given always (`slack + n < 0`).  After sum a
  > 0 no class raises the slack, so the walk only visits more prefixes
  that yield nothing; its yields and their order do not change.
- DD's count filter relaxed by one (`n - len(lines) - 3`).  The third-ray
  test decides adjacency without the count (Fukuda & Prodon 1996), so the
  filter changes the work and not the rays.

The line witness one step short keeps every verdict too, since v is
tested exactly and a failed v hands the cone to elimination; it is an
entry all the same, because the tests pin which cones the line decides.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path old new tests breaks")

MUTANTS = [
    Mutant(
        "walk without Z's credit",
        "classify.py",
        "if slack + (0 if sa else n) < 0:",
        "if slack < 0:",
        ["tests/test_classify.py"],
        "a fiber prefix that Z would make nef is cut, so F_n loses boundaries",
    ),
    Mutant(
        "line witness ignores strictness",
        "polytope.py",
        "if all(sum(map(mul, normal, v)) >= strict for normal, _, strict in tight):",
        "if all(sum(map(mul, normal, v)) >= 0 for normal, _, strict in tight):",
        ["tests/test_polytope.py"],
        "a strict tight row with normal.v = 0 passes, so an empty cone can read feasible",
    ),
    Mutant(
        "line one step short",
        "polytope.py",
        "k = (strict - s + a - 1) // a",
        "k = (strict - s + a - 1) // a - 1",
        ["tests/test_polytope.py"],
        "cones that the line decides reach elimination: verdicts hold, the work does not",
    ),
    Mutant(
        "diagonal ignores strictness",
        "polytope.py",
        "failed = [normal for normal, s, strict in tight if s < strict]",
        "failed = [normal for normal, s, strict in tight if s < 0]",
        ["tests/test_polytope.py"],
        "a strict tight row with sum(normal) = 0 passes the diagonal",
    ),
    Mutant(
        "witness without the offset test",
        "polytope.py",
        "    if cone:\n        tight =",
        "    if True:\n        tight =",
        ["tests/test_polytope.py"],
        "the witness runs when some offset is negative, where the origin is no point of the closure",
    ),
    Mutant(
        "aldp always true",
        "angles.py",
        "return self.closed_hull != pt.canonical_empty(open_part.dim)",
        "return True",
        ["tests/test_classify.py"],
        "the three nef candidates with an empty body are accepted",
    ),
    Mutant(
        "vertex certificate accepts square -1",
        "angles.py",
        "if not images or any(s < 0 for s, _, _ in images):",
        "if not images or any(s < -1 for s, _, _ in images):",
        ["tests/test_angles.py"],
        "a vertex image of square -1 is taken as a proof of positivity",
    ),
    Mutant(
        "exact gate copies a Fraction",
        "geometry.py",
        "    if type(v) is Fraction:\n        return v\n",
        "    if type(v) is Fraction:\n        return Fraction(v)\n",
        ["tests/test_geometry.py"],
        "a caller's Fraction is copied instead of passed through",
    ),
    Mutant(
        "vertex order on unscaled rays",
        "polytope.py",
        "found.sort(key=lambda ray: [x * (den // ray[-1]) for x in ray[:-1]])",
        "found.sort(key=lambda ray: ray[:-1])",
        ["tests/test_angles.py"],
        "vertices with different t sort on their numerators, not on their values",
    ),
    Mutant(
        "tracked fiber sign test at -1",
        "pairs.py",
        "if sum(map(mul, cls.integer_form[0], dual)) < 0:",
        "if sum(map(mul, cls.integer_form[0], dual)) < -1:",
        ["tests/test_pairs.py"],
        "a shared fiber that meets a component at -1 is accepted",
    ),
    Mutant(
        "minimality with curve.C = d",
        "pairs.py",
        "sum(map(mul, k_c, dual)) == d * d_c:",
        "sum(map(mul, k_c, dual)) == d:",
        ["tests/test_pairs.py"],
        "curve.C = 1 is misread on a rational boundary",
    ),
    Mutant(
        "minimality with curve^2 = -d",
        "pairs.py",
        "if sum(map(mul, k, dual)) == -d * d and",
        "if sum(map(mul, k, dual)) == -d and",
        ["tests/test_pairs.py"],
        "curve^2 = -1 is misread on a rational tracked class",
    ),
    Mutant(
        "last exceptional curve read off its last numerator",
        "pairs.py",
        "if curve.integer_form != ((0,) * (p.surface.rank - 1) + (1,), 1):",
        "if curve.integer_form[0][-1] != 1:",
        ["tests/test_pairs.py"],
        "a (-1)-curve that is not the last exceptional class is contracted",
    ),
]


def _run(mutant: Mutant) -> str:
    """'killed', 'survived', 'not found', or pytest's exit code when it gave no verdict."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "ampleangles" / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "not found"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # a package that shadowed the copy would pass the tests: "survived"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
        # pytest exits 1 when a test fails; any other code is no verdict
        if tests.returncode == 1:
            return "killed"
        if tests.returncode == 0:
            return "survived"
        return f"pytest exited {tests.returncode}: {tests.stdout[-300:]}{tests.stderr[-300:]}"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}")
        return 2
    failed = 0
    for mutant in chosen:
        start = time.perf_counter()
        outcome = _run(mutant)
        print(f"{outcome:>9}  {mutant.name} ({mutant.path}, {time.perf_counter() - start:.1f}s): {mutant.breaks}")
        failed += outcome != "killed"
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
