"""Enumeration of log del Pezzo and rank-<=2 asymptotically log del Pezzo pairs.

The enumerators are filter-driven: the candidate boundaries are the
multisets C of admissible component classes with -K - C nef (total
degree <= 3 on the plane; on F_n, sum of Z-coefficients <= 2 and sum of
F-coefficients <= 2 - n + n.(sum of Z-coefficients)), as no other
boundary is log del Pezzo or asymptotically log del Pezzo, and the only
acceptance test is the relevant positivity predicate.  On F_n they come
from a walk over sorted prefixes that returns from a prefix no extension
can make nef (`candidate_multisets`), so it never goes more than five
classes deep, whatever n.  The built-in
family tables are used solely to *name* the survivors; a survivor
missing from the table is an inconsistency and raises.  A name
is the plain text printed for its family, n filled in ("ALdP.3.5",
"II.4A", "Maeda.v").

F_0 carries the ruling swap (a, b) <-> (b, a); candidates are
deduplicated up to boundary reordering and this swap, and matched to
the families phrased in (p, q)-curve language.

Each candidate is decided on its raw integer class tuples, in its
family's presentation (key order when the table lacks it); reordering
the components or swapping the F_0 rulings changes no verdict.  The
tuples pass the validity tests of `make_pair` on their distinct classes,
give the log adjoint family's integer form (constant -K - C, increments
the classes, denominator 1), and from it the log del Pezzo verdict (the
nef-cone rule on -K - C) and the exact body (`CandidatePair.body`, the
rows `angles` writes for a pair, against the nef-cone normals).  No
`LogPair` is built: `CandidatePair.pair` is built only when a caller
reads it.  The rank-2 test (`CandidatePair.aldp`) first checks that
-K - C is nef, by the integer nef rule of `geometry` on the constant,
and only then writes the body: a candidate that a direct caller builds
outside the nef region gets no rows and no body.  The body is closed at
most once, and a printed rank-2 row reuses that closure.  With -K - C
nef the origin satisfies every row weakly, so the verdict is read off
the closure (ALdP iff it is not canonical empty), and the feasibility
test sees only the rows tight there, the body's tangent cone at the
origin.  An integer point v on the line 1 + k.w, the diagonal
(1, ..., 1) first (`polytope._eliminate`), is tried on those rows: when
it satisfies them, small multiples of it lie in the body and nothing is
eliminated.  Only when it fails are the tight rows eliminated: up to
F_96, on the 3 candidates that are not ALdP and on no other.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache
from typing import Iterator, Optional

from .angles import EXACT, AABody, _family_open_part
from .geometry import (
    SurfaceModel,
    _cached_field,
    _is_ample_numerators,
    _is_nef_numerators,
    fn_irreducible_admissible,
    hirzebruch,
    nef_cone,
    projective_plane,
)
from .pairs import LogPair, _check_boundary, make_pair

LOG_DP = "LogDP"
STRONG = "StronglyALdP"
NOT_STRONG = "ALdPNotStrong"


@cache
def _model(n: Optional[int]) -> SurfaceModel:
    """The plane (n is None) or F_n, one model per surface."""
    return projective_plane() if n is None else hirzebruch(n)


@cache
def _labels(r: int) -> tuple[str, ...]:
    return tuple(f"C{i + 1}" for i in range(r))


class CandidatePair(namedtuple("CandidatePair", "surface n classes")):
    """A candidate boundary on "P2" (n None; `classes` a degree tuple) or
    on "F<n>" (`classes` a tuple of (a, b) tuples)."""

    @_cached_field
    def coords(self) -> tuple[tuple[int, ...], ...]:
        """The classes as integer coordinate vectors in the surface's basis."""
        return tuple((d,) for d in self.classes) if self.n is None else self.classes

    @_cached_field
    def pair(self) -> LogPair:
        """The log pair with boundary C1, C2, ... in `classes` order, built
        once, when a caller first reads it; classify itself never does."""
        return make_pair(_model(self.n), list(zip(_labels(len(self.coords)), self.coords)))

    @_cached_field
    def constant(self) -> tuple[int, ...]:
        """-K - C in integers, -K less the column sums of `coords`: the
        constant of the log adjoint family, whose increments are `coords`
        over the denominator 1.  The boundary passes the validity tests of
        `make_pair` first."""
        s, coords = _model(self.n), self.coords
        _check_boundary(s, _labels(len(coords)), [(k, 1) for k in coords])
        return tuple(-v - sum(col) for v, col in zip(s.canonical, zip(*coords)))

    @property
    def log_dp(self) -> bool:
        """Log del Pezzo: -K - C is ample."""
        return _is_ample_numerators(_model(self.n), self.constant)

    @property
    def aldp(self):
        """Asymptotically log del Pezzo, the rank-2 acceptance test.  -K - C
        must be nef first (the origin's test that `AABody.aldp` makes on the
        offsets), so the body is written only for a candidate that passes."""
        return _is_nef_numerators(_model(self.n), self.constant) and self.body.aldp

    @_cached_field
    def body(self) -> AABody:
        """The exact body of ample angles of `pair`, written from the class
        tuples against the nef-cone normals, closed at most once, when its
        closure is first read."""
        constant, coords = self.constant, self.coords
        return AABody(_family_open_part(len(coords), constant, coords, nef_cone(_model(self.n))), EXACT)


def build_pair(c: CandidatePair) -> LogPair:
    return c.pair


# ---------------------------------------------------------------------------
# Candidate generation


def component_classes(n: int) -> list[tuple[int, int]]:
    """Classes aZ + bF with a <= 2 and b <= n + 2, the bounds of a component
    of a boundary with -K - C nef, that have a smooth irreducible member
    (`fn_irreducible_admissible`), sorted."""
    bounds = itertools.product(range(3), range(n + 3))
    return [ab for ab in bounds if ab != (0, 0) and fn_irreducible_admissible(*ab, n)]


def candidate_multisets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Sorted multisets C of component classes on F_n with -K - C nef.

    -K - C = (2 - sum a)Z + (n + 2 - sum b)F is nef iff sum a <= 2 and
    sum b <= 2 - n + n sum a, i.e. the slack 2 - n + n sum a - sum b is
    >= 0.  The walk extends a prefix within sum a <= 2 and sum b <= n + 2
    and yields the nef ones.  The alphabet is sorted by (a, b), so a class
    past the sum of a ends the walk and one past the sum of b ends its run
    of equal a.  A class of negative self-intersection (Z_n for n >= 1)
    has a unique member and appears at most once.

    A class (a, b) changes the slack by n.a - b, and an admissible class
    has b >= n.a unless it is Z = (1, 0) or a fiber: so Z alone raises the
    slack, by n, and in the sorted alphabet it can follow only fibers.  A
    prefix whose slack, plus n while sum a is 0, is negative has no nef
    extension, and the walk returns from it.  The yields and their order
    stay those of the full walk, and no prefix holds more than two fibers
    before Z, so the recursion is at most five deep for every n.
    """
    alphabet = component_classes(n)
    run_end = {a: idx + 1 for idx, (a, _) in enumerate(alphabet)}
    acc: list[tuple[int, int]] = []

    def rec(start: int, sa: int, sb: int) -> Iterator[tuple[tuple[int, int], ...]]:
        slack = 2 - n + n * sa - sb
        if slack + (0 if sa else n) < 0:
            return
        if acc and slack >= 0:
            yield tuple(acc)
        idx = start
        while idx < len(alphabet):
            a, b = alphabet[idx]
            if sa + a > 2:
                break
            if sb + b > n + 2:
                idx = run_end[a]
                continue
            acc.append((a, b))
            nxt = idx + 1 if (n >= 1 and (a, b) == (1, 0)) else idx
            yield from rec(nxt, sa + a, sb + b)
            acc.pop()
            idx += 1

    yield from rec(0, 0, 0)


def swap_canonical(n: Optional[int], classes: tuple) -> tuple:
    """Multiset key, minimized over the F_0 ruling swap when n = 0 (n is None on the plane)."""
    key = tuple(sorted(classes))
    if n != 0:
        return key
    swapped = tuple(sorted((b, a) for a, b in classes))
    return min(key, swapped)


def p2_degree_multisets() -> Iterator[tuple[int, ...]]:
    """Degree multisets C on the plane with -K - C = (3 - sum d)H nef: total
    degree <= 3."""
    for total in range(1, 4):
        for r in range(1, total + 1):
            for degs in itertools.combinations_with_replacement(range(1, total + 1), r):
                if sum(degs) == total:
                    yield degs


# ---------------------------------------------------------------------------
# Family tables (names and conventional component order)

_P2_RANK2 = [
    ("I.1A", (3,)),
    ("I.1B", (2,)),
    ("I.1C", (1,)),
    ("II.1A", (2, 1)),
    ("II.1B", (1, 1)),
    ("III.1", (1, 1, 1)),
]

_P2_MAEDA = [
    ("Maeda.i", (1,)),
    ("Maeda.ii", (1, 1)),
    ("Maeda.iii", (2,)),
]


def _rank2_rows(n: int) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    rows = [
        (f"I.2.{n}", ((1, 0),)),
        (f"II.2A.{n}", ((1, 0), (1, n))),
        (f"II.2B.{n}", ((1, 0), (1, n + 1))),
        (f"II.2C.{n}", ((1, 0), (0, 1))),
        (f"III.3.{n}", ((1, 0), (0, 1), (1, n))),
    ]
    if n >= 1:
        rows += [
            (f"ALdP.1.{n}", ((1, 0), (1, n + 2))),
            (f"ALdP.2.{n}", ((1, 0), (1, n + 1), (0, 1))),
            (f"ALdP.3.{n}", ((1, 0), (0, 1), (0, 1))),
            (f"ALdP.4.{n}", ((1, 0), (0, 1), (0, 1), (1, n))),
        ]
    if n == 0:
        rows += [
            ("I.4A", ((2, 2),)),
            ("I.4B", ((2, 1),)),
            ("I.4C", ((1, 1),)),
            ("II.4A", ((1, 1), (1, 1))),
            ("II.4B", ((2, 1), (0, 1))),
            ("III.2", ((1, 1), (0, 1), (1, 0))),
            ("IV", ((1, 0), (1, 0), (0, 1), (0, 1))),
        ]
    if n == 1:
        rows += [
            ("I.3A", ((2, 2),)),
            ("I.3B", ((1, 1),)),
            ("I.5.1", ((2, 3),)),
            ("I.6B.1", ((1, 2),)),
            ("I.6C.1", ((0, 1),)),
            ("II.3", ((1, 1), (1, 1))),
            ("II.5A.1", ((2, 2), (0, 1))),
            ("II.5A.1", ((1, 2), (1, 1))),
            ("II.5B.1", ((1, 1), (0, 1))),
            ("III.4.1", ((0, 1), (1, 1), (1, 1))),
        ]
    return rows


def _maeda_rows(n: int) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    rows = [
        ("Maeda.iv", ((1, 0),)),
        ("Maeda.v", ((1, 0), (0, 1))),
    ]
    if n == 1:
        rows.append(("Maeda.vi", ((1, 1),)))
    if n == 0:
        rows.append(("Maeda.vii", ((1, 1),)))
    return rows


def _table(n: Optional[int], rows) -> dict:
    out = {}
    for label, presentation in rows:
        key = swap_canonical(n, presentation)
        if key in out:
            raise AssertionError(f"family table collision at n={n}: {key}")
        out[key] = (label, presentation)
    return out


def match_label(c: CandidatePair) -> str:
    """The unique family containing an asymptotically log del Pezzo candidate."""
    table = _table(c.n, _P2_RANK2 if c.n is None else _rank2_rows(c.n))
    key = swap_canonical(c.n, c.classes)
    if key not in table:
        raise LookupError(f"no rank-2 family matches {c.surface} boundary {c.classes}")
    return table[key][0]


# ---------------------------------------------------------------------------
# Enumerators


def _strength(c: CandidatePair) -> str:
    if c.log_dp:
        return LOG_DP
    return STRONG if c.body.strongly_aldp is True else NOT_STRONG


def _enumerate(accept, p2_rows, fn_rows, n_max: int) -> list[tuple[CandidatePair, str]]:
    """The candidates `accept` holds for, each in its family's presentation:
    the plane in degree order, then F_0, ..., F_n_max, each sorted by
    (label, classes).  An accepted candidate missing from its family table
    raises LookupError."""
    groups = [(None, p2_rows, sorted(p2_degree_multisets()))]
    groups += [(n, fn_rows(n), candidate_multisets(n)) for n in range(n_max + 1)]
    out = []
    for n, rows, candidates in groups:
        surface = "P2" if n is None else f"F{n}"
        table = _table(n, rows)
        found = []
        for key in dict.fromkeys(swap_canonical(n, ms) for ms in candidates):
            label, presentation = table.get(key, (None, key))
            cand = CandidatePair(surface, n, presentation)
            if accept(cand) is not True:
                continue
            if label is None:
                raise LookupError(f"no family matches {surface} boundary {key}")
            found.append((cand, label))
        if n is not None:
            found.sort(key=lambda row: (row[1], row[0].classes))
        out += found
    return out


def enumerate_rank2(n_max: int = 12) -> list[tuple[CandidatePair, str, str]]:
    """All asymptotically log del Pezzo boundaries on the plane and on F_n,
    n <= n_max, each labelled with its family and positivity strength."""
    return [
        (c, label, _strength(c))
        for c, label in _enumerate(lambda c: c.aldp, _P2_RANK2, _rank2_rows, n_max)
    ]


def enumerate_maeda(n_max: int = 12) -> list[tuple[CandidatePair, str]]:
    """All log del Pezzo boundaries on the plane and on F_n, n <= n_max."""
    return _enumerate(lambda c: c.log_dp, _P2_MAEDA, _maeda_rows, n_max)
