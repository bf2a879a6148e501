"""Enumeration of log del Pezzo and rank-<=2 asymptotically log del Pezzo pairs.

The enumerators are filter-driven: candidate boundaries are generated
from the admissible component classes within the nef search bounds
(sum of Z-coefficients <= 2, sum of F-coefficients <= n+2), and the
only acceptance test is the relevant positivity predicate.  The
built-in family tables are used solely to *name* the survivors; a
survivor missing from the table is an inconsistency and raises.

F_0 carries the ruling swap (a, b) <-> (b, a); candidates are
deduplicated up to boundary reordering and this swap, and matched to
the families phrased in (p, q)-curve language.

Each candidate owns its pair (`CandidatePair.pair`) and its exact body
(`CandidatePair.body`), each built once in its family's presentation
(key order when the table lacks it); reordering the components or
swapping the F_0 rulings changes no verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .angles import AABody, aa_halfspaces_rank_le2, is_log_dp, is_strongly_aldp
from .geometry import fn_irreducible_admissible, hirzebruch, projective_plane
from .pairs import LogPair, make_pair

LOG_DP = "LogDP"
STRONG = "StronglyALdP"
NOT_STRONG = "ALdPNotStrong"


@dataclass(frozen=True)
class FamilyLabel:
    label: str  # template, e.g. "ALdP.3.n" or "II.4A" or "Maeda.v"
    n: Optional[int] = None

    @property
    def text(self) -> str:
        if self.label.endswith(".n") and self.n is not None:
            return self.label[:-1] + str(self.n)
        return self.label


@dataclass(frozen=True)
class CandidatePair:
    surface: str  # "P2" or "F<n>"
    n: Optional[int]  # None for the plane
    classes: tuple  # degree tuple on P2, (a, b) tuples on F_n

    @cached_property
    def pair(self) -> LogPair:
        """The log pair with boundary C1, C2, ... in `classes` order, built once."""
        if self.n is None:
            surface, coords = projective_plane(), [(d,) for d in self.classes]
        else:
            surface, coords = hirzebruch(self.n), self.classes
        return make_pair(surface, [(f"C{i + 1}", ab) for i, ab in enumerate(coords)])

    @cached_property
    def body(self) -> AABody:
        """The exact body of ample angles of `pair`, closed once."""
        return aa_halfspaces_rank_le2(self.pair)


def build_pair(c: CandidatePair) -> LogPair:
    return c.pair


# ---------------------------------------------------------------------------
# Candidate generation


def component_classes(n: int, max_a: int = 2, max_b: Optional[int] = None) -> list[tuple[int, int]]:
    """Classes aZ + bF of the box a <= max_a, b <= max_b (default n + 2)
    with a smooth irreducible member (`fn_irreducible_admissible`), sorted."""
    if max_b is None:
        max_b = n + 2
    box = itertools.product(range(max_a + 1), range(max_b + 1))
    return [ab for ab in box if ab != (0, 0) and fn_irreducible_admissible(*ab, n)]


def candidate_multisets(
    n: int, max_sum_a: int = 2, max_sum_b: Optional[int] = None, max_a: int = 2
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Sorted multisets of component classes within the coefficient-sum box.

    A class of negative self-intersection (Z_n for n >= 1) has a unique
    member and appears at most once.
    """
    if max_sum_b is None:
        max_sum_b = n + 2
    alphabet = component_classes(n, max_a=max_a, max_b=max_sum_b)
    acc: list[tuple[int, int]] = []

    def rec(start: int, sa: int, sb: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if acc:
            yield tuple(acc)
        for idx in range(start, len(alphabet)):
            a, b = alphabet[idx]
            if sa + a > max_sum_a or sb + b > max_sum_b:
                continue
            acc.append((a, b))
            nxt = idx + 1 if (n >= 1 and (a, b) == (1, 0)) else idx
            yield from rec(nxt, sa + a, sb + b)
            acc.pop()

    yield from rec(0, 0, 0)


def swap_canonical(n: Optional[int], classes: tuple) -> tuple:
    """Multiset key, minimized over the F_0 ruling swap when n = 0 (n is None on the plane)."""
    key = tuple(sorted(classes))
    if n != 0:
        return key
    swapped = tuple(sorted((b, a) for a, b in classes))
    return min(key, swapped)


def p2_degree_multisets(max_total: int = 3) -> Iterator[tuple[int, ...]]:
    for total in range(1, max_total + 1):
        for r in range(1, total + 1):
            for degs in itertools.combinations_with_replacement(range(1, total + 1), r):
                if sum(degs) == total:
                    yield degs


# ---------------------------------------------------------------------------
# Family tables (names and conventional component order)

_P2_RANK2 = [
    ("I.1A", None, (3,)),
    ("I.1B", None, (2,)),
    ("I.1C", None, (1,)),
    ("II.1A", None, (2, 1)),
    ("II.1B", None, (1, 1)),
    ("III.1", None, (1, 1, 1)),
]

_P2_MAEDA = [
    ("Maeda.i", None, (1,)),
    ("Maeda.ii", None, (1, 1)),
    ("Maeda.iii", None, (2,)),
]


def _rank2_rows(n: int) -> list[tuple[str, Optional[int], tuple[tuple[int, int], ...]]]:
    rows = [
        ("I.2.n", n, ((1, 0),)),
        ("II.2A.n", n, ((1, 0), (1, n))),
        ("II.2B.n", n, ((1, 0), (1, n + 1))),
        ("II.2C.n", n, ((1, 0), (0, 1))),
        ("III.3.n", n, ((1, 0), (0, 1), (1, n))),
    ]
    if n >= 1:
        rows += [
            ("ALdP.1.n", n, ((1, 0), (1, n + 2))),
            ("ALdP.2.n", n, ((1, 0), (1, n + 1), (0, 1))),
            ("ALdP.3.n", n, ((1, 0), (0, 1), (0, 1))),
            ("ALdP.4.n", n, ((1, 0), (0, 1), (0, 1), (1, n))),
        ]
    if n == 0:
        rows += [
            ("I.4A", None, ((2, 2),)),
            ("I.4B", None, ((2, 1),)),
            ("I.4C", None, ((1, 1),)),
            ("II.4A", None, ((1, 1), (1, 1))),
            ("II.4B", None, ((2, 1), (0, 1))),
            ("III.2", None, ((1, 1), (0, 1), (1, 0))),
            ("IV", None, ((1, 0), (1, 0), (0, 1), (0, 1))),
        ]
    if n == 1:
        rows += [
            ("I.3A", None, ((2, 2),)),
            ("I.3B", None, ((1, 1),)),
            ("I.5.1", None, ((2, 3),)),
            ("I.6B.1", None, ((1, 2),)),
            ("I.6C.1", None, ((0, 1),)),
            ("II.3", None, ((1, 1), (1, 1))),
            ("II.5A.1", None, ((2, 2), (0, 1))),
            ("II.5A.1", None, ((1, 2), (1, 1))),
            ("II.5B.1", None, ((1, 1), (0, 1))),
            ("III.4.1", None, ((0, 1), (1, 1), (1, 1))),
        ]
    return rows


def _maeda_rows(n: int) -> list[tuple[str, Optional[int], tuple[tuple[int, int], ...]]]:
    rows = [
        ("Maeda.iv", n, ((1, 0),)),
        ("Maeda.v", n, ((1, 0), (0, 1))),
    ]
    if n == 1:
        rows.append(("Maeda.vi", None, ((1, 1),)))
    if n == 0:
        rows.append(("Maeda.vii", None, ((1, 1),)))
    return rows


def _table(n: Optional[int], rows) -> dict:
    out = {}
    for label, label_n, presentation in rows:
        key = swap_canonical(n, presentation)
        if key in out:
            raise AssertionError(f"family table collision at n={n}: {key}")
        out[key] = (FamilyLabel(label, label_n), presentation)
    return out


def match_label(c: CandidatePair) -> FamilyLabel:
    """The unique family containing an asymptotically log del Pezzo candidate."""
    table = _table(c.n, _P2_RANK2 if c.n is None else _rank2_rows(c.n))
    key = swap_canonical(c.n, c.classes)
    if key not in table:
        raise LookupError(f"no rank-2 family matches {c.surface} boundary {c.classes}")
    return table[key][0]


# ---------------------------------------------------------------------------
# Enumerators


def _strength(p: LogPair) -> str:
    if is_log_dp(p) is True:
        return LOG_DP
    return STRONG if is_strongly_aldp(p) is True else NOT_STRONG


def _enumerate(accept, p2_rows, fn_rows, n_max: int) -> list[tuple[CandidatePair, FamilyLabel]]:
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
            found.sort(key=lambda row: (row[1].text, row[0].classes))
        out += found
    return out


def enumerate_rank2(n_max: int = 12) -> list[tuple[CandidatePair, FamilyLabel, str]]:
    """All asymptotically log del Pezzo boundaries on the plane and on F_n,
    n <= n_max, each labelled with its family and positivity strength."""
    return [
        (c, label, _strength(c.pair))
        for c, label in _enumerate(lambda c: c.body.aldp, _P2_RANK2, _rank2_rows, n_max)
    ]


def enumerate_maeda(n_max: int = 12) -> list[tuple[CandidatePair, FamilyLabel]]:
    """All log del Pezzo boundaries on the plane and on F_n, n <= n_max."""
    return _enumerate(lambda c: is_log_dp(c.pair), _P2_MAEDA, _maeda_rows, n_max)
