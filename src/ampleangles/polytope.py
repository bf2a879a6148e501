"""Exact rational polyhedra in angle space.

A polytope is its rows: (normal, offset, strict) with coprime integer
entries, the set of x with normal.x + offset > 0 (strict) or >= 0
(weak).  Ampleness is an open condition and cube faces are closed, so
the rows mix both kinds.  `integer_polytope` is the one constructor: it
scales each integer row by its gcd once, and every kernel below works on
those rows alone.  `halfspaces` is a Fraction view of them, kept for the
benchmark's span hooks.  Feasibility is decided by Fourier-Motzkin
elimination over the rows; when every offset is >= 0, the origin
satisfies each row weakly, and only the rows with offset 0 (the tangent
cone there, non-empty iff the system is) are eliminated.  Strictness is
combined by OR, and Chernikov's rule applies: after t eliminated
variables, a combined row built from more than t + 1 input rows is
implied by the others and is dropped.  A "feasible" answer that may rest
on a history discarded with a duplicate row is confirmed by
back-substitution, which builds a point of the rows eliminated.
Infeasibility certificates are nonnegative integer multipliers on the
rows, rebuilt from the provenance of the violated row.  That
elimination decides every closure.  Vertex enumeration is the double
description method over a closed system's rows, fraction-free from the
whole space on, with a lineality space; it only lists vertices, and it
tells an empty system from one with a line on its own.
Closures, sections and the canonical text all work on the rows.  An
affine map is the coordinatewise substitution x_i -> (slope.x_i +
shift_i)/den, kept as those integers in lowest terms; it applies on
them, and its Fraction matrix and translation are views built on each
read.  Everything is exact, over `fractions.Fraction` and `int`; there
is no floating-point mode.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from fractions import Fraction
from math import ceil, floor, gcd
from operator import mul
from typing import Iterable, Optional, Sequence

from .geometry import Rat, _fraction, _integer_point


Row = tuple[tuple[int, ...], int, bool]


class HalfSpace(namedtuple("HalfSpace", "normal offset strict")):
    """The set normal.x + offset > 0 (strict) or >= 0 (weak), in rational
    coefficients: the Fraction view of one integer row."""

    __slots__ = ()

    def evaluate(self, x: Sequence[Fraction]) -> Fraction:
        return sum(n * v for n, v in zip(self.normal, x) if n) + self.offset

    def holds(self, x: Sequence[Fraction]) -> bool:
        v = self.evaluate(x)
        return v > 0 if self.strict else v >= 0


class HPolytope(namedtuple("HPolytope", "dim integer_rows")):
    """The rows (normal, offset, strict), integers divided by their gcd,
    are the polytope: equality compares them."""

    def __new__(cls, dim: int, integer_rows: tuple[Row, ...]):
        if any(len(normal) != dim for normal, _, _ in integer_rows):
            raise ValueError("row dimension mismatch")
        return tuple.__new__(cls, (dim, integer_rows))

    @cached_property
    def halfspaces(self) -> tuple[HalfSpace, ...]:
        """The rows as `HalfSpace`s, a Fraction view of the integer rows
        that the benchmark's span hooks read."""
        return tuple(
            HalfSpace(tuple(map(Fraction, normal)), Fraction(offset), strict)
            for normal, offset, strict in self.integer_rows
        )


class VPolytope(namedtuple("VPolytope", "dim vertices")):
    """The vertices, tuples of Fractions, of a polytope in dimension dim."""

    __slots__ = ()


class AffineMap(namedtuple("AffineMap", "slope shift den")):
    """x |-> (slope.x + shift)/den, coordinate by coordinate: x_i goes to
    (slope.x_i + shift_i)/den, with one slope for every coordinate.  The
    map is its integer form: the constructor divides out the gcd of den,
    slope and shift and makes den positive, so equality compares the exact
    map.  `matrix` (the dense diagonal) and `translation` are Fraction
    views, built on each read and not kept on the map."""

    __slots__ = ()

    def __new__(cls, slope: int, shift: Sequence[int], den: int):
        if den == 0:
            raise ValueError("affine map denominator must be nonzero")
        g = gcd(den, slope, *shift)
        if den < 0:
            g = -g
        return tuple.__new__(cls, (slope // g, tuple(t // g for t in shift), den // g))

    @property
    def dim(self) -> int:
        return len(self.shift)

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        r = self.dim
        return tuple(
            tuple(_fraction(self.slope if i == j else 0, self.den) for j in range(r)) for i in range(r)
        )

    @property
    def translation(self) -> tuple[Fraction, ...]:
        return tuple(_fraction(v, self.den) for v in self.shift)

    def apply(self, x: Sequence[Rat]) -> tuple[Fraction, ...]:
        """The image of x, computed on the integer form against x = k/xden."""
        if len(x) != self.dim:
            raise ValueError("point dimension mismatch")
        k, xden = _integer_point(x)
        den = self.den * xden
        return tuple(_fraction(self.slope * v + t * xden, den) for v, t in zip(k, self.shift))


def _map_and_inverse(slope: int, shift: Sequence[int], den: int) -> tuple[AffineMap, AffineMap]:
    """The map x |-> (slope.x + shift)/den and its inverse x |-> (den.x -
    shift)/slope.  The two share their entries up to order and sign, so
    one gcd puts both in lowest terms; each denominator (den, and slope for
    the inverse) must be nonzero and is made positive, as the `AffineMap`
    constructor makes it."""
    if not slope or not den:
        raise ValueError("affine map denominator must be nonzero")
    g = gcd(slope, den, *shift)
    g_f = g if den > 0 else -g
    g_inv = g if slope > 0 else -g
    return (
        tuple.__new__(AffineMap, (slope // g_f, tuple([t // g_f for t in shift]), den // g_f)),
        tuple.__new__(AffineMap, (den // g_inv, tuple([-t // g_inv for t in shift]), slope // g_inv)),
    )


def _normalize(normal: Sequence[int], offset: int, strict: bool) -> Row:
    """The integer row divided by the gcd of its entries; an all-zero row
    stays as it is."""
    g = gcd(offset, *normal)
    if g > 1:
        return tuple(c // g for c in normal), offset // g, strict
    return tuple(normal), offset, strict


def integer_polytope(dim: int, rows: Iterable[tuple[Sequence[int], int, bool]]) -> HPolytope:
    """The polytope of integer rows (normal, offset, strict), each scaled
    once to coprime entries."""
    return HPolytope(dim, tuple(_normalize(*row) for row in rows))


def canonical_empty(dim: int) -> HPolytope:
    """The canonical empty polytope: the single unsatisfiable constraint -1 >= 0."""
    return HPolytope(dim, (((0,) * dim, -1, False),))


@lru_cache(maxsize=None)
def cube_rows(dim: int, strict: bool) -> tuple[Row, ...]:
    """Faces of [0,1]^dim as integer rows: x_i >= 0 and 1 - x_i >= 0
    (strict variants for (0,1)^dim)."""
    out = []
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        out.append((e, 0, strict))
        out.append((tuple(-c for c in e), 1, strict))
    return tuple(out)


# ---------------------------------------------------------------------------
# Feasibility via Fourier-Motzkin elimination


def _eliminate(p: HPolytope):
    """Fourier-Motzkin elimination over the integer rows with Chernikov's
    rule; the provenance of a violated constant row, or None when the
    system is feasible.  When every offset is >= 0, only the rows with
    offset 0 enter: the tangent cone of the system at the origin.

    The tangent cone.  Suppose x0 satisfies every row weakly.  Then the
    system is non-empty iff the rows tight at x0, with their strictness,
    have a common solution v.  If x is a point of the system, v = x - x0
    is one: a tight row reads normal.x0 + offset = 0, so normal.v equals
    the row's value at x.  Conversely take x0 + t.v for t > 0: a tight row
    takes the value t.(normal.v), which keeps its sign, and a slack row,
    positive at x0, stays positive for small t.  At x0 = 0 the tight rows
    are those with offset 0, and they keep their caller's index and mask
    bit, so a certificate is over the caller's rows, with 0 on every row
    whose offset is positive.

    Eliminating a variable combines each lower row (coefficient al > 0)
    with each upper row (-au < 0) into au.low + al.up, divided by its gcd,
    strict when either is.  A constant integer row is violated when its
    offset is below its strictness: an integer is > 0 exactly when it is
    >= 1.  Each row keeps (why, mask): its provenance, an input index or
    (au, low, al, up, gcd), and the bitmask of the input rows it came
    from.  After t variables are eliminated, a combined row whose mask
    has more than t + 1 bits is dropped before it is built.

    Why a dropped row is implied by kept rows.  A row derived in t steps
    is lambda.(input rows) for multipliers lambda >= 0 whose support is
    its mask and which cancel the t eliminated coefficients.  These
    lambda form a pointed cone C_t.  At an extreme ray of C_t the rows of
    the support have a one-dimensional space of such multipliers, so the
    support has at most rank + 1 <= t + 1 rows.  A lambda with more than
    t + 1 rows in its support is therefore a positive sum of extreme rays
    whose supports lie in its own, and its row is the same sum of their
    rows.  The rule keeps every extreme ray: an extreme ray of C_t+1 is
    an extreme ray of C_t with a zero coefficient, which is carried, or a
    positive sum of two extreme rays of C_t of opposite signs, whose
    combination has at most t + 2 rows.  So when the system is
    infeasible, the violated row of some extreme ray survives.

    Why a dropped strict row is implied strictly.  A strict input row in
    its mask has positive weight in lambda, so at least one extreme ray
    of the sum contains that row, and that ray's row is strict.  A
    violated sum 0 > c with c <= 0 thus has a summand that is violated
    too: either some summand has a negative constant, or all constants
    are 0 and a strict summand reads 0 > 0.

    Duplicates.  The argument needs each kept mask to lie in the support
    of every derivation of its row.  A row derived again with a nested
    mask keeps the smaller one, their intersection, and the argument
    holds.  Incomparable masks leave only their intersection, which prunes
    far less, so the row keeps the smaller history, and a drop in a later
    step may rest on it.  Keeping either history alone can lose a needed
    row.  Take -x + 2y + 2 >= 0, y + 1 > 0, -2x - y - 1 > 0 and
    x - 2y - 2 >= 0 in this order, and eliminate y.  Then -x > 0 comes from
    rows {1, 3} and again from rows {2, 3}, and x > 0 from rows {2, 4}.
    Only the second mask of -x > 0 meets that of x > 0 in three rows, the
    bound for 0 > 0.  So when a step after such a merge drops a row, a
    "feasible" answer is confirmed by `_back_substitute`, which builds a
    point of the rows that entered (of the cone, when only the cone
    entered) from the rows kept at each step.  When it cannot,
    it returns a dropped combination that the partial point violates; that
    row joins the input rows with a fresh mask bit, and the elimination
    runs again.  Each such row is new and is a row of unpruned
    elimination, of which there are finitely many, so the rounds end.
    """
    # with the origin weakly inside, only its tangent cone is eliminated
    cone = all(offset >= 0 for _, offset, _ in p.integer_rows)
    inputs: dict[tuple, tuple] = {}
    for i, row in enumerate(p.integer_rows):
        if not (cone and row[1]):
            inputs.setdefault(row, (i, 1 << i))
    bits = len(p.integer_rows)
    while True:
        rows, levels, merged, unproven = inputs, [], False, False
        for k in range(p.dim - 1, -1, -1):
            limit = p.dim - k + 1
            doubtful, dropped = merged, False
            lows, ups, rest = [], [], {}
            for (normal, offset, strict), kept in rows.items():
                if not any(normal):
                    if offset < strict:
                        return kept[0]
                    continue
                a = normal[k]
                reduced = normal[:k] + normal[k + 1 :]
                if a > 0:
                    lows.append((reduced, offset, strict, a, kept))
                elif a < 0:
                    ups.append((reduced, offset, strict, -a, kept))
                else:  # dropping a zero keeps the row gcd-normalized and distinct
                    rest[reduced, offset, strict] = kept
            for nl, cl, sl, al, (wl, ml) in lows:
                for nu, cu, su, au, (wu, mu) in ups:
                    mask = ml | mu
                    if mask.bit_count() > limit:
                        dropped = True
                        continue
                    normal = [au * x + al * y for x, y in zip(nl, nu)]
                    offset = au * cl + al * cu
                    g = gcd(offset, *normal) or 1
                    key = (tuple(x // g for x in normal), offset // g, sl or su)
                    old = rest.get(key)
                    if old is not None:
                        if mask & old[1] == old[1]:
                            continue
                        if mask & old[1] != mask:
                            merged = True
                            if mask.bit_count() >= old[1].bit_count():
                                continue
                    rest[key] = ((au, wl, al, wu, g), mask)
            unproven = unproven or (doubtful and dropped)
            levels.append(rows)
            rows = rest
        why = next((kept[0] for (_, offset, strict), kept in rows.items() if offset < strict), None)
        if why is not None or not unproven:
            return why
        point, cut = _back_substitute(levels[::-1])
        if point is not None:
            return None
        inputs[cut[0]] = (cut[1], 1 << bits)
        bits += 1


def _back_substitute(levels: list[dict]):
    """Build a point from the rows kept by the elimination, x_0 first:
    (point, None) when every coordinate has a value, else (None, (row,
    why)) for the combination of the two rows that leave x_k no value.

    levels[k] holds the rows in x_0..x_k kept before x_k was eliminated.
    With x_0..x_k-1 fixed as num/den, each row with a nonzero x_k
    coefficient bounds x_k from one side, strictly or not.  The value is
    the midpoint of the two tightest bounds, a step of 1 past a single
    bound, or 0.  When the bounds leave nothing, their Fourier-Motzkin
    combination is violated at the partial point, so it is a row the
    pruning dropped; it comes back with zeros for x_k and every later
    coordinate.
    """
    num: list[int] = []
    den = 1
    for k, rows in enumerate(levels):
        # the tightest bounds n/(d.den) on each side, d > 0: (n, d, strict, row, why)
        low = up = None
        for row, (why, _) in rows.items():
            normal, offset, strict = row
            a = normal[k]
            if not a:
                continue
            # a.x_k.den + s holds: x_k >= -s/(a.den) for a > 0, x_k <= s/(-a.den) for a < 0
            s = sum(map(mul, normal, num)) + offset * den
            if a > 0:
                c = 1 if low is None else -s * low[1] - low[0] * a
                if c > 0 or (c == 0 and strict):
                    low = (-s, a, strict, row, why)
            else:
                c = 1 if up is None else -up[0] * a - s * up[1]
                if c > 0 or (c == 0 and strict):
                    up = (s, -a, strict, row, why)
        lo = None if low is None else Fraction(low[0], low[1] * den)
        hi = None if up is None else Fraction(up[0], up[1] * den)
        if lo is None:
            x = Fraction(0) if hi is None else Fraction(ceil(hi) - 1)
        elif hi is None:
            x = Fraction(floor(lo) + 1)
        elif lo < hi or (lo == hi and not (low[2] or up[2])):
            x = (lo + hi) / 2
        else:
            (nl, cl, sl), (nu, cu, su) = low[3], up[3]
            al, au = nl[k], -nu[k]
            normal = [au * x + al * y for x, y in zip(nl[:k], nu[:k])]
            offset = au * cl + al * cu
            g = gcd(offset, *normal) or 1
            row = (tuple(x // g for x in normal) + (0,) * (len(levels) - k), offset // g, sl or su)
            return None, (row, (au, low[4], al, up[4], g))
        scale = x.denominator // gcd(den, x.denominator)
        num = [v * scale for v in num] + [x.numerator * (den * scale // x.denominator)]
        den *= scale
    return tuple(Fraction(v, den) for v in num), None


def is_feasible(p: HPolytope) -> bool:
    """Exact nonemptiness of a mixed strict/weak rational inequality system."""
    return _eliminate(p) is None


def infeasibility_certificate(p: HPolytope) -> Optional[tuple[int, ...]]:
    """Nonnegative integer multipliers combining the integer rows into a
    contradiction, divided by their gcd; None when feasible.

    lambda.normals = 0, and c = lambda.offsets violates the combined
    relation: c < 0, or c <= 0 when some strict row enters with positive
    weight.  The multipliers unfold the provenance of the violated row
    found by the elimination, carrying (s, lambda) with s.row =
    lambda.integer_rows for s > 0: an input row i is (1, e_i), and a step
    (au, low, al, up, g) gives g.s_l.s_u.row = au.s_u.lambda_l +
    al.s_l.lambda_u.  Re-verify with `verify_certificate`.
    """
    why = _eliminate(p)
    if why is None:
        return None
    m = len(p.integer_rows)

    def unfold(why) -> tuple[int, list[int]]:
        # each step eliminates a variable, so a derivation is at most dim deep
        # per round of the elimination
        if isinstance(why, int):
            return 1, [int(i == why) for i in range(m)]
        au, low, al, up, g = why
        (sl, ll), (su, lu) = unfold(low), unfold(up)
        s, lam = g * sl * su, [au * su * x + al * sl * y for x, y in zip(ll, lu)]
        d = gcd(s, *lam)
        return s // d, [x // d for x in lam]

    lam = unfold(why)[1]
    d = gcd(*lam)
    return tuple(x // d for x in lam)


def verify_certificate(p: HPolytope, cert: Sequence[int]) -> bool:
    """Substitute the multipliers back into the integer rows: a valid
    certificate is nonnegative, cancels every variable, and leaves an
    absurd constant."""
    if len(cert) != len(p.integer_rows) or any(lam < 0 for lam in cert):
        return False
    combined = [0] * p.dim
    offset = 0
    strict = False
    for lam, (normal, c, s) in zip(cert, p.integer_rows):
        if not lam:
            continue
        combined = [x + lam * y for x, y in zip(combined, normal)]
        offset += lam * c
        strict = strict or s
    return not any(combined) and (offset <= 0 if strict else offset < 0)


def closure(p: HPolytope) -> HPolytope:
    """Topological closure: empty if infeasible, otherwise the same rows with
    every strict flag cleared.

    For a feasible mixed system the weakened system equals the closure:
    any point of the weakened system is a limit of segment points toward
    an interior witness, by convexity.
    """
    if not is_feasible(p):
        return canonical_empty(p.dim)
    return _weakened(p)


def _weakened(p: HPolytope) -> HPolytope:
    """The rows of p with every strict flag cleared."""
    return HPolytope(p.dim, tuple((normal, offset, False) for normal, offset, _ in p.integer_rows))


def contains(p: HPolytope, x: Sequence[Rat]) -> bool:
    """Membership, tested on the integer rows against x = k/den, the
    numerators over their least common denominator: the rows are tested
    in turn until one fails."""
    if len(x) != p.dim:
        raise ValueError("point dimension mismatch")
    k, den = _integer_point(x)
    for normal, offset, strict in p.integer_rows:
        # an integer is > 0 exactly when it is >= 1
        if sum(map(mul, normal, k)) + offset * den < strict:
            return False
    return True


# ---------------------------------------------------------------------------
# Vertex enumeration by double description


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    """v divided by the gcd of its entries; the zero vector stays zero."""
    g = gcd(*v) or 1
    return tuple(x // g for x in v)


def _double_description(rows: Sequence[tuple[int, ...]]):
    """The cone {y : row.y >= 0 for every row} as (rays, lines): its
    extreme rays modulo its lineality space and a basis of that space,
    primitive integer vectors.  The lines are empty exactly when the rows
    have rank n (the row length), i.e. when the cone is pointed.

    Double description (Fukuda & Prodon 1996) from the whole space: the
    lines start as the unit vectors, there are no rays, and the rows
    enter in the caller's order.  A row that is nonzero on some line
    splits off the first such line l, oriented so that a = row.l > 0:
    every other line and every ray y moves onto the row's hyperplane as
    a.y - (row.y).l, and l becomes a ray.  Each earlier row is zero on l,
    so the moves keep every sign on them, and l's zero set is every
    earlier row.  A row that is zero on every line keeps the rays on its
    nonnegative side and combines a ray on its positive side with one on
    its negative side only when the two are adjacent.  The combinatorial
    test decides adjacency: the rays share at least n - len(lines) - 2
    zero rows among those added so far, and no third ray is zero on all
    of them.  Zero sets are bitmasks over row indices.
    """
    n = len(rows[0])
    lines = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays, zeros = [], []
    for i, row in enumerate(rows):
        values = [sum(map(mul, row, line)) for line in lines]
        k = next((k for k, v in enumerate(values) if v), None)
        if k is not None:
            a, split = values[k], lines.pop(k)
            if a < 0:
                a, split = -a, tuple(-x for x in split)
            moved = []
            for y in lines + rays:
                v = sum(map(mul, row, y))
                moved.append(_primitive([a * x - v * z for x, z in zip(y, split)]) if v else y)
            lines, rays = moved[: len(lines)], moved[len(lines) :] + [split]
            zeros = [z | (1 << i) for z in zeros] + [(1 << i) - 1]
            continue
        values = [sum(map(mul, row, ray)) for ray in rays]
        pos = [k for k, v in enumerate(values) if v > 0]
        neg = [k for k, v in enumerate(values) if v < 0]
        new_rays, new_zeros = [], []
        for k, v in enumerate(values):
            if v >= 0:
                new_rays.append(rays[k])
                new_zeros.append(zeros[k] | (1 << i) if v == 0 else zeros[k])
        for kp in pos:
            for kn in neg:
                common = zeros[kp] & zeros[kn]
                if common.bit_count() < n - len(lines) - 2:
                    continue
                if any(
                    zeros[k] & common == common
                    for k in range(len(rays))
                    if k != kp and k != kn
                ):
                    continue
                vp, vn = values[kp], -values[kn]
                new_rays.append(
                    _primitive([vp * b + vn * a for a, b in zip(rays[kp], rays[kn])])
                )
                new_zeros.append(common | (1 << i))
        rays, zeros = new_rays, new_zeros
    return rays, lines


def vertices(p: HPolytope) -> VPolytope:
    """Exact vertex list of a closed bounded polyhedron, lexicographically sorted.

    Double description over the gcd-normalized integer rows: the rows
    a.x + c >= 0 are homogenized to a.x + c.t >= 0 together with t >= 0,
    and the vertices are x/t over the extreme rays of that cone with
    t > 0.  Every line has t = 0, so the system is empty when no ray has
    t > 0; otherwise a line or a ray with t = 0 is a recession direction.
    """
    if any(strict for _, _, strict in p.integer_rows):
        raise ValueError("vertex enumeration requires a closed (weak) system")
    dim = p.dim
    rows = dict.fromkeys(normal + (offset,) for normal, offset, _ in p.integer_rows)
    rays, lines = _double_description([(0,) * dim + (1,), *rows])
    found = [ray for ray in rays if ray[-1] > 0]
    if found and (lines or len(found) < len(rays)):
        raise ValueError("vertex enumeration requires a bounded polyhedron")
    return VPolytope(
        dim, tuple(sorted(tuple(Fraction(x, ray[-1]) for x in ray[:-1]) for ray in found))
    )


# ---------------------------------------------------------------------------
# Sections


def substitute(p: HPolytope, index: int, value: Rat) -> HPolytope:
    """Section of p by the hyperplane x_index = value (0-based index): with
    value = k/den each row becomes den.normal' . x' + den.offset + k.normal_index."""
    if not 0 <= index < p.dim:
        raise ValueError("substitution index out of range")
    k, den = Fraction(value).as_integer_ratio()
    return integer_polytope(
        p.dim - 1,
        [
            (tuple(den * c for c in normal[:index] + normal[index + 1 :]),
             den * offset + k * normal[index], strict)
            for normal, offset, strict in p.integer_rows
        ],
    )


# ---------------------------------------------------------------------------
# Canonical textual form

_REL = {True: ">", False: ">="}


def canonical_lines(p: HPolytope) -> list[str]:
    """One line per constraint: integer coefficients (gcd-normalized by a
    positive scale), then the offset, then the relation; deduplicated and
    sorted lexicographically."""
    lines = set()
    for normal, offset, strict in p.integer_rows:
        body = " ".join(str(c) for c in normal)
        lines.add(f"{body} | {offset} {_REL[strict]} 0")
    return sorted(lines)


def canonical_text(p: HPolytope) -> str:
    return "\n".join(canonical_lines(p))
