"""Exact rational polyhedra in angle space.

H-representations mix strict and weak halfspaces (ampleness is an open
condition, cube faces are closed).  Feasibility is decided by
Fourier-Motzkin elimination over the gcd-normalized integer rows, with
strictness combined by OR; infeasibility certificates are rebuilt from
the provenance of the violated row.  Vertex enumeration is the double
description method over the same integer rows; Fourier-Motzkin enters it
only when the normals have rank below the dimension.  Grid scans test
those integer rows against integer points, and affine maps apply and
compose on cached integer forms.  Everything is exact, over
`fractions.Fraction` and `int`; there is no floating-point mode.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence

from .geometry import Rat, _fraction, _integer_point


@dataclass(frozen=True)
class HalfSpace:
    """The set normal.x + offset > 0 (strict) or >= 0 (weak)."""

    normal: tuple[Fraction, ...]
    offset: Fraction
    strict: bool

    def evaluate(self, x: Sequence[Fraction]) -> Fraction:
        return sum(n * v for n, v in zip(self.normal, x) if n) + self.offset

    def holds(self, x: Sequence[Fraction]) -> bool:
        v = self.evaluate(x)
        return v > 0 if self.strict else v >= 0

    def weakened(self) -> "HalfSpace":
        return HalfSpace(self.normal, self.offset, False)

    def strictened(self) -> "HalfSpace":
        return HalfSpace(self.normal, self.offset, True)


def halfspace(normal: Sequence[Rat], offset: Rat, strict: bool) -> HalfSpace:
    return HalfSpace(tuple(Fraction(c) for c in normal), Fraction(offset), strict)


@dataclass(frozen=True)
class HPolytope:
    dim: int
    halfspaces: tuple[HalfSpace, ...]

    def __post_init__(self):
        for hs in self.halfspaces:
            if len(hs.normal) != self.dim:
                raise ValueError("halfspace dimension mismatch")

    @cached_property
    def integer_rows(self) -> tuple[tuple[tuple[int, ...], int, bool], ...]:
        """The halfspaces as (normal, offset, strict), each scaled by a
        positive rational to coprime integers (see `_normalize_row`)."""
        return tuple(_normalize_row(hs.normal, hs.offset, hs.strict) for hs in self.halfspaces)


@dataclass(frozen=True)
class VPolytope:
    dim: int
    vertices: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class AffineMap:
    """x |-> matrix.x + translation, with exact rational entries."""

    matrix: tuple[tuple[Fraction, ...], ...]
    translation: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.matrix) != len(self.translation):
            raise ValueError("matrix rows must match translation length")

    @property
    def domain_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def codomain_dim(self) -> int:
        return len(self.translation)

    @cached_property
    def integer_form(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
        """(matrix, translation, den): the entries as integer numerators over
        den, the least common denominator of all of them."""
        n, m = self.domain_dim, self.codomain_dim
        k, den = _integer_point([v for row in self.matrix for v in row] + list(self.translation))
        return tuple(tuple(k[i * n : (i + 1) * n]) for i in range(m)), tuple(k[m * n :]), den

    def apply(self, x: Sequence[Rat]) -> tuple[Fraction, ...]:
        """The image of x, computed on the integer form against x = k/xden."""
        if len(x) != self.domain_dim:
            raise ValueError("point dimension mismatch")
        matrix, translation, den = self.integer_form
        k, xden = _integer_point(x)
        return tuple(
            _fraction(sum(map(mul, row, k)) + t * xden, den * xden)
            for row, t in zip(matrix, translation)
        )

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner, computed on the integer forms: over den1.den2 the
        matrix is M1.M2 and the translation M1.t2 + den2.t1.  Zero entries of
        self are skipped."""
        if inner.codomain_dim != self.domain_dim:
            raise ValueError("composition dimension mismatch")
        m1, t1, den1 = self.integer_form
        m2, t2, den2 = inner.integer_form
        den = den1 * den2
        rows, trans = [], []
        for row, t in zip(m1, t1):
            nums, shift = [0] * inner.domain_dim, den2 * t
            for a, inner_row, inner_t in zip(row, m2, t2):
                if a:
                    nums = [v + a * w for v, w in zip(nums, inner_row)]
                    shift += a * inner_t
            rows.append(tuple(_fraction(v, den) for v in nums))
            trans.append(_fraction(shift, den))
        return AffineMap(tuple(rows), tuple(trans))

    def is_identity(self) -> bool:
        n = self.domain_dim
        if self.codomain_dim != n or any(t != 0 for t in self.translation):
            return False
        return all(
            self.matrix[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
        )


def affine_map(matrix: Sequence[Sequence[Rat]], translation: Sequence[Rat]) -> AffineMap:
    return AffineMap(
        tuple(tuple(Fraction(c) for c in row) for row in matrix),
        tuple(Fraction(c) for c in translation),
    )


def identity_map(dim: int) -> AffineMap:
    return affine_map([[1 if i == j else 0 for j in range(dim)] for i in range(dim)], [0] * dim)


def polytope(dim: int, halfspaces: Iterable[HalfSpace]) -> HPolytope:
    return HPolytope(dim, tuple(halfspaces))


def canonical_empty(dim: int) -> HPolytope:
    """The canonical empty polytope: the single unsatisfiable constraint -1 >= 0."""
    return polytope(dim, [halfspace([0] * dim, -1, False)])


def cube_halfspaces(dim: int, strict: bool) -> list[HalfSpace]:
    """Faces of [0,1]^dim: x_i >= 0 and 1 - x_i >= 0 (strict variants for (0,1)^dim)."""
    out = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        out.append(halfspace(e, 0, strict))
        out.append(halfspace([-c for c in e], 1, strict))
    return out


def intersection(p: HPolytope, q: HPolytope) -> HPolytope:
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    return polytope(p.dim, p.halfspaces + q.halfspaces)


# ---------------------------------------------------------------------------
# Feasibility via Fourier-Motzkin elimination


def _normalize_row(normal: tuple[Fraction, ...], offset: Fraction, strict: bool):
    """Scale by a positive rational so entries are coprime integers."""
    ints, _ = _integer_point((*normal, offset))
    g = gcd(*ints) or 1  # an all-zero row stays as it is
    ints = [v // g for v in ints]
    return tuple(ints[:-1]), ints[-1], strict


def _eliminate(p: HPolytope):
    """Fourier-Motzkin elimination over the integer rows; the provenance of
    a violated constant row, or None when the system is feasible.

    Eliminating a variable combines each lower row (coefficient al > 0)
    with each upper row (-au < 0) into au.low + al.up, divided by its gcd,
    strict when either is.  A constant integer row is violated when its
    offset is below its strictness: an integer is > 0 exactly when it is
    >= 1.  Each distinct row keeps the provenance of its first derivation:
    its index among the input rows, or (au, low, al, up, gcd).
    """
    rows: dict[tuple, object] = {}
    for i, row in enumerate(p.integer_rows):
        rows.setdefault(row, i)
    for k in range(p.dim - 1, -1, -1):
        lows, ups, rest = [], [], {}
        for (normal, offset, strict), why in rows.items():
            if not any(normal):
                if offset < strict:
                    return why
                continue
            a = normal[k]
            reduced = normal[:k] + normal[k + 1 :]
            if a > 0:
                lows.append((reduced, offset, strict, a, why))
            elif a < 0:
                ups.append((reduced, offset, strict, -a, why))
            else:  # dropping a zero keeps the row gcd-normalized
                rest.setdefault((reduced, offset, strict), why)
        for nl, cl, sl, al, wl in lows:
            for nu, cu, su, au, wu in ups:
                normal = [au * x + al * y for x, y in zip(nl, nu)]
                offset = au * cl + al * cu
                g = gcd(offset, *normal) or 1
                key = (tuple(x // g for x in normal), offset // g, sl or su)
                if key not in rest:
                    rest[key] = (au, wl, al, wu, g)
        rows = rest
    return next((why for (_, offset, strict), why in rows.items() if offset < strict), None)


def is_feasible(p: HPolytope) -> bool:
    """Exact nonemptiness of a mixed strict/weak rational inequality system."""
    return _eliminate(p) is None


def infeasibility_certificate(p: HPolytope) -> Optional[tuple[Fraction, ...]]:
    """Nonnegative multipliers combining the halfspaces into a contradiction.

    Returns lambda with sum lambda_i * normal_i = 0 and c = sum lambda_i *
    offset_i violating the combined relation (c < 0, or c <= 0 when some
    strict constraint enters with positive weight); None when feasible.
    The multipliers unfold the provenance of the violated row found by the
    elimination.  Re-verify with `verify_certificate`.
    """
    why = _eliminate(p)
    if why is None:
        return None
    lam = [Fraction(0)] * len(p.halfspaces)

    def unfold(why, weight: Fraction) -> None:
        # derivations are at most dim deep: each step eliminates a variable
        if isinstance(why, int):
            hs, (normal, offset, _) = p.halfspaces[why], p.integer_rows[why]
            # integer_rows[why] is halfspaces[why] times a positive scale
            lam[why] += weight * next(
                (b / a for a, b in zip((*hs.normal, hs.offset), (*normal, offset)) if a), 1
            )
        else:
            au, low, al, up, g = why
            unfold(low, weight * au / g)
            unfold(up, weight * al / g)

    unfold(why, Fraction(1))
    return tuple(lam)


def verify_certificate(p: HPolytope, cert: tuple[Fraction, ...]) -> bool:
    """Substitute the multipliers back into the system: a valid certificate
    is nonnegative, cancels every variable, and leaves an absurd constant."""
    if len(cert) != len(p.halfspaces) or any(lam < 0 for lam in cert):
        return False
    combined = [Fraction(0)] * p.dim
    offset = Fraction(0)
    strict = False
    for lam, hs in zip(cert, p.halfspaces):
        if lam == 0:
            continue
        for j, c in enumerate(hs.normal):
            combined[j] += lam * c
        offset += lam * hs.offset
        strict = strict or hs.strict
    if any(c != 0 for c in combined):
        return False
    return offset <= 0 if strict else offset < 0


def closure(p: HPolytope) -> HPolytope:
    """Topological closure: empty if infeasible, otherwise all strict flags cleared.

    For a feasible mixed system the weakened system equals the closure:
    any point of the weakened system is a limit of segment points toward
    an interior witness, by convexity.
    """
    if not is_feasible(p):
        return canonical_empty(p.dim)
    return polytope(p.dim, [hs.weakened() for hs in p.halfspaces])


def contains(p: HPolytope, x: Sequence[Rat]) -> bool:
    """Membership, tested on the integer rows against x = k/den."""
    k, den = _integer_point(x)
    if len(k) != p.dim:
        raise ValueError("point dimension mismatch")
    # an integer is > 0 exactly when it is >= 1
    return all(
        sum(map(mul, normal, k)) + offset * den >= strict
        for normal, offset, strict in p.integer_rows
    )


# ---------------------------------------------------------------------------
# Vertex enumeration by double description


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*v)
    return tuple(x // g for x in v)


def _simplicial_cone(rows: list[tuple[int, ...]]):
    """The first n independent rows B (n = row length) as indices, and the
    extreme rays of B.y >= 0: the columns of B^-1, as primitive integer
    vectors.  None when the rows have rank < n."""
    n = len(rows[0])
    basis, echelon = [], []  # echelon: (pivot column, reduced row)
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for col, e in echelon:
            if v[col]:
                f = v[col] / e[col]
                v = [a - f * b for a, b in zip(v, e)]
        col = next((c for c, x in enumerate(v) if x), None)
        if col is not None:
            basis.append(i)
            echelon.append((col, v))
            if len(basis) == n:
                break
    if len(basis) < n:
        return None
    # Gauss-Jordan on [B | I] leaves B^-1 on the right
    a = [[Fraction(x) for x in rows[i]] + [Fraction(int(j == k)) for k in range(n)]
         for j, i in enumerate(basis)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    rays = [_primitive(_integer_point([a[r][n + k] for r in range(n)])[0]) for k in range(n)]
    return basis, rays


def _extreme_rays(rows: list[tuple[int, ...]]) -> Optional[list[tuple[int, ...]]]:
    """Extreme rays of the cone {y : row.y >= 0 for every row}; None when
    the rows have rank below the row length, i.e. the cone is not pointed.

    Double description (Fukuda & Prodon 1996): start from a simplicial
    cone and add one row at a time, combining a ray on its positive side
    with one on its negative side only when the two are adjacent.  The
    combinatorial test decides adjacency: the rays share at least n - 2
    zero rows among those added so far, and no third ray is zero on all
    of them.  Zero sets are bitmasks over row indices.
    """
    n = len(rows[0])
    cone = _simplicial_cone(rows)
    if cone is None:
        return None
    basis, rays = cone
    zeros = []
    for ray in rays:
        zeros.append(sum(1 << i for i in basis if sum(map(mul, rows[i], ray)) == 0))
    in_basis = set(basis)
    for i, row in enumerate(rows):
        if i in in_basis:
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
                if common.bit_count() < n - 2:
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
    return rays


def vertices(p: HPolytope) -> VPolytope:
    """Exact vertex list of a closed bounded polyhedron, lexicographically sorted.

    Double description over the gcd-normalized integer rows: the rows
    a.x + c >= 0 are homogenized to a.x + c.t >= 0 together with t >= 0,
    and the vertices are x/t over the extreme rays of that cone with
    t > 0.  A ray with t = 0 is a recession direction; all rays having
    t = 0 means the system is empty.  When the normals have rank < dim
    the cone is not pointed: the system is empty or contains a line, and
    only then does Fourier-Motzkin feasibility decide which.
    """
    if any(hs.strict for hs in p.halfspaces):
        raise ValueError("vertex enumeration requires a closed (weak) system")
    dim = p.dim
    rows = dict.fromkeys(normal + (offset,) for normal, offset, _ in p.integer_rows)
    unbounded = ValueError("vertex enumeration requires a bounded polyhedron")
    # with t >= 0 the homogenized rows have rank 1 + the rank of the normals
    rays = _extreme_rays([(0,) * dim + (1,), *rows])
    if rays is None:
        if is_feasible(p):
            raise unbounded
        return VPolytope(dim, ())
    found = [ray for ray in rays if ray[-1] > 0]
    if found and len(found) < len(rays):
        raise unbounded
    return VPolytope(
        dim, tuple(sorted(tuple(Fraction(x, ray[-1]) for x in ray[:-1]) for ray in found))
    )


def grid_points(p: HPolytope, denom: int) -> Iterable[tuple[int, ...]]:
    """The integer points k of {1..denom-1}^dim with k/denom in p.

    Each row is tested in integer form: normal.k + offset.denom is > 0
    (strict) or >= 0 (weak) on the gcd-normalized row; the first failing
    row rejects the point.
    """
    tests = []
    for normal, offset, strict in p.integer_rows:
        least = int(strict) - offset * denom  # an integer is > 0 iff it is >= 1
        # a row that holds at the minimizing corner of the box needs no test
        if sum(c if c > 0 else c * (denom - 1) for c in normal) < least:
            tests.append((normal, least))
    for k in itertools.product(range(1, denom), repeat=p.dim):
        for normal, least in tests:
            if sum(map(mul, normal, k)) < least:
                break
        else:
            yield k


# ---------------------------------------------------------------------------
# Affine operations


def affine_preimage(m: AffineMap, p: HPolytope) -> HPolytope:
    """Pull halfspaces back through x = m(beta): normal' = M^T.normal,
    offset' = normal.translation + offset; strictness preserved."""
    if m.codomain_dim != p.dim:
        raise ValueError("map codomain must match polytope dimension")
    out = []
    for hs in p.halfspaces:
        normal = tuple(
            sum(hs.normal[i] * m.matrix[i][j] for i in range(m.codomain_dim))
            for j in range(m.domain_dim)
        )
        offset = sum(n * t for n, t in zip(hs.normal, m.translation)) + hs.offset
        out.append(HalfSpace(normal, offset, hs.strict))
    return polytope(m.domain_dim, out)


def substitute(p: HPolytope, index: int, value: Rat) -> HPolytope:
    """Section of p by the hyperplane x_index = value (0-based index)."""
    if not 0 <= index < p.dim:
        raise ValueError("substitution index out of range")
    v = Fraction(value)
    out = []
    for hs in p.halfspaces:
        normal = hs.normal[:index] + hs.normal[index + 1 :]
        offset = hs.offset + hs.normal[index] * v
        out.append(HalfSpace(normal, offset, hs.strict))
    return polytope(p.dim - 1, out)


def remove_redundant(p: HPolytope) -> HPolytope:
    """Greedy minimal H-representation defining the same set."""
    kept = list(p.halfspaces)
    i = 0
    while i < len(kept):
        hs = kept[i]
        rest = kept[:i] + kept[i + 1 :]
        # hs is redundant iff rest cannot violate it
        negation = HalfSpace(
            tuple(-c for c in hs.normal), -hs.offset, not hs.strict
        )
        if not is_feasible(polytope(p.dim, rest + [negation])):
            kept = rest
        else:
            i += 1
    return polytope(p.dim, kept)


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


def parse_canonical(text: str, dim: int) -> HPolytope:
    """Inverse of canonical_text, for round-trip checks."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        body, rel = line.split("|")
        coeffs = [Fraction(tok) for tok in body.split()]
        parts = rel.split()
        if len(parts) != 3 or parts[2] != "0" or parts[1] not in (">", ">="):
            raise ValueError(f"bad canonical constraint line: {line!r}")
        if len(coeffs) != dim:
            raise ValueError(f"constraint dimension mismatch in line: {line!r}")
        out.append(halfspace(coeffs, Fraction(parts[0]), parts[1] == ">"))
    return polytope(dim, out)
