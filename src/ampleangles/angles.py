"""Bodies of ample angles.

For a pair (S, C = sum C_i) the body of ample angles is the set of
beta in the open unit cube making  -K - sum (1 - beta_i) C_i  ample.
One builder writes the strict rows adjoint(beta).w > 0, one per dual
vector w: the nef-cone normals on the plane and F_n, where the body is
an exact rational polyhedron whose closure is the weakened system; and
M.t for every boundary class and tracked curve t of a blow-up (M the
intersection matrix), where it is an outer approximation, reported with
the sign of the self-intersection quadratic on a grid.  The preimage of
a nef cone under the class map beta -> [adjoint(beta)] gives the exact
body a second way.

The reparametrization machinery expresses the adjoint family as
eta * (K + A + F(beta)) for an ample A built from an interior rational
point gamma of the body, with the angle substitution realized by an
invertible affine self-map of the cube.  It is built and checked in
integer arithmetic over gamma's common denominator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence

from . import polytope as pt
from .geometry import (
    UNKNOWN,
    UNSUPPORTED,
    BlowUp,
    DivisorClass,
    Rat,
    _ZERO,
    _fraction,
    _integer_point,
    intersect,
    is_ample,
    nef_cone,
)
from .pairs import AngleVector, LogPair, log_adjoint

EXACT = "exact"
OUTER = "outer"
_RANK_LE2_ONLY = "exact ampleness constraints exist only for the plane and F_n"


@dataclass(frozen=True)
class AABody:
    open_part: pt.HPolytope  # strict ampleness constraints + strict cube
    closed_hull: pt.HPolytope  # its closure (canonical empty when infeasible)
    exactness: str  # EXACT | OUTER

    @property
    def exact(self) -> bool:
        return self.exactness == EXACT

    def serialize(self) -> str:
        return self.exactness + "\n" + pt.canonical_text(self.closed_hull)

    @property
    def aldp(self):
        """The ALdP verdict read off the body: the open part is non-empty and
        the origin lies in its closure.  UNKNOWN when the body is only outer."""
        if not self.exact:
            return UNKNOWN
        # closure is canonical_empty, which contains no point, exactly when the
        # open part is infeasible, so the one membership test decides both
        return pt.contains(self.closed_hull, [0] * self.closed_hull.dim)


def class_map(p: LogPair) -> pt.AffineMap:
    """The affine map from angles to adjoint class coordinates."""
    family = log_adjoint(p)
    matrix = [[inc.coeffs[k] for inc in family.increments] for k in range(p.surface.rank)]
    return pt.affine_map(matrix, family.constant.coeffs)


def _positivity_rows(p: LogPair) -> tuple[list[pt.HalfSpace], str]:
    """The strict rows adjoint(beta).w > 0, one per dual vector w, and
    their exactness: w runs over the nef-cone normals on the plane and F_n
    (ampleness, exact) and over M.t for the boundary classes and tracked
    curves t of a blow-up (adjoint.t > 0, necessary only).  The rows are
    den times the rational rows, computed on the family's integer form."""
    s = p.surface
    if isinstance(s.provenance, BlowUp):
        curves = [c.coeffs for c in p.classes] + [tc.coeffs for tc in p.tracked]
        duals = [[sum(map(mul, row, t)) for row in s.intersection_matrix] for t in curves]
        exactness = OUTER
    else:
        duals, exactness = nef_cone(s), EXACT
    _, constant, increments = log_adjoint(p).integer_form
    rows = [
        pt.halfspace([sum(map(mul, inc, w)) for inc in increments], sum(map(mul, constant, w)), True)
        for w in duals
    ]
    return rows, exactness


def aa_body(p: LogPair) -> AABody:
    """The positivity rows cut down to the open cube, with their closure:
    the exact body on the plane and F_n; on a blow-up, the outer body of
    `aa_outer_blowup` without its quadratic report."""
    rows, exactness = _positivity_rows(p)
    open_part = pt.polytope(p.r, rows + pt.cube_halfspaces(p.r, strict=True))
    return AABody(open_part, pt.closure(open_part), exactness)


def aa_halfspaces_rank_le2(p: LogPair) -> AABody:
    """Exact body of ample angles for pairs on the plane or a Hirzebruch surface."""
    if isinstance(p.surface.provenance, BlowUp):
        raise ValueError(_RANK_LE2_ONLY)
    return aa_body(p)


def is_aldp(p: LogPair):
    """Asymptotically log del Pezzo: the open body is non-empty and the
    origin lies in its closure.  UNKNOWN when only an outer body exists."""
    if isinstance(p.surface.provenance, BlowUp):
        return UNKNOWN
    return aa_halfspaces_rank_le2(p).aldp


def is_strongly_aldp(p: LogPair):
    """Ampleness on a whole semi-open sub-cube (0, eps]^r.

    An affine form c + d.beta is positive on (0, eps]^r for some eps > 0
    iff c > 0, or c = 0 with d componentwise >= 0 and d != 0; the cube
    faces themselves are exempt.
    """
    if isinstance(p.surface.provenance, BlowUp):
        return UNKNOWN
    for hs in _positivity_rows(p)[0]:
        c, d = hs.offset, hs.normal
        if c > 0:
            continue
        if c == 0 and all(x >= 0 for x in d) and any(x > 0 for x in d):
            continue
        return False
    return True


def is_log_dp(p: LogPair):
    """Log del Pezzo: the adjoint at beta = 0, i.e. -K - C, is ample.

    Propagates UNSUPPORTED from the exact-ampleness test on blow-ups.
    """
    return is_ample(p.surface, log_adjoint(p).at([0] * p.r))


# ---------------------------------------------------------------------------
# Nef-cone preimage construction


def aa_via_nef(p: LogPair, nef: Optional[pt.HPolytope] = None, nef_exact: bool = True) -> AABody:
    """Closure of the body as [0,1]^r intersected with the preimage of the
    nef cone under the class map; built-in cones for the plane and F_n."""
    if nef is None:
        normals = nef_cone(p.surface)  # raises on blow-ups
        nef = pt.polytope(p.surface.rank, [pt.halfspace(nm, 0, False) for nm in normals])
    if nef.dim != p.surface.rank:
        raise ValueError("nef cone dimension must match the surface rank")
    if any(hs.strict or hs.offset != 0 for hs in nef.halfspaces):
        raise ValueError("a nef cone is a closed cone: weak halfspaces through 0")
    phi = class_map(p)
    pulled = pt.affine_preimage(phi, nef).halfspaces
    closed = pt.polytope(
        p.r, pulled + tuple(pt.cube_halfspaces(p.r, strict=False))
    )
    open_part = pt.polytope(
        p.r,
        tuple(hs.strictened() for hs in pulled)
        + tuple(pt.cube_halfspaces(p.r, strict=True)),
    )
    return AABody(open_part, closed, EXACT if nef_exact else OUTER)


# ---------------------------------------------------------------------------
# Outer approximation on blow-ups


@dataclass(frozen=True)
class QuadraticReport:
    """The self-intersection polynomial q(beta) = adjoint(beta)^2 and its
    sampled sign distribution over a rational grid of the linear outer body.

    The quadratic is reported, never imposed: it matters only when some
    rank-2 model of the pair has square-zero log canonical class.
    """

    constant: Fraction
    linear: tuple[Fraction, ...]
    quadratic: tuple[tuple[Fraction, ...], ...]  # symmetric
    grid_denominator: int
    samples: int
    positive: int
    zero: int
    negative: int

    def value(self, beta: Sequence[Rat]) -> Fraction:
        return _quadratic_value(self.constant, self.linear, self.quadratic, beta)


def _quadratic_value(constant, linear, quadratic, beta: Sequence[Rat]) -> Fraction:
    b = [Fraction(x) for x in beta]
    total = constant + sum(l * x for l, x in zip(linear, b))
    for i, bi in enumerate(b):
        if bi == 0:
            continue
        total += bi * sum(quadratic[i][j] * bj for j, bj in enumerate(b) if bj != 0)
    return total


def _quadratic_signs(constant, linear, quadratic, denom: int, points) -> Counter:
    """Counter of the signs (1, 0, -1) of q(k/denom) over integer points k.

    The sign of q(k/denom) is the sign of the integer lcm.denom^2.q(k/denom),
    lcm being that of q's coefficient denominators.
    """
    coeffs = [constant, *linear, *(c for row in quadratic for c in row)]
    scale = lcm(*(c.denominator for c in coeffs))
    c0 = int(constant * scale) * denom * denom
    c1 = [int(c * scale) * denom for c in linear]
    c2 = [[int(c * scale) for c in row] for row in quadratic]
    signs = Counter()
    for k in points:
        q = c0 + sum(ki * (li + sum(map(mul, row, k))) for ki, li, row in zip(k, c1, c2))
        signs[(q > 0) - (q < 0)] += 1
    return signs


def aa_outer_blowup(p: LogPair, grid_denominator: int = 16) -> tuple[AABody, QuadraticReport]:
    """Outer approximation of the body on a blow-up surface.

    Uses only the tracked curve list (boundary, exceptional history, fiber
    transforms through the centers), so the true body is contained in the
    result.  The self-intersection quadratic is evaluated on a grid of the
    linear body and reported alongside.
    """
    if not isinstance(p.surface.provenance, BlowUp):
        raise ValueError("outer approximation applies to blow-up surfaces only")
    family = log_adjoint(p)
    body = aa_body(p)
    const = intersect(family.constant, family.constant)
    linear = tuple(2 * intersect(family.constant, inc) for inc in family.increments)
    quad = tuple(
        tuple(intersect(a, b) for b in family.increments) for a in family.increments
    )
    # keep the sample count at desk scale for deep blow-ups
    denom = grid_denominator if p.r <= 4 else min(grid_denominator, 4)
    # an empty closure means an infeasible open part: no grid point can pass
    if body.closed_hull == pt.canonical_empty(p.r):
        signs = Counter()
    else:
        signs = _quadratic_signs(const, linear, quad, denom, pt.grid_points(body.open_part, denom))
    report = QuadraticReport(
        const, linear, quad, denom, sum(signs.values()), signs[1], signs[0], signs[-1]
    )
    return body, report


# ---------------------------------------------------------------------------
# Reparametrization machinery


@dataclass(frozen=True)
class ReparamData:
    gamma: AngleVector
    eta: Fraction
    ample_part: DivisorClass  # A, independent of beta
    f: pt.AffineMap  # beta -> coefficient vector of F(beta)
    f_inv: pt.AffineMap


def eta(gamma: AngleVector) -> Fraction:
    """max over i of (1-gamma_i)/gamma_i and gamma_i/(1-gamma_i)."""
    if not gamma.interior:
        raise ValueError("eta requires every angle strictly between 0 and 1")
    best_num, best_den = 0, 1
    for g in gamma.entries:
        # g = k/d: the two ratios are (d-k)/k and k/(d-k); keep the larger
        k, d = g.numerator, g.denominator
        num, den = (d - k, k) if d - k > k else (k, d - k)
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den)


def reparam(p: LogPair, gamma: AngleVector) -> ReparamData:
    """Build and verify the reparametrization at an interior rational gamma.

    Checks, exactly: the adjoint identity as an affine family of classes,
    ampleness of A, the [0,1] bounds on the boundary coefficients over the
    closed cube, and invertibility of the angle substitution.  Failures
    raise RuntimeError: each checked statement is a theorem, so a failure
    means an implementation bug.

    The work is integer arithmetic over gamma = k/d, eta = hn/hd and the
    family's integer form (numerators over den).  With s = hn + hd:
        A          = s.X / (hn.d.den),  X = d.den.adjoint(gamma)
        f(beta)_i  = (hd.d.beta_i + hn.d - s.k_i) / (hn.d)
        f_inv(x)_i = (hn.d.x_i - hn.d + s.k_i) / (hd.d)
    """
    r = p.r
    if len(gamma.entries) != r:
        raise ValueError("gamma length must match the number of boundary components")
    if isinstance(p.surface.provenance, BlowUp):
        raise ValueError(_RANK_LE2_ONLY)
    family = log_adjoint(p)
    den, constant, increments = family.integer_form
    k, d = _integer_point(gamma.entries)
    # X is a positive multiple of the adjoint at gamma, so ample exactly when it is
    x = family.integer_at(k, d)
    if not all(0 < ki < d for ki in k) or is_ample(p.surface, p.surface.divisor(x)) is not True:
        raise ValueError("gamma must lie in the open body of ample angles")
    h = eta(gamma)
    hn, hd = h.numerator, h.denominator
    s = hn + hd
    a_num = [s * v for v in x]
    a_class = DivisorClass(p.surface, tuple(_fraction(v, hn * d * den) for v in a_num))
    t_num = [hn * d - s * ki for ki in k]  # f's translation, over hn.d
    f = _diagonal_map(Fraction(hd, hn), [_fraction(t, hn * d) for t in t_num])
    f_inv = _diagonal_map(h, [_fraction(-t, hd * d) for t in t_num])

    # (a) the adjoint identity, coefficientwise in the affine family:
    # hn.d.den.(K + A + F(0)) = hd.d.den.constant, and h.f_ii = 1 so h.f_ii.C_i = C_i
    k_class = p.surface.canonical
    for j, (kj, aj, cj) in enumerate(zip(k_class, a_num, constant)):
        lhs = hn * d * den * kj + aj + sum(t * inc[j] for t, inc in zip(t_num, increments))
        if lhs != hd * d * cj:
            raise RuntimeError("reparametrization identity failed on the constant class")
    if any(h * f.matrix[i][i] != 1 for i in range(r)):
        raise RuntimeError("reparametrization identity failed on an increment class")
    # (b) A is ample
    if is_ample(p.surface, a_class) is not True:
        raise RuntimeError("reparametrization produced a non-ample A")
    # (c) boundary coefficients stay within [0, 1] over the closed cube:
    # f_i(0) = t_i/(hn.d) and f_i(1) = (t_i + hd.d)/(hn.d)
    if any(t < 0 or t + hd * d > hn * d for t in t_num):
        raise RuntimeError("boundary coefficient bounds failed at a cube vertex")
    # invertibility
    if not f.compose(f_inv).is_identity() or not f_inv.compose(f).is_identity():
        raise RuntimeError("angle substitution is not an exact inverse pair")

    return ReparamData(gamma, h, a_class, f, f_inv)


def _diagonal_map(diagonal: Fraction, translation: list[Fraction]) -> pt.AffineMap:
    """x -> diagonal.x + translation, sharing one zero off the diagonal."""
    r = len(translation)
    return pt.AffineMap(
        tuple(tuple(diagonal if i == j else _ZERO for j in range(r)) for i in range(r)),
        tuple(translation),
    )
