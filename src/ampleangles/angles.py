"""Bodies of ample angles.

For a pair (S, C = sum C_i) the body of ample angles is the set of
beta in the open unit cube making  -K - sum (1 - beta_i) C_i  ample.
On the plane and on F_n the ampleness conditions are finitely many
affine inequalities in beta, so the body is an exact rational
polyhedron; its closure is the weakened system.

Three constructions are provided:
  * direct halfspaces from the rank-<=2 ampleness criteria,
  * the preimage of a nef cone under the affine class map beta -> [adjoint(beta)],
  * an outer approximation for blow-up surfaces from the tracked curve
    list, together with a report on the self-intersection quadratic.

The reparametrization machinery expresses the adjoint family as
eta * (K + A + F(beta)) for an ample A built from an interior rational
point gamma of the body, with the angle substitution realized by an
invertible affine self-map of the cube.
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
    Hirzebruch,
    ProjectivePlane,
    Rat,
    intersect,
    is_ample,
    nef_cone,
)
from .pairs import AngleVector, LogAdjointFamily, LogPair, log_adjoint

EXACT = "exact"
OUTER = "outer"


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


def _adjoint_coordinate_forms(family: LogAdjointFamily) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """Each surface-basis coordinate of the adjoint as (offset, beta-coefficients)."""
    rank = family.constant.surface.rank
    r = len(family.increments)
    return [
        (family.constant.coeffs[k], tuple(family.increments[i].coeffs[k] for i in range(r)))
        for k in range(rank)
    ]


def class_map(p: LogPair) -> pt.AffineMap:
    """The affine map from angles to adjoint class coordinates."""
    family = log_adjoint(p)
    forms = _adjoint_coordinate_forms(family)
    return pt.affine_map([list(coeffs) for _, coeffs in forms], [off for off, _ in forms])


def _ample_halfspaces(
    p: LogPair, family: Optional[LogAdjointFamily] = None
) -> list[pt.HalfSpace]:
    """Ampleness of the adjoint family as strict affine constraints on beta (rank <= 2)."""
    prov = p.surface.provenance
    forms = _adjoint_coordinate_forms(family or log_adjoint(p))
    if isinstance(prov, ProjectivePlane):
        off, coeffs = forms[0]
        return [pt.halfspace(coeffs, off, True)]
    if isinstance(prov, Hirzebruch):
        n = prov.n
        (off_a, ca), (off_b, cb) = forms
        return [
            pt.halfspace(ca, off_a, True),
            pt.halfspace([y - n * x for x, y in zip(ca, cb)], off_b - n * off_a, True),
        ]
    raise ValueError("exact ampleness constraints exist only for the plane and F_n")


def _body(r: int, constraints: list[pt.HalfSpace], exactness: str) -> AABody:
    """The strict constraints cut down to the open cube, with their closure."""
    open_part = pt.polytope(r, constraints + pt.cube_halfspaces(r, strict=True))
    return AABody(open_part, pt.closure(open_part), exactness)


def aa_halfspaces_rank_le2(p: LogPair) -> AABody:
    """Exact body of ample angles for pairs on the plane or a Hirzebruch surface."""
    return _body(p.r, _ample_halfspaces(p), EXACT)


def aa_body(p: LogPair) -> AABody:
    """The exact body on the plane and F_n; on a blow-up, the outer body of
    `aa_outer_blowup` without its quadratic report."""
    if isinstance(p.surface.provenance, BlowUp):
        return _outer_body(p)
    return aa_halfspaces_rank_le2(p)


def is_aldp(p: LogPair):
    """Asymptotically log del Pezzo: the open body is non-empty and the
    origin lies in its closure.  UNKNOWN when only an outer body exists."""
    if isinstance(p.surface.provenance, BlowUp):
        return UNKNOWN
    # closure is canonical_empty, which contains no point, exactly when the
    # open part is infeasible, so the one membership test decides both
    return pt.contains(aa_halfspaces_rank_le2(p).closed_hull, [0] * p.r)


def is_strongly_aldp(p: LogPair):
    """Ampleness on a whole semi-open sub-cube (0, eps]^r.

    An affine form c + d.beta is positive on (0, eps]^r for some eps > 0
    iff c > 0, or c = 0 with d componentwise >= 0 and d != 0; the cube
    faces themselves are exempt.
    """
    if isinstance(p.surface.provenance, BlowUp):
        return UNKNOWN
    for hs in _ample_halfspaces(p):
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


def _tracked_constraints(
    p: LogPair, family: Optional[LogAdjointFamily] = None
) -> list[pt.HalfSpace]:
    """Positivity of the adjoint on every tracked curve, as strict constraints."""
    family = family or log_adjoint(p)
    curves = [c for c in p.classes]
    curves += [p.surface.divisor(tc.coeffs) for tc in p.tracked]
    out = []
    for t in curves:
        offset = intersect(family.constant, t)
        normal = [intersect(inc, t) for inc in family.increments]
        out.append(pt.halfspace(normal, offset, True))
    return out


def _outer_body(p: LogPair, family: Optional[LogAdjointFamily] = None) -> AABody:
    if not isinstance(p.surface.provenance, BlowUp):
        raise ValueError("outer approximation applies to blow-up surfaces only")
    return _body(p.r, _tracked_constraints(p, family), OUTER)


def aa_outer_blowup(p: LogPair, grid_denominator: int = 16) -> tuple[AABody, QuadraticReport]:
    """Outer approximation of the body on a blow-up surface.

    Uses only the tracked curve list (boundary, exceptional history, fiber
    transforms through the centers), so the true body is contained in the
    result.  The self-intersection quadratic is evaluated on a grid of the
    linear body and reported alongside.
    """
    family = log_adjoint(p)
    body = _outer_body(p, family)
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
    vals = []
    for g in gamma.entries:
        vals.append((1 - g) / g)
        vals.append(g / (1 - g))
    return max(vals)


def reparam(p: LogPair, gamma: AngleVector) -> ReparamData:
    """Build and verify the reparametrization at an interior rational gamma.

    Checks, exactly: the adjoint identity as an affine family of classes,
    ampleness of A, the [0,1] bounds on the boundary coefficients over the
    closed cube, and invertibility of the angle substitution.  Failures
    raise RuntimeError: each checked statement is a theorem, so a failure
    means an implementation bug.
    """
    r = p.r
    if len(gamma.entries) != r:
        raise ValueError("gamma length must match the number of boundary components")
    lhs = log_adjoint(p)
    open_part = pt.polytope(
        r, _ample_halfspaces(p, family=lhs) + pt.cube_halfspaces(r, strict=True)
    )
    if not pt.contains(open_part, gamma.entries):
        raise ValueError("gamma must lie in the open body of ample angles")
    h = eta(gamma)
    scale = (1 + h) / h
    k_class = p.surface.canonical_class()
    a_class = -scale * (
        k_class + _weighted_boundary(p, [1 - g for g in gamma.entries])
    )
    f = pt.affine_map(
        [[1 / h if i == j else 0 for j in range(r)] for i in range(r)],
        [1 - scale * g for g in gamma.entries],
    )
    f_inv = pt.affine_map(
        [[h if i == j else 0 for j in range(r)] for i in range(r)],
        [-h + (1 + h) * g for g in gamma.entries],
    )

    # (a) the adjoint identity, coefficientwise in the affine family
    rhs_constant = h * (k_class + a_class + _weighted_boundary(p, f.translation))
    if rhs_constant.coeffs != lhs.constant.coeffs:
        raise RuntimeError("reparametrization identity failed on the constant class")
    for i in range(r):
        rhs_inc = h * f.matrix[i][i] * p.classes[i]
        if rhs_inc.coeffs != lhs.increments[i].coeffs:
            raise RuntimeError("reparametrization identity failed on an increment class")
    # (b) A is ample
    if is_ample(p.surface, a_class) is not True:
        raise RuntimeError("reparametrization produced a non-ample A")
    # (c) boundary coefficients stay within [0, 1] over the closed cube
    for i in range(r):
        lo = f.translation[i]
        hi = f.translation[i] + f.matrix[i][i]
        if lo < 0 or hi > 1:
            raise RuntimeError("boundary coefficient bounds failed at a cube vertex")
    # invertibility
    if not f.compose(f_inv).is_identity() or not f_inv.compose(f).is_identity():
        raise RuntimeError("angle substitution is not an exact inverse pair")

    return ReparamData(gamma, h, a_class, f, f_inv)


def _weighted_boundary(p: LogPair, weights: Sequence[Rat]) -> DivisorClass:
    total = Fraction(weights[0]) * p.classes[0]
    for w, c in zip(weights[1:], p.classes[1:]):
        total = total + Fraction(w) * c
    return total
