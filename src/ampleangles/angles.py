"""Bodies of ample angles.

For a pair (S, C = sum C_i) the body of ample angles is the set of
beta in the open unit cube making  -K - sum (1 - beta_i) C_i  ample.
One row builder writes the strict rows adjoint(beta).w > 0, one per
dual vector w: the nef-cone normals on the plane and F_n, where the
body is an exact rational polyhedron whose closure is the weakened
system; and M.t for every boundary class and tracked curve t of a
blow-up (M the intersection matrix), where it is an outer approximation,
reported with the sign of the self-intersection quadratic on a grid; the
quadratic is the family's integer Gram matrix.  The rows are integer
rows from the start, read off the family's integer form, and the
polytope is those rows; classify writes its candidates' rows with the
same builder, from their class tuples.  `AABody(open_part, exactness)`
is the one body: its closure comes from Fourier-Motzkin elimination and
its vertices from double description on that closure, each computed on
first read, so a caller that reads only the open part runs neither.  The
blow-up report's sign table, on the grid of step 1/16 (1/4 above r = 4),
first counts the grid points of the open body by one walk that prunes
each coordinate by the rows.  With points to sign, it reads the body's
vertices: when their images prove the quadratic positive on the open
body (the Hodge index theorem, `_positive_on_vertices`), every point is
positive and the count is the table.  Otherwise a second walk carries
the quadratic down in integers and signs each point.  The strong ALdP
verdict is read off an exact body's rows.  The ALdP verdict first tests
that -K - C is nef, i.e. that the origin satisfies the weakened rows
(every offset is >= 0), and reads the closure only then: the origin lies
in it iff it is not canonical empty.  Its feasibility test then works on
the rows tight at the origin alone, the body's tangent cone there, and
tries an integer point on the line 1 + k.w (the diagonal first) before
it eliminates them.  Classify makes
the same nef test on its candidates' class tuples before it writes a
body at all.

The reparametrization machinery expresses the adjoint family as
eta * (K + A + F(beta)) for an ample A built from an interior rational
point gamma of the body, with the angle substitution realized by an
invertible affine self-map of the cube.  As in the paper, each boundary
coefficient of F(beta) depends on its own angle alone, so the self-map
is coordinatewise, with slope 1/eta in every coordinate.  It is built
in integer arithmetic over gamma's common denominator, in one pass over
a per-family context: one loop over gamma reads that denominator, the
angles' numerators, their range and eta (the helper `eta` shares); the
family's cached column form holds the increments as one sparse column
per basis coordinate, next to the surface's nef-cone normals, so the
adjoint at gamma and the test that gamma lies in the body are plain
loops on integer numerators.  The self-map and its inverse share their
entries up to order and sign, so one gcd puts both in lowest terms;
they are never built through Fractions.  eta and the ample part's
coefficients are built once each from their reduced integers, and the
outputs are assembled without re-validating their lengths.  The
identities they satisfy hold by construction and are replayed outside
the library.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import polytope as pt
from .geometry import (
    UNKNOWN,
    UNSUPPORTED,
    BlowUp,
    DivisorClass,
    _cached_field,
    _fraction,
    _integer_point,
    _is_ample_numerators,
    intersect,  # unused here; perfbench/test_bench.py reads angles.intersect
    nef_cone,
)
from .pairs import AngleVector, LogPair, log_adjoint

EXACT = "exact"
OUTER = "outer"
_RANK_LE2_ONLY = "exact ampleness constraints exist only for the plane and F_n"


class AABody(namedtuple("AABody", "open_part exactness")):
    """A body of ample angles: its open part (strict ampleness constraints
    and the strict cube) and EXACT or OUTER.  The closure and its vertices
    are computed on first read.  Equality compares the open part and the
    exactness only."""

    @_cached_field
    def closed_hull(self) -> pt.HPolytope:
        """The closure of the open part (canonical empty when it is
        infeasible), by Fourier-Motzkin elimination."""
        return pt.closure(self.open_part)

    @_cached_field
    def vertices(self) -> pt.VPolytope:
        """The closure's vertices, by double description (none when the
        body is empty)."""
        return pt.vertices(self.closed_hull)

    @property
    def exact(self) -> bool:
        return self.exactness == EXACT

    @property
    def aldp(self):
        """The ALdP verdict read off the body: the open part is non-empty and
        the origin lies in its closure.  UNKNOWN when the body is only outer.

        The closure is the weakened rows or canonical empty, so the origin
        lies in it only when it satisfies the weakened rows: every offset is
        >= 0, i.e. -K - C is nef.  Only then is the closure read.  The origin
        then satisfies the weakened rows, so ALdP holds iff the closure is
        not canonical empty, and no point is tested.  The closure's
        feasibility test sees the rows with offset 0 alone, the body's
        tangent cone at the origin, non-empty iff the body is: it first tries
        the line witness t.(1 + k.w) on them and eliminates them only when
        that fails (`polytope._eliminate`)."""
        if not self.exact:
            return UNKNOWN
        open_part = self.open_part
        if any(offset < 0 for _, offset, _ in open_part.integer_rows):
            return False
        return self.closed_hull != pt.canonical_empty(open_part.dim)

    @property
    def strongly_aldp(self):
        """Ampleness on a whole semi-open sub-cube (0, eps]^r, read off the
        open part.  A row c + d.beta > 0 holds on (0, eps]^r for some
        eps > 0 iff c > 0, or c = 0 with d componentwise >= 0 and d != 0;
        the cube faces always pass, and a positive row scale keeps every
        sign.  UNKNOWN when the body is only outer."""
        if not self.exact:
            return UNKNOWN
        return all(
            c > 0 or (c == 0 and all(x >= 0 for x in d) and any(x > 0 for x in d))
            for d, c, _ in self.open_part.integer_rows
        )


def _open_part(p: LogPair) -> tuple[pt.HPolytope, str]:
    """The strict rows adjoint(beta).w > 0, one per dual vector w, cut down
    to the open cube, and the body's exactness.  w runs over the nef-cone
    normals on the plane and F_n (ampleness: the exact body) and over M.t
    for the boundary classes and tracked curves t of a blow-up
    (adjoint.t > 0, necessary only: the outer body).  The rows are integer
    rows: the family's integer form against w, and on a blow-up w = M.t
    from the integer numerators of t.  Each is a positive multiple of the
    rational row, which leaves the polytope as it is."""
    s = p.surface
    if isinstance(s.provenance, BlowUp):
        curves = [c.integer_form[0] for c in p.classes]
        curves += [_integer_point(tc.coeffs)[0] for tc in p.tracked]
        duals = [[sum(map(mul, row, t)) for row in s.intersection_matrix] for t in curves]
        exactness = OUTER
    else:
        duals, exactness = nef_cone(s), EXACT
    _, constant, increments = log_adjoint(p).integer_form
    return _family_open_part(p.r, constant, increments, duals), exactness


def _family_open_part(r: int, constant, increments, duals) -> pt.HPolytope:
    """The strict rows (constant + sum beta_i increment_i).w > 0, one per
    dual vector w, cut down to the open cube, for a family given by integer
    numerators over any positive common denominator.  `classify` writes
    its candidates' bodies with it too, from their class tuples.  Only the
    dual rows are divided by their gcd: the cube rows are coprime already.
    Each row has one coefficient per increment, r of them, so the
    polytope is built without the constructor's length check."""
    rows = [
        pt._normalize([sum(map(mul, inc, w)) for inc in increments], sum(map(mul, constant, w)), True)
        for w in duals
    ]
    return tuple.__new__(pt.HPolytope, (r, (*rows, *pt.cube_rows(r, True))))


def aa_body(p: LogPair) -> AABody:
    """The body (see `_open_part`).  On a blow-up it is the outer body of
    `aa_outer_blowup` without its quadratic report."""
    return AABody(*_open_part(p))


def aa_halfspaces_rank_le2(p: LogPair) -> AABody:
    """Exact body of ample angles for pairs on the plane or a Hirzebruch surface."""
    if isinstance(p.surface.provenance, BlowUp):
        raise ValueError(_RANK_LE2_ONLY)
    return aa_body(p)


def is_aldp(p: LogPair):
    """Asymptotically log del Pezzo: the open body is non-empty and the
    origin lies in its closure.  UNKNOWN when only an outer body exists."""
    return aa_body(p).aldp


def is_strongly_aldp(p: LogPair):
    """Ampleness on a whole semi-open sub-cube (0, eps]^r (see
    `AABody.strongly_aldp`).  UNKNOWN when only an outer body exists."""
    return aa_body(p).strongly_aldp


def is_log_dp(p: LogPair):
    """Log del Pezzo: the adjoint at beta = 0, i.e. -K - C, is ample, tested
    on the family's integer numerators of -K - C.  UNSUPPORTED on blow-ups,
    where no exact ampleness test exists."""
    if isinstance(p.surface.provenance, BlowUp):
        return UNSUPPORTED
    return _is_ample_numerators(p.surface, log_adjoint(p).integer_form[1])


# ---------------------------------------------------------------------------
# Outer approximation on blow-ups


class QuadraticReport(
    namedtuple("QuadraticReport", "constant linear quadratic grid_denominator samples positive zero negative")
):
    """The self-intersection polynomial q(beta) = adjoint(beta)^2, with its
    Fraction coefficients (`quadratic` is symmetric), and its sampled sign
    distribution over a rational grid of the linear outer body: a count of
    the grid points when the body's vertices prove q > 0, else each point
    signed.

    The quadratic is reported, never imposed: it matters only when some
    rank-2 model of the pair has square-zero log canonical class.
    """

    __slots__ = ()


def _grid_levels(denom: int, p: pt.HPolytope):
    """The rows of p that cut the box {1..denom-1}^r, as seen by the grid
    walks: (levels, tested), levels[j] listing (row, c, least - best) for
    each tested row with coefficient c != 0 on k_j, or None when some row
    fails on the whole box.

    A row holds at k when normal.k >= least = strict - offset.denom (an
    integer is > 0 iff it is >= 1).  The walks fix k_0, k_1, ... in turn:
    with the prefix's partial sum s and best, the largest value the rest
    can take, c.k_j >= least - s - best bounds k_j below (c > 0) or above
    (c < 0), so only values that leave every row satisfiable are visited.
    """
    r, top = p.dim, denom - 1
    levels = [[] for _ in range(r)]
    tested = 0
    for normal, offset, strict in p.integer_rows:
        least = int(strict) - offset * denom
        # a row that holds at the minimizing corner of the box needs no test
        if sum(c if c > 0 else c * top for c in normal) >= least:
            continue
        best = 0
        for j in range(r - 1, -1, -1):
            c = normal[j]
            if c:
                levels[j].append((tested, c, least - best))
                best += c * top if c > 0 else c
        # a row that fails at the maximizing corner empties the box
        if best < least:
            return None
        tested += 1
    return levels, tested


def _bounds(level, partial, top: int) -> tuple[int, int]:
    """The values lo..hi of k_j in 1..top that leave every row of `level`
    satisfiable, given the prefix's partial sums."""
    lo, hi = 1, top
    for i, c, need in level:
        need -= partial[i]  # c.k_j >= need
        if c > 0:
            lo = max(lo, -(-need // c))  # the ceiling of need / c
        else:
            hi = min(hi, need // c)  # the floor, as c < 0
    return lo, hi


def _grid_count(denom: int, p: pt.HPolytope) -> int:
    """How many integer points k of {1..denom-1}^r have k/denom in p
    (r = p.dim >= 1): the walk of `_quadratic_signs` without the quadratic.
    The last coordinate's interval is counted as hi - lo + 1 inside the loop
    over the coordinate above it, its rows' partial sums moved along with
    that coordinate, so no call is made per run."""
    setup = _grid_levels(denom, p)
    if setup is None:
        return 0
    levels, tested = setup
    top, last = denom - 1, p.dim - 1
    if not last:
        lo, hi = _bounds(levels[0], [0] * tested, top)
        return max(0, hi - lo + 1)
    # the last coordinate's rows, each with its coefficient on the one above
    above = {i: c for i, c, _ in levels[last - 1]}
    tail = [(i, c, need, above.get(i, 0)) for i, c, need in levels[last]]

    def count(j, partial):
        lo, hi = _bounds(levels[j], partial, top)
        n = 0
        if j + 1 < last:
            for x in range(lo, hi + 1):
                step = partial[:]
                for i, c, _ in levels[j]:
                    step[i] += c * x
                n += count(j + 1, step)
            return n
        # c.k_last >= need - d.x at k_j = x: a lower bound for c > 0, else an upper
        lows = [(c, need - partial[i], d) for i, c, need, d in tail if c > 0]
        highs = [(c, need - partial[i], d) for i, c, need, d in tail if c < 0]
        for x in range(lo, hi + 1):
            a, b = 1, top
            for c, need, d in lows:
                v = -((d * x - need) // c)
                if v > a:
                    a = v
            for c, need, d in highs:
                v = (need - d * x) // c
                if v < b:
                    b = v
            if a <= b:
                n += b - a + 1
        return n

    return count(0, [0] * tested)


def _positive_on_vertices(gram, vertices) -> bool:
    """Whether the vertices prove q(beta) = v.G.v > 0 at v = (1, beta) on the
    open body they span, for G = `gram` pulled back from the intersection
    form of a surface.  For each vertex k/d (k integer, d > 0) let
    w = (d, k), g = G.w and s = w.g = d^2.q(k/d), up to the positive factor
    den^2 of the family's numerators; the test holds iff every s >= 0, the
    largest s, at a vertex w_h, is > 0, and w_h.g >= 0 for every vertex.
    It costs O(m.(r + 1)^2) for m vertices, in integers.

    Soundness rests on the Hodge index theorem (Hartshorne V.1.9): the
    intersection form on a surface has signature (1, rho - 1), so the
    closed positive cone {D : D^2 >= 0, D.D_h >= 0} on the side of D_h,
    D_h^2 > 0, is convex and any two of its classes meet non-negatively.
    The vertex images lie in it.  The adjoint is affine in beta, and a
    point of the open body is a combination of all vertices with positive
    weights lambda, so q there is a sum of non-negative terms
    lambda_u.lambda_w.D_u.D_w, one of which is lambda_h^2.s_h > 0.  So
    the test is sound only for a Gram matrix pulled back from a surface:
    on an arbitrary symmetric matrix it proves nothing."""
    images = []
    for point in vertices:
        d = lcm(*(x.denominator for x in point))
        w = (d, *(x.numerator * (d // x.denominator) for x in point))
        g = [sum(map(mul, row, w)) for row in gram]
        images.append((sum(map(mul, w, g)), w, g))
    if not images or any(s < 0 for s, _, _ in images):
        return False
    top, h, _ = max(images, key=lambda image: image[0])
    return top > 0 and all(sum(map(mul, h, g)) >= 0 for _, _, g in images)


def _quadratic_signs(gram, denom: int, p: pt.HPolytope) -> tuple[int, int, int]:
    """How many integer points k of {1..denom-1}^r with k/denom in p
    (r = p.dim >= 1) give q(k/denom) a positive, zero and negative sign, in
    that order, for q(beta) = v.G.v at v = (1, beta), G = `gram` symmetric.

    The walk over the rows of `_grid_levels` carries, next to the partial
    sums, the integer Q = denom^2.q(k/denom): its terms a in the fixed
    coordinates and the coefficients lin of the free ones, so that fixing
    the next coordinate at x gives Q's new terms a + x.(lin_0 + c.x).  Each
    value of the last coordinate, whose bounds are exact, is signed.
    """
    setup = _grid_levels(denom, p)
    if setup is None:
        return 0, 0, 0
    levels, tested = setup
    top, last = denom - 1, p.dim - 1
    c2 = [row[1:] for row in gram[1:]]
    # cross[j]: the coefficients 2.G_mj of k_m.k_j for m > j
    cross = [[2 * row[j] for row in c2[j + 1 :]] for j in range(last)]

    def scan(j, partial, a, lin):
        lo, hi = _bounds(levels[j], partial, top)
        b, c, rest = lin[0], c2[j][j], lin[1:]
        for x in range(lo, hi + 1):
            q = a + x * (b + c * x)
            if j == last:
                signs[(q <= 0) + (q < 0)] += 1  # 0 positive, 1 zero, 2 negative
                continue
            step = partial[:]
            for i, cj, _ in levels[j]:
                step[i] += cj * x
            scan(j + 1, step, q, [v + w * x for v, w in zip(rest, cross[j])])

    signs = [0, 0, 0]
    scan(0, [0] * tested, gram[0][0] * denom * denom, [2 * denom * v for v in gram[0][1:]])
    return tuple(signs)


def aa_outer_blowup(p: LogPair) -> tuple[AABody, QuadraticReport]:
    """Outer approximation of the body on a blow-up surface.

    Uses only the tracked curve list (boundary, exceptional history, fiber
    transforms through the centers), so the true body is contained in the
    result.  The self-intersection quadratic is signed on the grid of step
    1/16 (1/4 above r = 4) of the open body and reported alongside.  The
    grid points are counted first; with none, the body's closure and
    vertices are not read.  When the vertices prove q > 0 on the open body
    (`_positive_on_vertices`) every point is positive; otherwise each is
    signed (`_quadratic_signs`).  The vertices are the body's cached ones,
    so a report that prints them enumerates them once.
    """
    if not isinstance(p.surface.provenance, BlowUp):
        raise ValueError("outer approximation applies to blow-up surfaces only")
    body = aa_body(p)
    # the Gram matrix of (constant, increments): their integer numerators
    # paired through the lattice matrix, so q(beta) = v.G.v / den^2 at v = (1, beta)
    den, constant, increments = log_adjoint(p).integer_form
    vectors = (constant, *increments)
    duals = [[sum(map(mul, row, v)) for row in p.surface.intersection_matrix] for v in vectors]
    gram = [[sum(map(mul, u, w)) for w in duals] for u in vectors]
    scale = den * den
    const = Fraction(gram[0][0], scale)
    linear = tuple(Fraction(2 * v, scale) for v in gram[0][1:])
    quad = tuple(tuple(Fraction(v, scale) for v in row[1:]) for row in gram[1:])
    # keep the sample count at desk scale for deep blow-ups
    denom = 16 if p.r <= 4 else 4
    samples = _grid_count(denom, body.open_part)
    if not samples:
        signs = (0, 0, 0)
    elif _positive_on_vertices(gram, body.vertices.vertices):
        signs = (samples, 0, 0)
    else:
        signs = _quadratic_signs(gram, denom, body.open_part)
    report = QuadraticReport(const, linear, quad, denom, samples, *signs)
    return body, report


# ---------------------------------------------------------------------------
# Reparametrization machinery


class ReparamData(namedtuple("ReparamData", "gamma eta ample_part f f_inv")):
    """The reparametrization at gamma: eta(gamma), the ample part A
    (independent of beta), the `AffineMap` f taking beta to the coefficient
    vector of F(beta), and its inverse."""

    __slots__ = ()


_OUTSIDE = "gamma must lie in the open body of ample angles"


def _angle_point(entries, message: str) -> tuple[list[int], int, int, int]:
    """(k, d, hn, hd): the angles as integer numerators k over their least
    common denominator d, and eta = hn/hd in lowest terms, in one pass that
    reads each angle's integer ratio once.  Raises ValueError(message) unless
    every angle lies strictly between 0 and 1.

    eta is the largest of (1-g)/g and g/(1-g) over the angles g, i.e.
    (1 - m)/m for the least distance m = min(g, 1 - g) of an angle to the
    cube's faces.  For g = n/q in lowest terms, m = min(n, q - n)/q is in
    lowest terms too, and so is (1 - m)/m."""
    d = 1
    near, far = 1, 1  # m = near/far, 1 until the first angle: eta = 0 on none
    parts = []
    for g in entries:
        n, q = g.as_integer_ratio()
        if not 0 < n < q:
            raise ValueError(message)
        if d % q:
            d = d * q // gcd(d, q)
        m = n if n + n < q else q - n
        if m * far < near * q:
            near, far = m, q
        parts.append((n, q))
    return [n * (d // q) for n, q in parts], d, far - near, near


def eta(gamma: AngleVector) -> Fraction:
    """max over i of (1-gamma_i)/gamma_i and gamma_i/(1-gamma_i), read off
    the numerators and denominators of the angles."""
    _, _, hn, hd = _angle_point(gamma.entries, "eta requires every angle strictly between 0 and 1")
    return _fraction(hn, hd)


def reparam(p: LogPair, gamma: AngleVector) -> ReparamData:
    """The reparametrization at an interior rational gamma.

    The work is integer arithmetic over gamma = k/d, eta = hn/hd and the
    family's column form (numerators over den).  With s = hn + hd:
        A          = s.X / (hn.d.den),  X = d.den.adjoint(gamma)
        f(beta)_i  = (hd.d.beta_i + hn.d - s.k_i) / (hn.d)
        f_inv(x)_i = (hn.d.x_i - hn.d + s.k_i) / (hd.d)
    The adjoint identity, ampleness of A, the [0, 1] bounds of f over the
    closed cube and invertibility hold by construction for any gamma in
    the open body, so they are not re-checked here: the family's constant
    is -den.K minus the column sums, A is a positive multiple of the
    adjoint at gamma, eta is the largest of (1-g)/g and g/(1-g), and f_inv
    is f's closed-form inverse.  `tests/_util.verify_reparam` and
    `perfbench/checks.reparam` replay them from raw coefficients.
    """
    entries = gamma.entries
    if len(entries) != p.r:
        raise ValueError("gamma length must match the number of boundary components")
    if isinstance(p.surface.provenance, BlowUp):
        raise ValueError(_RANK_LE2_ONLY)
    den, constant, columns, normals = log_adjoint(p).column_form
    k, d, hn, hd = _angle_point(entries, _OUTSIDE)
    # X is a positive multiple of the adjoint at gamma, so ample exactly when it is
    x = []
    for c, column in zip(constant, columns):
        v = d * c
        for i, a in column:
            v += a * k[i]
        x.append(v)
    for w in normals:
        if sum(map(mul, w, x)) <= 0:
            raise ValueError(_OUTSIDE)
    s = hn + hd
    hn_d = hn * d
    t_num = [hn_d - s * ki for ki in k]  # f's translation, over hn.d
    f, f_inv = pt._map_and_inverse(hd * d, t_num, hn_d)
    a_den = hn_d * den
    # the lengths hold by construction: x has one entry per basis coordinate
    a_class = tuple.__new__(DivisorClass, (p.surface, tuple([_fraction(s * v, a_den) for v in x])))
    return tuple.__new__(ReparamData, (gamma, _fraction(hn, hd), a_class, f, f_inv))

