"""Shared test oracles, kept independent of the library paths they check."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul

from ampleangles import classify as cl
from ampleangles.angles import EXACT, AABody
from ampleangles.geometry import BlowUp, Hirzebruch, ProjectivePlane
from ampleangles.polytope import HalfSpace, cube_rows, integer_polytope

F = Fraction


def halfspace(normal, offset, strict):
    """The rational row normal.x + offset > 0 (strict) or >= 0 (weak)."""
    return HalfSpace(tuple(F(c) for c in normal), F(offset), strict)


def rational_rows(p):
    """The integer rows of p as rational `HalfSpace`s."""
    return tuple(halfspace(normal, offset, strict) for normal, offset, strict in p.integer_rows)


def polytope(dim, halfspaces):
    """The polytope of rational rows, each times the least common
    denominator of its entries, built by the library's one constructor."""
    rows = []
    for hs in halfspaces:
        den = lcm(*(F(c).denominator for c in (*hs.normal, hs.offset)))
        rows.append((tuple(int(c * den) for c in hs.normal), int(hs.offset * den), hs.strict))
    return integer_polytope(dim, rows)


def reverify_certificate(rows, p, cert):
    """Check an integer certificate of p on the rational rows p was built
    from, independently of the library: each integer row of p is a positive
    multiple t_i of rows[i], so cert_i.t_i are multipliers on rows[i]; they
    must cancel every variable and leave an absurd constant.  The
    certificate itself must be nonnegative ints with gcd 1."""
    assert type(cert) is tuple and len(cert) == len(rows) == len(p.integer_rows)
    assert all(type(lam) is int and lam >= 0 for lam in cert) and gcd(*cert) == 1
    weights = []
    for lam, hs, (normal, offset, strict) in zip(cert, rows, p.integer_rows):
        assert strict == hs.strict
        pairs = list(zip((*normal, offset), (*hs.normal, hs.offset)))
        t = next((F(a) / b for a, b in pairs if b), F(1))
        assert t > 0 and all(a == t * b for a, b in pairs)
        weights.append(lam * t)
    for j in range(p.dim):
        assert sum(w * hs.normal[j] for w, hs in zip(weights, rows)) == 0
    constant = sum(w * hs.offset for w, hs in zip(weights, rows))
    strict = any(w and hs.strict for w, hs in zip(weights, rows))
    assert constant <= 0 if strict else constant < 0


def grid(r, denom):
    """Interior rational grid of (0,1)^r with step 1/denom."""
    steps = [F(k, denom) for k in range(1, denom)]
    return product(steps, repeat=r)


def brute_force_grid_points(p, denom):
    """The integer points k of {1..denom-1}^dim with k/denom in p, in
    lexicographic order: every point of the box, tested against every
    integer row (normal.k + offset.denom > 0 strict, >= 0 weak).  An oracle
    for the library's pruned scan."""
    return [
        k
        for k in product(range(1, denom), repeat=p.dim)
        if all(
            sum(c * x for c, x in zip(normal, k)) + offset * denom >= strict
            for normal, offset, strict in p.integer_rows
        )
    ]


def grid_system(rng, dim, denom):
    """Random mixed integer rows, most of them hyperplanes through a random
    point of the closed box so that they cut it, and most turned to keep one
    random grid point; sometimes the cube's faces, a duplicate row, or a
    constant row that holds or fails everywhere."""
    rows = []
    span = max(denom, 2)
    keep = [rng.randint(1, span - 1) for _ in range(dim)]
    for _ in range(rng.randint(0, 5)):
        normal = [rng.randint(-6, 6) if rng.random() < 0.75 else 0 for _ in range(dim)]
        through = [rng.randint(0, span) for _ in range(dim)]
        offset = -(sum(c * k for c, k in zip(normal, through)) // span) + rng.randint(-1, 1)
        if sum(c * k for c, k in zip(normal, keep)) + offset * span < 0 and rng.random() < 0.8:
            normal, offset = [-c for c in normal], -offset
        rows.append((normal, offset, rng.random() < 0.5))
    if rng.random() < 0.3:
        rows += cube_rows(dim, rng.random() < 0.5)
    if rows and rng.random() < 0.2:
        rows.append(rng.choice(rows))
    if rng.random() < 0.1:
        rows.append(((0,) * dim, rng.choice([-1, 0, 1]), rng.random() < 0.5))
    rng.shuffle(rows)
    return integer_polytope(dim, rows)


def random_gram(rng, r):
    """A random symmetric (r + 1) x (r + 1) integer matrix, entries in -9..9."""
    upper = [[rng.randint(-9, 9) for _ in range(r + 1)] for _ in range(r + 1)]
    return [[upper[min(i, j)][max(i, j)] for j in range(r + 1)] for i in range(r + 1)]


def unit_gram(r):
    """The Gram matrix of q = 1 in r angles: every point is positive."""
    return [[int(i == j == 0) for j in range(r + 1)] for i in range(r + 1)]


def gram_signs(gram, denom, points):
    """How many integer points k give q(k/denom) a positive, zero and
    negative sign, in that order, for q(beta) = v.G.v at v = (1, beta):
    each point on its own, as the integer denom^2.q(k/denom) = w.G.w at
    w = (denom, k)."""
    signs = Counter()
    for k in points:
        w = (denom, *k)
        q = sum(x * sum(map(mul, row, w)) for x, row in zip(w, gram))
        signs[(q > 0) - (q < 0)] += 1
    return signs[1], signs[0], signs[-1]


def adjoint_coeffs(surface_minus_k, boundary, beta):
    """-K - sum (1-beta_i) C_i computed directly on coefficient tuples."""
    out = list(F(c) for c in surface_minus_k)
    for b, cls in zip(beta, boundary):
        w = 1 - F(b)
        for k, c in enumerate(cls):
            out[k] -= w * F(c)
    return tuple(out)


def direct_ample_fn(n, boundary, beta):
    """Ampleness of the log adjoint on F_n by the a>0, b>na criterion."""
    a, b = adjoint_coeffs((2, n + 2), boundary, beta)
    return a > 0 and b > n * a


def direct_ample_p2(boundary, beta):
    """Ampleness of the log adjoint on the plane by degree positivity."""
    (d,) = adjoint_coeffs((3,), boundary, beta)
    return d > 0


def family_at(family, beta):
    """The class of a log adjoint family at rational beta, evaluated on its
    integer form (den, constant, increments): with beta = k/d the class is
    d.constant + sum k_i.increment_i over d.den."""
    beta = [F(b) for b in beta]
    d = lcm(*(b.denominator for b in beta))
    k = [b.numerator * (d // b.denominator) for b in beta]
    den, constant, increments = family.integer_form
    nums = [d * c + sum(ki * inc[j] for ki, inc in zip(k, increments)) for j, c in enumerate(constant)]
    return family.constant.surface.divisor([F(v, d * den) for v in nums])


def _adjoint_parts(p):
    """(constant, increments) of -K - sum (1 - beta_i) C_i on coefficient
    tuples: the constant is -K - sum C_i, the increments are the C_i."""
    increments = [tuple(F(c) for c in cls.coeffs) for cls in p.classes]
    minus_k = [-c for c in p.surface.canonical]
    return adjoint_coeffs(minus_k, increments, [0] * p.r), increments


def fraction_intersect(matrix, a, b):
    """a.b for plain coefficient lists a, b and the lattice matrix, summed
    in Fractions term by term: an oracle for the library's integer
    `intersect`."""
    total = F(0)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        row = matrix[i]
        total += F(ai) * sum(row[j] * F(bj) for j, bj in enumerate(b) if bj != 0)
    return total


def adjoint_square_signs(p, points, denom):
    """How many integer points k give adjoint(k/denom)^2 a positive, zero
    and negative sign, in that order: the adjoint -K - sum (1 - beta_i) C_i
    on coefficient tuples, squared through the lattice matrix, exactly.
    With L the common denominator of -K - sum C_i and the C_i, the
    coefficients times denom.L are integers, and the square times
    (denom.L)^2 > 0 keeps its sign."""
    constant, increments = _adjoint_parts(p)
    scale = lcm(*(c.denominator for c in (*constant, *(x for inc in increments for x in inc))))
    base = [int(c * scale) * denom for c in constant]
    columns = [[int(x * scale) for x in inc] for inc in increments]
    matrix = p.surface.intersection_matrix
    signs = Counter()
    for k in points:
        v = base
        for x, column in zip(k, columns):
            v = [a + x * b for a, b in zip(v, column)]
        q = sum(a * sum(b * c for b, c in zip(row, v)) for a, row in zip(v, matrix))
        signs[(q > 0) - (q < 0)] += 1
    return signs[1], signs[0], signs[-1]


def tracked_curve_rows(p):
    """Positivity of the adjoint on every boundary class and tracked curve
    of a blow-up, adjoint(beta).t > 0, intersected in Fractions on the
    coefficient tuples: an oracle for the library's outer rows."""
    m = p.surface.intersection_matrix
    constant, increments = _adjoint_parts(p)
    curves = increments + [tc.coeffs for tc in p.tracked]
    return [
        halfspace(
            [fraction_intersect(m, inc, t) for inc in increments],
            fraction_intersect(m, constant, t),
            True,
        )
        for t in curves
    ]


def explicit_ample_rows(p):
    """Ampleness of the adjoint as strict rows in beta, written out per
    surface: degree > 0 on the plane; a > 0 and b - n.a > 0 for aZ + bF
    on F_n.  An oracle for the library's exact rows."""
    constant, increments = _adjoint_parts(p)
    rows = [halfspace([c[0] for c in increments], constant[0], True)]
    prov = p.surface.provenance
    if isinstance(prov, Hirzebruch):
        n = prov.n
        normal = [c[1] - n * c[0] for c in increments]
        rows.append(halfspace(normal, constant[1] - n * constant[0], True))
    return rows


def oracle_rows(p):
    """The oracle rows for the body of p: outer on a blow-up, else exact."""
    if isinstance(p.surface.provenance, BlowUp):
        return tracked_curve_rows(p)
    return explicit_ample_rows(p)


def _scaled(normal, offset, strict):
    """The row divided by its largest absolute entry: one positive rescaling
    shared by all rows proportional to it."""
    m = max(map(abs, (*normal, offset))) or 1
    return tuple(c / m for c in normal), offset / m, strict


def fm_is_feasible(p):
    """Fourier-Motzkin feasibility over Fraction rows, strictness combined
    by OR: an oracle for the library's integer elimination."""
    rows = {_scaled(hs.normal, F(hs.offset), hs.strict) for hs in rational_rows(p)}
    for k in range(p.dim - 1, -1, -1):
        lows, ups, rest = [], [], set()
        for normal, offset, strict in rows:
            # constant rows can be checked immediately
            if all(c == 0 for c in normal):
                if (offset <= 0) if strict else (offset < 0):
                    return False
                continue
            a = normal[k]
            reduced = normal[:k] + normal[k + 1 :]
            if a > 0:
                lows.append((reduced, offset, strict, a))
            elif a < 0:
                ups.append((reduced, offset, strict, -a))
            else:
                rest.add(_scaled(reduced, offset, strict))
        for (nl, cl, sl, al), (nu, cu, su, au) in product(lows, ups):
            normal = tuple(x / al + y / au for x, y in zip(nl, nu))
            rest.add(_scaled(normal, cl / al + cu / au, sl or su))
        rows = rest
    return all(offset > 0 if strict else offset >= 0 for _, offset, strict in rows)


# ---------------------------------------------------------------------------
# Rational polytope oracles: HalfSpace rows in plain Fractions


def cube_halfspaces(dim, strict):
    """Faces of [0,1]^dim: x_i >= 0 and 1 - x_i >= 0 (strict for (0,1)^dim)."""
    out = []
    for i in range(dim):
        e = [int(i == j) for j in range(dim)]
        out += [halfspace(e, 0, strict), halfspace([-c for c in e], 1, strict)]
    return out


def intersection(p, q):
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    return polytope(p.dim, rational_rows(p) + rational_rows(q))


# An affine map here is a (matrix, translation) pair of plain Fractions.


def identity_map(dim):
    return tuple(tuple(F(int(i == j)) for j in range(dim)) for i in range(dim)), (F(0),) * dim


def affine_apply(m, x):
    """matrix.x + translation, in Fractions."""
    matrix, translation = m
    return tuple(sum((a * F(b) for a, b in zip(row, x)), F(t)) for row, t in zip(matrix, translation))


def affine_preimage(m, p):
    """Pull halfspaces back through x = m(beta): normal' = M^T.normal,
    offset' = normal.translation + offset; strictness preserved."""
    matrix, translation = m
    if len(matrix) != p.dim:
        raise ValueError("map codomain must match polytope dimension")
    cols = len(matrix[0]) if matrix else 0
    out = []
    for hs in rational_rows(p):
        normal = tuple(sum((a * F(row[j]) for a, row in zip(hs.normal, matrix)), F(0)) for j in range(cols))
        offset = sum((a * F(t) for a, t in zip(hs.normal, translation)), F(0)) + hs.offset
        out.append(HalfSpace(normal, offset, hs.strict))
    return polytope(cols, out)


def remove_redundant(p):
    """Greedy minimal H-representation defining the same set: a row is
    dropped when the others with its negation are infeasible, decided by
    the Fraction oracle `fm_is_feasible`."""
    kept = list(rational_rows(p))
    i = 0
    while i < len(kept):
        hs = kept[i]
        rest = kept[:i] + kept[i + 1 :]
        negation = HalfSpace(tuple(-c for c in hs.normal), -hs.offset, not hs.strict)
        if not fm_is_feasible(polytope(p.dim, rest + [negation])):
            kept = rest
        else:
            i += 1
    return polytope(p.dim, kept)


def parse_canonical(text, dim):
    """Inverse of canonical_text, for round-trip checks."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        body, rel = line.split("|")
        coeffs = [F(tok) for tok in body.split()]
        parts = rel.split()
        if len(parts) != 3 or parts[2] != "0" or parts[1] not in (">", ">="):
            raise ValueError(f"bad canonical constraint line: {line!r}")
        if len(coeffs) != dim:
            raise ValueError(f"constraint dimension mismatch in line: {line!r}")
        out.append(halfspace(coeffs, F(parts[0]), parts[1] == ">"))
    return polytope(dim, out)


def class_map(p):
    """The affine map from angles to adjoint class coordinates, from the
    coefficient tuples of the boundary."""
    constant, increments = _adjoint_parts(p)
    return tuple(tuple(inc[k] for inc in increments) for k in range(p.surface.rank)), tuple(constant)


def _nef_normals(p):
    """Normals of the nef cone in basis coordinates, written out per surface:
    d >= 0 on the plane; a >= 0 and b - n.a >= 0 for aZ + bF on F_n."""
    prov = p.surface.provenance
    if isinstance(prov, ProjectivePlane):
        return [(1,)]
    if isinstance(prov, Hirzebruch):
        return [(1, 0), (-prov.n, 1)]
    raise ValueError("built-in nef cones exist only for the plane and Hirzebruch surfaces")


def rank2_candidates(n_max):
    """Every candidate the classify enumerators test: the plane's degree
    multisets and those of F_0, ..., F_n_max, one per key."""
    groups = [(None, cl.p2_degree_multisets())]
    groups += [(n, cl.candidate_multisets(n)) for n in range(n_max + 1)]
    return [
        cl.CandidatePair("P2" if n is None else f"F{n}", n, key)
        for n, multisets in groups
        for key in dict.fromkeys(cl.swap_canonical(n, ms) for ms in multisets)
    ]


def aa_via_nef(p):
    """The body as [0,1]^r intersected with the preimage of the nef cone
    under the class map, for the plane and F_n, and its closure: the open
    part with the pulled-back rows and the cube strict, the closure with
    both weak, built from the preimage and not by elimination."""
    nef = polytope(p.surface.rank, [halfspace(nm, 0, False) for nm in _nef_normals(p)])
    pulled = affine_preimage(class_map(p), nef).halfspaces
    closed = polytope(p.r, pulled + tuple(cube_halfspaces(p.r, False)))
    strict = tuple(HalfSpace(hs.normal, hs.offset, True) for hs in pulled)
    open_part = polytope(p.r, strict + tuple(cube_halfspaces(p.r, True)))
    return AABody(open_part, EXACT), closed


def affine_product(outer, inner):
    """outer after inner for (matrix, translation) pairs."""
    (m1, t1), (m2, t2) = outer, inner
    cols = len(m2[0]) if m2 else 0
    matrix = tuple(
        tuple(sum((row[k] * m2[k][j] for k in range(len(row))), F(0)) for j in range(cols))
        for row in m1
    )
    trans = tuple(sum((row[k] * t2[k] for k in range(len(row))), F(0)) + t for row, t in zip(m1, t1))
    return matrix, trans


def affine_basis(r):
    """e_1..e_r and 0: two affine maps on r coordinates that agree on these
    points are equal."""
    return [tuple(F(int(i == j)) for j in range(r)) for i in range(r)] + [(F(0),) * r]


def fraction_reparam(p, gamma):
    """The reparametrization at gamma and its checks, all in plain Fractions
    on coefficient lists: an oracle for the library's integer `reparam`.
    Returns (gamma, eta, A, f, f_inv), the maps as dense (matrix,
    translation) pairs, the views of the library's maps.  Raises the
    ValueError and RuntimeError texts the library raises."""
    r, g = p.r, gamma.entries
    if len(g) != r:
        raise ValueError("gamma length must match the number of boundary components")
    prov = p.surface.provenance
    if isinstance(prov, ProjectivePlane):
        ample = lambda c: c[0] > 0
    elif isinstance(prov, Hirzebruch):
        ample = lambda c: c[0] > 0 and c[1] > prov.n * c[0]
    else:
        raise ValueError("exact ampleness constraints exist only for the plane and F_n")
    k = [F(c) for c in p.surface.canonical]
    classes = [cls.coeffs for cls in p.classes]

    def k_plus_weighted(weights):  # K + sum w_i C_i
        return [kj + sum(w * c[j] for w, c in zip(weights, classes)) for j, kj in enumerate(k)]

    if not (all(0 < x < 1 for x in g) and ample([-c for c in k_plus_weighted([1 - x for x in g])])):
        raise ValueError("gamma must lie in the open body of ample angles")
    h = max(max((1 - x) / x, x / (1 - x)) for x in g)
    scale = (1 + h) / h
    a = [-scale * c for c in k_plus_weighted([1 - x for x in g])]
    diagonal = lambda v: tuple(tuple(v if i == j else F(0) for j in range(r)) for i in range(r))
    f = (diagonal(1 / h), tuple(1 - scale * x for x in g))
    f_inv = (diagonal(h), tuple(-h + (1 + h) * x for x in g))

    constant = [-c for c in k_plus_weighted([1] * r)]  # -K - sum C_i
    if [h * (c + aj) for c, aj in zip(k_plus_weighted(f[1]), a)] != constant:
        raise RuntimeError("reparametrization identity failed on the constant class")
    for i in range(r):
        if [h * f[0][i][i] * c for c in classes[i]] != list(classes[i]):
            raise RuntimeError("reparametrization identity failed on an increment class")
    if not ample(a):
        raise RuntimeError("reparametrization produced a non-ample A")
    if any(f[1][i] < 0 or f[1][i] + f[0][i][i] > 1 for i in range(r)):
        raise RuntimeError("boundary coefficient bounds failed at a cube vertex")
    identity = identity_map(r)
    if affine_product(f, f_inv) != identity or affine_product(f_inv, f) != identity:
        raise RuntimeError("angle substitution is not an exact inverse pair")
    return gamma, h, p.surface.divisor(a), f, f_inv


def _solve(rows):
    """Solve the square integer system [A | b] (A x = b) by fraction-free
    forward elimination and back substitution; None if singular."""
    n = len(rows)
    a = [list(row) for row in rows]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        for r in range(col + 1, n):
            f = a[r][col]
            if f:
                a[r] = [p * v - f * w for v, w in zip(a[r], a[col])]
    x = [F(0)] * n
    for r in range(n - 1, -1, -1):
        x[r] = (a[r][n] - sum(a[r][j] * x[j] for j in range(r + 1, n))) / F(a[r][r])
    return tuple(x)


def brute_force_vertices(p):
    """Active-set vertex enumeration for a weak system of any dimension:
    solve every dim-subset of its rows as equalities and keep the solutions
    satisfying every row.  Sorted; empty when the system is empty."""
    rows = []
    for hs in rational_rows(p):
        coeffs = list(hs.normal) + [-hs.offset]
        scale = 1
        for c in coeffs:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        rows.append([int(c * scale) for c in coeffs])  # normal . x = -offset
    out = set()
    for subset in combinations(rows, p.dim):
        point = _solve(subset)
        if point is None:
            continue
        if all(sum(a * x for a, x in zip(row, point)) >= row[-1] for row in rows):
            out.add(point)
    return sorted(out)


def _rank(rows):
    m = [[F(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def first_independent_rows(rows):
    """The indices of the rows that raise the rank of those before them."""
    basis = []
    for k, row in enumerate(rows):
        if _rank([rows[j] for j in basis] + [row]) > len(basis):
            basis.append(k)
    return basis


def fraction_inverse(matrix):
    """(B^-1, det B) of a nonsingular square integer matrix B by
    Gauss-Jordan on [B | I] in Fractions: an oracle for the rays that
    fraction-free double description finds on B.y >= 0."""
    n = len(matrix)
    a = [[F(x) for x in row] + [F(int(j == k)) for k in range(n)] for j, row in enumerate(matrix)]
    det = F(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a], det


def verify_printed_vertices(stdout):
    """Read the closure rows and vertices off a printed body and check that
    every vertex satisfies every row and is tight on dim rows of full rank.
    Returns the number of vertices (0 for an empty body)."""
    lines = stdout.splitlines()
    k = lines.index("closure:") + 1
    rows = []
    while lines[k].startswith("  "):
        body, rel = lines[k].split("|")
        offset, op, zero = rel.split()
        assert (op, zero) == (">=", "0"), lines[k]
        rows.append(([int(t) for t in body.split()], int(offset)))
        k += 1
    if lines[k] == "vertices: (empty body)":
        return 0
    assert lines[k] == "vertices:", lines[k]
    verts = []
    for line in lines[k + 1 :]:
        if not line.startswith("  ("):
            break
        verts.append(tuple(F(t) for t in line.strip()[1:-1].split(",")))
    assert verts and len(set(verts)) == len(verts)
    dim = len(rows[0][0])
    for v in verts:
        assert len(v) == dim
        values = [sum(a * x for a, x in zip(nm, v)) + c for nm, c in rows]
        assert all(val >= 0 for val in values), f"{v} violates a closure row"
        tight = [nm for (nm, _), val in zip(rows, values) if val == 0]
        assert _rank(tight) == dim, f"{v} is not a vertex"
    return len(verts)


def hull_2d(points):
    """Facet halfspaces (inward, weak) of the convex hull of 2-D points,
    via the monotone chain; assumes a full-dimensional hull."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pts = sorted(set(points))
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    poly = lower[:-1] + upper[:-1]  # counterclockwise
    out = []
    for i in range(len(poly)):
        (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % len(poly)]
        normal = (-(y2 - y1), x2 - x1)
        out.append((normal, -(normal[0] * x1 + normal[1] * y1)))
    return out


# ---------------------------------------------------------------------------
# Golden tables of the classified families: per n, the family name, the
# boundary classes in conventional order (C1 = Z_n where applicable), and
# whether the family is log del Pezzo / strongly asymptotically log del Pezzo.

P2_TABLE = [
    # (label, degrees, strength)
    ("I.1A", (3,), "StronglyALdP"),
    ("I.1B", (2,), "LogDP"),
    ("I.1C", (1,), "LogDP"),
    ("II.1A", (2, 1), "StronglyALdP"),
    ("II.1B", (1, 1), "LogDP"),
    ("III.1", (1, 1, 1), "StronglyALdP"),
]


def fn_table(n):
    """The Hirzebruch families present at a given n, with strengths."""
    rows = [
        ("I.2.{n}", ((1, 0),), "LogDP"),
        ("II.2A.{n}", ((1, 0), (1, n)), "StronglyALdP"),
        ("II.2B.{n}", ((1, 0), (1, n + 1)), "StronglyALdP"),
        ("II.2C.{n}", ((1, 0), (0, 1)), "LogDP"),
        ("III.3.{n}", ((1, 0), (0, 1), (1, n)), "StronglyALdP"),
    ]
    if n >= 1:
        rows += [
            ("ALdP.1.{n}", ((1, 0), (1, n + 2)), "ALdPNotStrong"),
            ("ALdP.2.{n}", ((1, 0), (1, n + 1), (0, 1)), "ALdPNotStrong"),
            ("ALdP.3.{n}", ((1, 0), (0, 1), (0, 1)), "ALdPNotStrong"),
            ("ALdP.4.{n}", ((1, 0), (0, 1), (0, 1), (1, n)), "ALdPNotStrong"),
        ]
    if n == 0:
        rows += [
            ("I.4A", ((2, 2),), "StronglyALdP"),
            ("I.4B", ((2, 1),), "StronglyALdP"),
            ("I.4C", ((1, 1),), "LogDP"),
            ("II.4A", ((1, 1), (1, 1)), "StronglyALdP"),
            ("II.4B", ((2, 1), (0, 1)), "StronglyALdP"),
            ("III.2", ((1, 1), (0, 1), (1, 0)), "StronglyALdP"),
            ("IV", ((1, 0), (1, 0), (0, 1), (0, 1)), "StronglyALdP"),
        ]
    if n == 1:
        rows += [
            ("I.3A", ((2, 2),), "StronglyALdP"),
            ("I.3B", ((1, 1),), "LogDP"),
            ("I.5.1", ((2, 3),), "StronglyALdP"),
            ("I.6B.1", ((1, 2),), "StronglyALdP"),
            ("I.6C.1", ((0, 1),), "StronglyALdP"),
            ("II.3", ((1, 1), (1, 1)), "StronglyALdP"),
            ("II.5A.1", ((2, 2), (0, 1)), "StronglyALdP"),
            ("II.5A.1", ((1, 2), (1, 1)), "StronglyALdP"),
            ("II.5B.1", ((1, 1), (0, 1)), "StronglyALdP"),
            ("III.4.1", ((0, 1), (1, 1), (1, 1)), "StronglyALdP"),
        ]
    return [(label.format(n=n), classes, strength) for label, classes, strength in rows]


MAEDA_P2 = [("Maeda.i", (1,)), ("Maeda.ii", (1, 1)), ("Maeda.iii", (2,))]


def maeda_fn_table(n):
    rows = [("Maeda.iv", ((1, 0),)), ("Maeda.v", ((1, 0), (0, 1)))]
    if n == 1:
        rows.append(("Maeda.vi", ((1, 1),)))
    if n == 0:
        rows.append(("Maeda.vii", ((1, 1),)))
    return rows
