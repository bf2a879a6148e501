import random
from collections import Counter
from itertools import product
from math import gcd, lcm

import pytest

from ampleangles import angles as an
from ampleangles import polytope as pt
from _util import (
    F,
    affine_preimage,
    brute_force_grid_points,
    brute_force_vertices,
    cube_halfspaces,
    first_independent_rows,
    fm_is_feasible,
    fraction_inverse,
    gram_signs,
    grid_system,
    halfspace,
    hull_2d,
    identity_map,
    intersection,
    parse_canonical,
    polytope,
    random_gram,
    rational_rows,
    remove_redundant,
    reverify_certificate,
    unit_gram,
)


def figure1_open():
    # 0 < beta < 1 together with 2*b2 - b1 > 0
    return polytope(
        2, cube_halfspaces(2, strict=True) + [halfspace([-1, 2], 0, True)]
    )


def test_feasibility_examples():
    assert not pt.is_feasible(
        polytope(1, [halfspace([1], 0, True), halfspace([-1], 0, True)])
    )
    assert pt.is_feasible(polytope(2, cube_halfspaces(2, strict=True)))
    assert pt.is_feasible(figure1_open())


def test_feasibility_boundary_strictness():
    # x >= 1 and x <= 1 meet in a point; making either strict empties it
    weak = polytope(1, [halfspace([1], -1, False), halfspace([-1], 1, False)])
    assert pt.is_feasible(weak)
    assert not pt.is_feasible(
        polytope(1, [halfspace([1], -1, True), halfspace([-1], 1, False)])
    )


def test_closure_examples():
    closed = pt.closure(figure1_open())
    assert all(not hs.strict for hs in rational_rows(closed))
    empty = pt.closure(
        polytope(1, [halfspace([1], 0, True), halfspace([-1], 0, True)])
    )
    assert not pt.is_feasible(empty)
    assert pt.canonical_text(pt.closure(closed)) == pt.canonical_text(closed)


def test_contains():
    closed = pt.closure(figure1_open())
    assert pt.contains(closed, [0, 0])
    assert not pt.contains(closed, [1, F(1, 4)])
    open_square = polytope(2, cube_halfspaces(2, strict=True))
    assert not pt.contains(open_square, [0, 0])
    with pytest.raises(ValueError):
        pt.contains(closed, [0, 0, 0])


def test_vertices_figure1_against_brute_force():
    closed = pt.closure(figure1_open())
    oracle = brute_force_vertices(closed)
    got = pt.vertices(closed).vertices
    assert list(got) == oracle
    assert set(got) == {(F(0), F(0)), (F(0), F(1)), (F(1), F(1, 2)), (F(1), F(1))}


def test_vertices_unit_square_and_point():
    square = polytope(2, cube_halfspaces(2, strict=False))
    assert set(pt.vertices(square).vertices) == {
        (F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))
    }
    point = polytope(1, [halfspace([1], 0, False), halfspace([-1], 0, False)])
    assert pt.vertices(point).vertices == ((F(0),),)


def test_vertices_rejects_strict_and_unbounded():
    with pytest.raises(ValueError):
        pt.vertices(figure1_open())
    halfline = polytope(1, [halfspace([1], 0, False)])
    # normals of rank 1 < dim: the strip 0 <= x <= 1 in the plane
    strip = polytope(2, [halfspace([1, 0], 0, False), halfspace([-1, 0], 1, False)])
    # full rank but unbounded: the wedge 0 <= y <= x
    wedge = polytope(2, [halfspace([0, 1], 0, False), halfspace([1, -1], 0, False)])
    for unbounded in (halfline, strip, wedge):
        with pytest.raises(ValueError, match="bounded"):
            pt.vertices(unbounded)


def _random_row(rng, dim):
    return [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)], F(rng.randint(-2, 2))


def _bounded_system(rng, dim, kind):
    """A random weak system that is bounded (or empty), of the given kind.
    Row counts stay small in dimension 5, where the oracle solves C(m, 5)
    systems."""
    extra = 3 if dim < 5 else 1
    if kind == "simplex":
        rows = [([int(i == j) for j in range(dim)], 0) for i in range(dim)]
        rows.append(([-1] * dim, 1))
    elif kind == "point":
        # x = v pinned by two rows per axis, more rows through v
        v = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(dim)]
        rows = []
        for i in range(dim):
            e = [int(i == j) for j in range(dim)]
            rows += [(e, -v[i]), ([-c for c in e], v[i])]
        for _ in range(rng.randint(0, extra - 1)):
            nm, _ = _random_row(rng, dim)
            rows.append((nm, -sum(a * x for a, x in zip(nm, v))))
    else:
        rows = [(tuple(hs.normal), hs.offset) for hs in cube_halfspaces(dim, strict=False)]
    if kind == "corner" and dim:
        # hyperplanes through a cube corner, oriented to keep the centre:
        # the corner becomes a degenerate vertex
        corner = [rng.randint(0, 1) for _ in range(dim)]
        for _ in range(rng.randint(1, extra)):
            nm, _ = _random_row(rng, dim)
            c = -sum(a * x for a, x in zip(nm, corner))
            if sum(a * F(1, 2) for a in nm) + c < 0:
                nm, c = [-a for a in nm], -c
            rows.append((nm, c))
    if kind == "empty" and dim:
        rows.append(([-1] * dim, -dim - 1 + F(1, 2)))  # sum(x) >= dim + 1/2
    if kind in ("cube", "simplex", "empty"):
        rows += [_random_row(rng, dim) for _ in range(rng.randint(0, extra))]
    if rows and dim < 5 and rng.random() < 0.5:
        # a duplicate, once verbatim and once rescaled
        nm, c = rng.choice(rows)
        rows += [(nm, c), ([2 * a for a in nm], 2 * c)]
    if rng.random() < 0.3:
        rows.append(([0] * dim, rng.choice([0, 1])))  # all-zero and trivially true
    if dim == 0:
        rows.append(((), rng.randint(-1, 2)))  # feasible unless the offset is -1
    rng.shuffle(rows)
    return polytope(dim, [halfspace(nm, c, False) for nm, c in rows])


def test_vertices_double_description_against_brute_force():
    rng = random.Random(2024)
    kinds = ("cube", "simplex", "corner", "point", "empty")
    systems = [pt.canonical_empty(3), polytope(0, [])]
    for i in range(250):
        dim = i % 6
        systems.append(_bounded_system(rng, dim, kinds[(i // 6) % len(kinds)]))
    non_empty = 0
    for system in systems:
        got = list(pt.vertices(system).vertices)
        assert got == brute_force_vertices(system), pt.canonical_text(system)
        non_empty += bool(got)
    # both outcomes are exercised
    assert 100 < non_empty < len(systems) - 40
    assert pt.vertices(pt.canonical_empty(3)).vertices == ()
    assert pt.vertices(polytope(0, [])).vertices == ((),)
    assert pt.vertices(polytope(0, [halfspace([], -1, False)])).vertices == ()


def test_affine_preimage():
    p = polytope(1, [halfspace([1], 0, False)])
    m = ((F(2),),), (F(-1),)  # x = 2b - 1
    pre = affine_preimage(m, p)
    assert pt.canonical_lines(pre) == ["2 | -1 >= 0"]
    ident = identity_map(2)
    body = pt.closure(figure1_open())
    assert pt.canonical_text(affine_preimage(ident, body)) == pt.canonical_text(body)


def test_affine_preimage_commutes_with_intersection():
    m = ((F(1), F(1)), (F(1), F(-1))), (F(0), F(1, 2))
    p = polytope(2, [halfspace([1, 0], 0, False), halfspace([0, 1], -1, True)])
    q = polytope(2, [halfspace([1, 1], 2, False)])
    lhs = affine_preimage(m, intersection(p, q))
    rhs = intersection(affine_preimage(m, p), affine_preimage(m, q))
    assert pt.canonical_text(lhs) == pt.canonical_text(rhs)


def test_affine_map_is_its_integer_form():
    """AffineMap keeps (slope, shift, den) as integers; the Fraction views
    give the dense diagonal matrix and the translation back, and apply
    agrees with plain Fraction evaluation."""
    rng = random.Random(14)
    for _ in range(300):
        r = rng.randint(0, 5)
        slope, den = rng.randint(-20, 20), rng.randint(1, 40)
        shift = [rng.randint(-30, 30) for _ in range(r)]
        m = pt.AffineMap(slope, shift, den)
        assert all(type(v) is int for v in (m.slope, m.den, *m.shift)) and m.dim == r
        # the views are built on each read and keep nothing alive on the map:
        # it is a slotted named tuple of its three fields, with no __dict__
        assert m._fields == ("slope", "shift", "den") and not hasattr(m, "__dict__")
        matrix = tuple(tuple(F(slope, den) if i == j else 0 for j in range(r)) for i in range(r))
        translation = tuple(F(t, den) for t in shift)
        assert m.matrix == matrix and m.translation == translation
        assert not hasattr(m, "__dict__")
        assert all(type(v) is F for v in (*m.translation, *(v for row in m.matrix for v in row)))
        x = [F(rng.randint(-9, 9), rng.choice((1, 2, 5, 16))) for _ in range(r)]
        want = tuple(sum((a * b for a, b in zip(row, x)), t) for row, t in zip(matrix, translation))
        assert m.apply(x) == want and all(type(v) is F for v in m.apply(x))
        assert m.apply([int(v) if v.denominator == 1 else v for v in x]) == want
        with pytest.raises(ValueError, match="point dimension mismatch"):
            m.apply(x + [F(1)])
    # no coordinates
    empty = pt.AffineMap(3, (), 6)
    assert (empty.slope, empty.shift, empty.den) == (1, (), 2)
    assert empty.apply([]) == () and empty.matrix == () and empty.translation == ()


def test_remove_redundant():
    p = polytope(1, [halfspace([1], 0, False), halfspace([1], 1, False)])
    assert pt.canonical_lines(remove_redundant(p)) == ["1 | 0 >= 0"]
    # a tighter halfspace dominates two cube faces
    q = polytope(
        2,
        cube_halfspaces(2, strict=False)
        + [halfspace([-1, 0], F(1, 2), False)],
    )
    reduced = remove_redundant(q)
    assert "-1 0 | 1 >= 0" not in pt.canonical_lines(reduced)
    assert "-2 0 | 1 >= 0" in pt.canonical_lines(reduced)


def test_substitute():
    body = pt.closure(figure1_open())
    section = pt.substitute(body, 0, F(1, 2))  # b1 = 1/2
    assert section.dim == 1
    assert pt.contains(section, [F(1, 2)])
    assert not pt.contains(section, [F(1, 8)])  # 2*b2 >= 1/2 fails


def _hull_round_trip(closed):
    """vertices -> convex hull -> H-rep must define the same set: the hull
    facets agree with the minimal representation of the input."""
    verts = pt.vertices(closed).vertices
    hull = polytope(2, [halfspace(nm, c, False) for nm, c in hull_2d(verts)])
    assert pt.canonical_lines(hull) == pt.canonical_lines(remove_redundant(closed))
    for v in verts:
        assert pt.contains(hull, v)


def test_vertex_hull_round_trip():
    _hull_round_trip(pt.closure(figure1_open()))
    _hull_round_trip(polytope(2, cube_halfspaces(2, strict=False)))
    rng = random.Random(5)
    done = 0
    while done < 25:
        system = _random_system(rng, 2)
        weak = polytope(2, [pt.HalfSpace(hs.normal, hs.offset, False) for hs in rational_rows(system)])
        verts = pt.vertices(weak).vertices if pt.is_feasible(weak) else ()
        if len(verts) < 3:
            continue  # hull oracle needs a full-dimensional polygon
        _hull_round_trip(weak)
        done += 1


def test_canonical_text_round_trip():
    body = pt.closure(figure1_open())
    text = pt.canonical_text(body)
    reparsed = parse_canonical(text, 2)
    assert pt.canonical_text(reparsed) == text


def test_canonical_scaling_normalization():
    a = polytope(2, [halfspace([F(1, 2), F(-1, 3)], F(1, 6), True)])
    b = polytope(2, [halfspace([3, -2], 1, True)])
    assert pt.canonical_text(a) == pt.canonical_text(b)


def test_double_description_against_fraction_inverse():
    """Double description from the whole space: on seeded integer rows in
    dims 1-6 with entries in [-3, 3], the first independent rows B give no
    lines and, as rays, the primitive columns of the inverse that Fraction
    Gauss-Jordan computes; on every system the lines are non-empty exactly
    when the rows have rank below the dimension."""
    rng = random.Random(1968)
    kinds = Counter()
    for i in range(1200):
        n = 1 + i % 6
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + rng.randint(0, 2))]
        if rng.random() < 0.3:
            rows[0][0] = 0  # the first row is then zero on the first line
        if rng.random() < 0.15:
            gone = rng.randrange(n)
            for row in rows:
                row[gone] = 0
        rows = [tuple(row) for row in rows]
        basis = first_independent_rows(rows)
        rays, lines = pt._double_description(rows)
        assert bool(lines) == (len(basis) < n), rows
        if len(basis) < n:
            kinds["rank-deficient"] += 1
            continue
        b = [rows[k] for k in basis]
        inverse, det = fraction_inverse(b)
        columns = []
        for k in range(n):
            column = [inverse[j][k] for j in range(n)]
            den = lcm(*(c.denominator for c in column))
            ints = [int(c * den) for c in column]
            columns.append(tuple(x // gcd(*ints) for x in ints))
        rays, lines = pt._double_description(b)
        assert lines == [] and sorted(rays) == sorted(columns), rows
        # the first row splits off a line other than the first
        kinds["skip"] += rows[basis[0]][0] == 0
        kinds["negative"] += det < 0
    # each case occurs often
    assert min(kinds["rank-deficient"], kinds["skip"], kinds["negative"]) > 150, kinds


def test_vertices_decide_rank_deficient_systems_without_elimination(monkeypatch):
    """Double description alone tells an empty system from one with a
    line: Fourier-Motzkin is never called."""

    def refuse(p):
        raise AssertionError("vertices called the elimination")

    monkeypatch.setattr(pt, "_eliminate", refuse)
    assert pt.vertices(pt.canonical_empty(3)).vertices == ()
    # x >= 1 and -x >= 0 in the plane: normals of rank 1 < 2, and empty
    contradiction = polytope(2, [halfspace([1, 0], -1, False), halfspace([-1, 0], 0, False)])
    assert pt.vertices(contradiction).vertices == ()
    # the strip 0 <= x <= 1 contains the line x = 0
    strip = polytope(2, [halfspace([1, 0], 0, False), halfspace([-1, 0], 1, False)])
    with pytest.raises(ValueError, match="bounded"):
        pt.vertices(strip)


def _random_system(rng, dim):
    rows = []
    for _ in range(rng.randint(1, 4)):
        normal = [rng.randint(-3, 3) for _ in range(dim)]
        rows.append(halfspace(normal, rng.randint(-2, 2), rng.random() < 0.5))
    return polytope(dim, cube_halfspaces(dim, strict=False) + rows)


def _degenerate_system(rng, dim):
    """A random system plus duplicate, positively rescaled and all-zero
    rows, each strict or weak."""
    rows = list(_random_system(rng, dim).halfspaces)
    for _ in range(rng.randint(0, 2)):
        hs = rng.choice(rows)
        scale = F(rng.randint(1, 3), rng.randint(1, 3))  # 1 repeats the row verbatim
        rows.append(pt.HalfSpace(tuple(scale * c for c in hs.normal), scale * hs.offset, hs.strict))
    if rng.random() < 0.25:
        rows.append(halfspace([0] * dim, 0, rng.random() < 0.3))  # 0 > 0 is absurd
    rng.shuffle(rows)
    return polytope(dim, rows)


def test_infeasibility_certificates():
    empty = polytope(
        1, [halfspace([1], 0, True), halfspace([-1], 0, True)]
    )
    cert = pt.infeasibility_certificate(empty)
    assert cert is not None
    assert pt.verify_certificate(empty, cert)
    assert pt.infeasibility_certificate(figure1_open()) is None
    # a weak-only contradiction needs a strictly negative constant
    weak = polytope(1, [halfspace([1], -2, False), halfspace([-1], 1, False)])
    cert = pt.infeasibility_certificate(weak)
    assert cert is not None and pt.verify_certificate(weak, cert)
    # dropping a multiplier breaks the cancellation and must not verify
    assert not pt.verify_certificate(weak, (cert[0], 0))
    assert not pt.verify_certificate(weak, (-cert[0], -cert[1]))
    # x > 0 with -x >= 0 derives the constant row 0 > 0
    zero = polytope(2, [halfspace([2, 0], 0, True), halfspace([-1, 0], 0, False)])
    systems = [zero, pt.canonical_empty(3), polytope(0, [])]
    rng = random.Random(99)
    systems += [_degenerate_system(rng, i % 6) for i in range(300)]
    infeasible = 0
    for system in systems:
        feasible = pt.is_feasible(system)
        assert feasible == fm_is_feasible(system), pt.canonical_text(system)
        cert = pt.infeasibility_certificate(system)
        assert (cert is None) == feasible
        if cert is not None:
            assert pt.verify_certificate(system, cert), pt.canonical_text(system)
            reverify_certificate(rational_rows(system), system, cert)
            infeasible += 1
    # both outcomes are exercised
    assert 60 < infeasible < len(systems) - 60


def test_feasibility_agrees_with_grid_search():
    rng = random.Random(1729)
    for _ in range(120):
        dim = rng.randint(1, 3)
        denom = 64 if dim <= 2 else 8  # 1/64 steps where the scan stays cheap
        steps = [F(k, denom) for k in range(denom + 1)]
        system = _random_system(rng, dim)
        feasible = pt.is_feasible(system)
        grid_hit = next(
            (point for point in product(steps, repeat=dim) if pt.contains(system, point)),
            None,
        )
        if grid_hit is not None:
            # substitution re-verifies the certificate and refutes infeasibility
            assert feasible
            assert all(hs.holds(grid_hit) for hs in rational_rows(system))


def test_grid_points_match_brute_force():
    """The one-pass sign table counts exactly the brute-force grid points of
    each system: under q = 1 its positive count is their number, and under a
    random integer Gram matrix it matches the signs evaluated point by point.
    Denominators whose box has more than 4 000 points are not drawn, which
    keeps the oracle's full scan cheap.  Empty boxes and a row that fails at
    the box's maximizing corner are also run on their own."""
    rng = random.Random(1313)
    systems = []
    for i in range(2000):
        dim = i % 6
        denom = rng.choice([d for d in (1, 2, 3, 4, 7, 16) if (d - 1) ** dim <= 4000])
        systems.append((grid_system(rng, dim, denom), denom))
    # a pair has at least one angle: the systems of dimension 0 are not scanned
    systems = [(system, denom) for system, denom in systems if system.dim]
    # empty boxes, denominator 1, with and without rows
    systems += [(pt.integer_polytope(dim, pt.cube_rows(dim, False)), 1) for dim in (1, 3)]
    systems.append((pt.integer_polytope(2, []), 1))
    # x + y > 3/2 fails at (3/4, 3/4), the box's maximizing corner at 1/4
    systems.append((pt.integer_polytope(2, [((2, 2), -3, True)]), 4))
    kinds = Counter()
    for system, denom in systems:
        points = brute_force_grid_points(system, denom)
        gram = random_gram(rng, system.dim)
        got = an._quadratic_signs(gram, denom, system)
        assert got == gram_signs(gram, denom, points), (denom, system.integer_rows, gram)
        assert an._quadratic_signs(unit_gram(system.dim), denom, system) == (len(points), 0, 0)
        box = max(denom - 1, 0) ** system.dim
        kinds["empty" if not points else "full" if len(points) == box else "cut"] += 1
    # the scan prunes some boxes whole, keeps some whole and cuts the rest
    assert all(kinds[k] > 200 for k in ("empty", "full", "cut")), kinds


def _integer_rows_of(halfspaces, rng):
    """Each rational row times its least common denominator and a random
    positive integer: integer rows, mostly not gcd-normalized."""
    rows = []
    for hs in halfspaces:
        entries = (*hs.normal, hs.offset)
        den = 1
        for c in entries:
            den = den * c.denominator // gcd(den, c.denominator)
        scale = den * rng.randint(1, 4)
        rows.append((tuple(int(c * scale) for c in hs.normal), int(hs.offset * scale), hs.strict))
    return rows


def test_integer_rows_match_rational_rows():
    """`integer_polytope` on integer rows and the test builder `polytope` on
    the caller's rational rows give the same polytope: rows, text,
    feasibility, closure."""
    rng = random.Random(4242)
    assert pt.integer_polytope(2, [((2, -4), 6, True), ((0, 0), 0, False)]).integer_rows == (
        ((1, -2), 3, True), ((0, 0), 0, False)
    )
    for i in range(300):
        dim = i % 6
        rational = _degenerate_system(rng, dim)
        integer = pt.integer_polytope(dim, _integer_rows_of(rational_rows(rational), rng))
        assert integer.integer_rows == rational.integer_rows
        assert integer == rational
        assert pt.canonical_text(integer) == pt.canonical_text(rational)
        assert pt.is_feasible(integer) == pt.is_feasible(rational)
        assert pt.closure(integer) == pt.closure(rational)
        assert pt.canonical_text(pt.closure(integer)) == pt.canonical_text(pt.closure(rational))
        # the Fraction view of the integer rows is the rows themselves
        assert [(hs.normal, hs.offset, hs.strict) for hs in integer.halfspaces] == [
            (tuple(map(F, nm)), F(c), s) for nm, c, s in integer.integer_rows
        ]


def test_certificates_use_the_callers_rows():
    """Integer certificates re-verify on the caller's rational rows, however
    the caller scaled them: each is a tuple of nonnegative ints with gcd 1,
    and scaled back by each row's positive factor, the multipliers cancel
    every variable and leave an absurd constant."""
    rng = random.Random(31)
    checked = 0
    for i in range(300):
        dim = i % 6
        base = _degenerate_system(rng, dim)
        rows = [
            pt.HalfSpace(tuple(s * c for c in hs.normal), s * hs.offset, hs.strict)
            for hs in rational_rows(base)
            for s in [F(rng.randint(1, 9), rng.randint(1, 9))]
        ]
        scaled = polytope(dim, rows)
        assert scaled == base
        cert = pt.infeasibility_certificate(scaled)
        assert (cert is None) == pt.is_feasible(base)
        if cert is not None:
            assert pt.verify_certificate(scaled, cert)
            reverify_certificate(rows, scaled, cert)
            # integer rows of any positive scale give the same rows, so the same certificate
            integer = pt.integer_polytope(dim, _integer_rows_of(rows, rng))
            assert pt.infeasibility_certificate(integer) == cert
            checked += 1
    assert 60 < checked < 240


def test_closure_is_canonical_empty_exactly_when_infeasible():
    rng = random.Random(77)
    empty = 0
    for i in range(300):
        dim = i % 6
        system = _degenerate_system(rng, dim)
        closed = pt.closure(system)
        assert (closed == pt.canonical_empty(dim)) == (not fm_is_feasible(system))
        if closed != pt.canonical_empty(dim):
            # a feasible closure is the same rows, weak
            assert closed.integer_rows == tuple((nm, c, False) for nm, c, _ in system.integer_rows)
        empty += closed == pt.canonical_empty(dim)
    assert 60 < empty < 240


def _oracle_system(rng, dim):
    """Mixed strict/weak integer rows with entries in [-s, s] for a random
    s <= 3, about a third of them zero; sometimes the negation of a row
    (an implicit equality); on half the systems the cube's faces.  Small
    entries let one row be derived in several ways.  Row counts shrink
    with the dimension so that unpruned elimination stays quick."""
    span = rng.choice((1, 2, 3))
    rows = []
    for _ in range(rng.randint(0, (3, 4, 5, 6, 5, 5, 4, 3)[dim])):
        normal = [rng.randint(-span, span) if rng.random() < 0.7 else 0 for _ in range(dim)]
        rows.append((normal, rng.randint(-span, span), rng.random() < 0.5))
    if rows and rng.random() < 0.3:
        normal, offset, _ = rng.choice(rows)
        rows.append(([-c for c in normal], -offset, False))
    if rng.random() < 0.5:
        rows += pt.cube_rows(dim, rng.random() < 0.5)
    rng.shuffle(rows)
    return pt.integer_polytope(dim, rows)


def _lemma_point(system, point):
    """The point of the system that a back-substituted point gives.  When
    every offset is >= 0 the elimination sees only the rows with offset 0,
    so the point v satisfies those, and t.v satisfies every row for
    t = 1/2 of the least c/(-normal.v) over the rows with offset c > 0 and
    normal.v < 0 (or t = 1): the cone rows scale, and a slack row keeps
    more than half its offset.  Otherwise the point is the system's own."""
    rows = system.integer_rows
    if any(offset < 0 for _, offset, _ in rows):
        return point
    tight = pt.HPolytope(system.dim, tuple(row for row in rows if row[1] == 0))
    assert pt.contains(tight, point), (rows, point)
    values = [(offset, sum(c * x for c, x in zip(normal, point))) for normal, offset, _ in rows]
    t = min([F(c, 2) / -v for c, v in values if c and v < 0], default=F(1))
    return [t * x for x in point]


def _record_back_substitutions(monkeypatch):
    """Wrap `_back_substitute`: the list receives each point it builds, or
    None for each dropped row it returns."""
    seen = []
    back_substitute = pt._back_substitute

    def recorded(*args):
        point, cut = back_substitute(*args)
        seen.append(point)
        return point, cut

    monkeypatch.setattr(pt, "_back_substitute", recorded)
    return seen


def test_pruned_elimination_against_unpruned_oracle(monkeypatch):
    """Chernikov's rule changes no verdict: on seeded systems in dims 0-7,
    `is_feasible` agrees with unpruned Fraction elimination on every
    system, none skipped, and each infeasible system has a certificate
    that `verify_certificate` accepts."""
    seen = _record_back_substitutions(monkeypatch)
    rng = random.Random(2718)
    infeasible = points = 0
    for i in range(2400):
        system = _oracle_system(rng, i % 8)
        seen.clear()
        feasible = pt.is_feasible(system)
        assert feasible == fm_is_feasible(system), system.integer_rows
        if not feasible:
            assert pt.verify_certificate(system, pt.infeasibility_certificate(system))
            infeasible += 1
        # a point built by back-substitution gives a point of the system
        for point in filter(None, seen):
            assert pt.contains(system, _lemma_point(system, point)), (system.integer_rows, point)
            points += 1
    assert 500 < infeasible < 1900
    # some "feasible" answers needed a point to be proven
    assert points > 20


# Infeasible systems on which one kept history per duplicate row loses the
# contradiction: without back-substitution, the elimination says feasible.
LOST_HISTORY = (
    (2, (((-1, 2), 2, False), ((0, 1), 1, True), ((-2, -1), -1, True), ((1, -2), -2, False))),
    (3, (((0, -1, 1), 0, False), ((0, 1, 0), 0, False), ((-1, 0, 0), 1, False),
         ((0, 0, 1), 0, False), ((1, 0, -1), -1, False), ((-1, -1, -1), 1, True),
         ((0, 0, -1), 1, False), ((0, 1, 1), 1, False), ((1, 0, 0), 0, False),
         ((0, -1, 0), 1, False))),
    (3, (((0, -1, 0), 1, True), ((-2, 0, -1), 1, True), ((0, 1, -2), 0, False),
         ((2, -2, 2), -1, True), ((1, 0, 0), 0, True), ((0, 0, -1), 1, True),
         ((-1, 0, 0), 1, True), ((2, 2, 1), 2, False), ((0, 1, 0), 0, True),
         ((0, 0, 1), 0, True))),
    (4, (((-1, -2, 2, -2), 1, True), ((2, -2, -1, 1), 1, False), ((1, 1, 2, -1), -1, False),
         ((2, 0, -2, 1), 1, True), ((-2, -2, 0, 1), 1, True), ((0, 1, -1, -1), -1, False),
         ((-1, -2, -1, -2), 2, False), ((0, 2, -1, 2), 2, True))),
)


def test_back_substitution_recovers_rows_lost_with_a_history(monkeypatch):
    """When a drop may rest on a history that a duplicate row discarded,
    the "feasible" answer is checked by building a point.  On these
    systems the point fails: the dropped row it violates joins the input,
    and the elimination finds the contradiction with a valid certificate."""
    seen = _record_back_substitutions(monkeypatch)
    for dim, rows in LOST_HISTORY:
        system = pt.integer_polytope(dim, rows)
        seen.clear()
        assert not fm_is_feasible(system)
        assert not pt.is_feasible(system)
        assert seen and None in seen, rows
        assert pt.verify_certificate(system, pt.infeasibility_certificate(system))


def test_back_substitution_bounds():
    """Each coordinate takes the midpoint of its tightest bounds, a step of
    1 past a single bound, or 0; a strict bound is tighter than a weak one
    at the same value.  levels[k] holds (rows in x_0..x_k) -> (why, mask)."""
    point = {((1,), 0, False): (0, 1), ((-1,), 3, True): (1, 2)}  # 0 <= x < 3
    above = {((0, 2), -3, False): (2, 4)}  # y >= 3/2
    below = {((1, -1), -1, True): (3, 8)}  # y < x - 1
    assert pt._back_substitute([point, above]) == ((F(3, 2), F(2)), None)
    assert pt._back_substitute([point, below]) == ((F(3, 2), F(0)), None)
    assert pt._back_substitute([{}]) == ((F(0),), None)
    # x >= 0, x > 0 and x <= 0, the weak lower row first: x > 0 binds
    tie = {((1,), 0, False): (0, 1), ((1,), 0, True): (1, 2), ((-1,), 0, False): (2, 4)}
    point, (row, why) = pt._back_substitute([tie])
    assert point is None and row == ((0,), 0, True) and why == (1, 1, 1, 2, 1)
    # x >= 1 and x <= 1, both weak, meet in x = 1
    assert pt._back_substitute([{((1,), -1, False): (0, 1), ((-1,), 1, False): (1, 2)}]) == (
        (F(1),), None
    )


def _cube_system(rng, dim):
    """The closed cube's faces and dim + 4 to 2.dim + 2 dense rows with
    entries in [-3, 3], each through a random point of the cube's 1/4 grid,
    shifted by at most 1/4, strict or weak at random, and most of them
    turned to keep one random grid point; on a third of the systems also
    the weak negation of the first row, which leaves its hyperplane."""
    rows = []
    keep = [rng.randint(1, 3) for _ in range(dim)]
    for _ in range(rng.randint(dim + 4, 2 * dim + 2)):
        normal = [rng.randint(-3, 3) for _ in range(dim)]
        through = [rng.randint(0, 4) for _ in range(dim)]
        offset = -(sum(c * k for c, k in zip(normal, through)) // 4) + rng.randint(-1, 1)
        if sum(c * k for c, k in zip(normal, keep)) + 4 * offset < 0 and rng.random() < 0.75:
            normal, offset = [-c for c in normal], -offset
        rows.append((normal, offset, rng.random() < 0.5))
    if rng.random() < 1 / 3:
        normal, offset, _ = rows[0]
        rows.append(([-c for c in normal], -offset, False))
    return rows + list(pt.cube_rows(dim, False))


def test_elimination_agrees_with_vertices_beyond_the_oracle():
    """On systems of dims 4-6 where unpruned elimination mostly runs for
    seconds, double description is the independent check.  The weak system is feasible iff
    it has vertices.  The mixed system is feasible iff, in addition, the
    average of those vertices satisfies it: the average lies in the
    relative interior of the closure, where every strict row that holds
    somewhere on the closure holds strictly."""
    rng = random.Random(1618)
    kinds = Counter()
    for i in range(36):
        dim = 4 + i % 3
        rows = _cube_system(rng, dim)
        weak = pt.integer_polytope(dim, [(normal, offset, False) for normal, offset, _ in rows])
        verts = pt.vertices(weak).vertices
        assert pt.is_feasible(weak) == bool(verts), rows
        mixed = pt.integer_polytope(dim, rows)
        inner = bool(verts) and pt.contains(mixed, [sum(c) / len(verts) for c in zip(*verts)])
        assert pt.is_feasible(mixed) == inner, rows
        kinds[bool(verts), inner] += 1
    # empty, closed-only and open systems all occur
    assert len(kinds) == 3 and min(kinds.values()) >= 3, kinds


def _cone_system(rng, dim):
    """Mixed strict/weak integer rows whose offsets are all >= 0, so that
    the origin satisfies each weakly: rows through the origin and rows with
    positive offsets, entries in [-2, 2], about a third of them zero; on
    half the systems the cube's faces, and sometimes a duplicate row, a
    zero-normal row (0 > 0, 0 >= 0 or 2 > 0), or a forced-empty cone
    x_j > 0 with -x_j > 0."""
    rows = []
    for _ in range(rng.randint(1, (0, 4, 5, 5, 4, 4, 3)[dim])):
        normal = [rng.randint(-2, 2) if rng.random() < 0.7 else 0 for _ in range(dim)]
        rows.append((normal, 0 if rng.random() < 0.6 else rng.randint(1, 3), rng.random() < 0.5))
    if rng.random() < 0.5:
        rows += pt.cube_rows(dim, rng.random() < 0.5)
    if rng.random() < 0.3:
        rows.append(rng.choice(rows))
    if rng.random() < 0.2:
        rows.append(([0] * dim, rng.choice((0, 0, 2)), rng.random() < 0.5))
    if rng.random() < 0.15:
        j = rng.randrange(dim)
        e = [int(i == j) for i in range(dim)]
        rows += [(e, 0, True), ([-c for c in e], 0, True)]
    rng.shuffle(rows)
    return pt.integer_polytope(dim, rows)


# A system with every offset >= 0 whose "feasible" answer needs a point: the
# point back-substitution builds satisfies the rows with offset 0 only, and
# `_lemma_point` scales it into the system.
CONE_BACK_SUBSTITUTION = (
    5,
    (((0, 0, -1, 0, 0), 1, True), ((-1, 0, 0, -1, 0), 1, True), ((0, 0, 0, 0, 0), 0, False),
     ((0, 1, 0, -1, 0), 0, True), ((0, 0, 0, 1, 0), 0, True), ((0, 0, 1, 0, 0), 0, True),
     ((0, 0, 0, 0, 1), 0, True), ((1, 0, 0, 0, 0), 0, True), ((-1, 0, 0, 0, 0), 1, True),
     ((0, 0, 0, -1, 0), 1, True), ((-2, 0, 0, 0, -2), 3, True), ((0, 0, 0, 0, -1), 1, True),
     ((0, 0, 2, -2, 1), 0, True), ((0, -1, 0, 0, 0), 1, True), ((0, 1, 0, 0, 0), 0, True),
     ((2, 0, -1, 1, -1), 0, True)),
)


def test_tangent_cone_elimination_against_oracles(monkeypatch):
    """When every offset is >= 0, only the rows with offset 0 enter the
    elimination (the tangent cone at the origin), and no verdict changes: on
    seeded systems in dims 1-6, `is_feasible` agrees with unpruned Fraction
    elimination over every row, with double description on the bounded
    ones, and with a grid search in dims 1-3 wherever the grid finds a
    point.  Each certificate verifies, also on the rational rows, and is 0
    on every row with a positive offset."""
    seen = _record_back_substitutions(monkeypatch)
    rng = random.Random(1414)
    kinds = Counter()
    for i in range(900):
        dim = 1 + i % 6
        system = _cone_system(rng, dim)
        rows = system.integer_rows
        seen.clear()
        feasible = pt.is_feasible(system)
        assert feasible == fm_is_feasible(system), rows
        for point in filter(None, seen):
            assert pt.contains(system, _lemma_point(system, point)), (rows, point)
        # both faces x_i >= -c and x_i <= c' in every coordinate: bounded
        if {normal for normal, _, _ in pt.cube_rows(dim, False)} <= {normal for normal, _, _ in rows}:
            weak = pt.integer_polytope(dim, [(normal, offset, False) for normal, offset, _ in rows])
            verts = pt.vertices(weak).vertices
            inner = bool(verts) and pt.contains(system, [sum(c) / len(verts) for c in zip(*verts)])
            assert feasible == inner, rows
            kinds["bounded"] += 1
        if dim <= 3:
            denom = (0, 16, 8, 4)[dim]
            steps = [F(k, denom) for k in range(-denom, denom + 1)]
            hit = next((x for x in product(steps, repeat=dim) if pt.contains(system, x)), None)
            if hit is not None:
                assert feasible and all(hs.holds(hit) for hs in rational_rows(system)), rows
                kinds["grid"] += 1
        cert = pt.infeasibility_certificate(system)
        assert (cert is None) == feasible
        if cert is not None:
            assert pt.verify_certificate(system, cert), rows
            reverify_certificate(rational_rows(system), system, cert)
            assert all(lam == 0 for lam, (_, offset, _) in zip(cert, rows) if offset), (rows, cert)
            kinds["infeasible"] += 1
    assert 250 < kinds["infeasible"] < 650 and kinds["bounded"] > 300 and kinds["grid"] > 150, kinds
    # the cone itself: x > 0 with -x > 0 is empty whatever the positive rows add
    forced = pt.integer_polytope(2, [((1, 0), 0, True), ((-1, 0), 0, True), ((-1, 1), 3, True)])
    assert pt.infeasibility_certificate(forced) == (1, 1, 0)
    dim, rows = CONE_BACK_SUBSTITUTION
    system = pt.integer_polytope(dim, rows)
    seen.clear()
    assert pt.is_feasible(system) and fm_is_feasible(system)
    assert seen and not pt.contains(system, seen[-1])
    assert pt.contains(system, _lemma_point(system, seen[-1]))
