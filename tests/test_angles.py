import pathlib
import random
import re
import time
from collections import Counter
from math import gcd, lcm
from operator import mul

import pytest

from ampleangles import angles as an
from ampleangles import classify as cl
from ampleangles import cli, dsl
from ampleangles import geometry as g
from ampleangles import pairs as pr
from ampleangles import polytope as pt
from _util import (
    F,
    P2_TABLE,
    aa_via_nef,
    adjoint_square_signs,
    affine_apply,
    affine_basis,
    affine_product,
    box_classes,
    brute_force_grid_points,
    canonical_text,
    class_map,
    cube_halfspaces,
    direct_ample_fn,
    direct_ample_p2,
    family_at,
    fn_table,
    fraction_reparam,
    gram_signs,
    grid,
    grid_system,
    halfspace,
    identity_map,
    inertia,
    oracle_rows,
    polytope,
    random_gram,
    rank2_candidates,
    remove_redundant,
    unit_gram,
    verify_reparam,
)
from test_acceptance import BASES, _random_script


def fn_pair(n, classes):
    boundary = [(f"C{i + 1}", ab) for i, ab in enumerate(classes)]
    return pr.make_pair(g.hirzebruch(n), boundary)


def p2_pair(degrees):
    return pr.make_pair(
        g.projective_plane(), [(f"C{i + 1}", (d,)) for i, d in enumerate(degrees)]
    )


def minimal_canonical(p: pt.HPolytope) -> str:
    return canonical_text(remove_redundant(p))


def expected_body(r, extra_normals_offsets, strict=True):
    rows = cube_halfspaces(r, strict=strict)
    rows += [halfspace(nm, off, strict) for nm, off in extra_normals_offsets]
    return polytope(r, rows)


def test_figure1_body():
    body = an.aa_halfspaces_rank_le2(fn_pair(1, [(1, 0), (1, 3)]))
    want = expected_body(2, [(( -1, 2), 0)])
    assert minimal_canonical(body.open_part) == minimal_canonical(want)
    assert body.exact


def test_aldp1_bodies():
    for n in range(1, 8):
        body = an.aa_halfspaces_rank_le2(fn_pair(n, [(1, 0), (1, n + 2)]))
        want = expected_body(2, [((-n, 2), 0)])
        assert minimal_canonical(body.open_part) == minimal_canonical(want)


def test_aldp3_bodies():
    for n in range(1, 8):
        body = an.aa_halfspaces_rank_le2(fn_pair(n, [(1, 0), (0, 1), (0, 1)]))
        want = expected_body(3, [((-n, 1, 1), 0)])
        assert minimal_canonical(body.open_part) == minimal_canonical(want)


def test_aldp4_body_uses_first_angle():
    # ordering (Z, F, F, (1,n)): the constraint is b2 + b3 - n b1 > 0 with
    # b4 free; the grid oracle below confirms the direct expansion
    for n in (1, 3):
        p = fn_pair(n, [(1, 0), (0, 1), (0, 1), (1, n)])
        body = an.aa_halfspaces_rank_le2(p)
        want = expected_body(4, [((-n, 1, 1, 0), 0)])
        assert minimal_canonical(body.open_part) == minimal_canonical(want)
        for beta in grid(4, 4):
            direct = direct_ample_fn(n, [(1, 0), (0, 1), (0, 1), (1, n)], beta)
            assert pt.contains(body.open_part, beta) == direct


def test_p2_body():
    body = an.aa_halfspaces_rank_le2(p2_pair([1]))
    # 2 + b1 > 0 is vacuous in the cube
    assert minimal_canonical(body.open_part) == minimal_canonical(
        polytope(1, cube_halfspaces(1, strict=True))
    )


def test_aa_body_unsupported_surface():
    surf = g.blow_up(g.hirzebruch(1), "E", "p")
    p = pr.make_pair(surf, [("Z", (1, 0, 0))])
    with pytest.raises(ValueError):
        an.aa_halfspaces_rank_le2(p)


def test_is_aldp_examples():
    assert an.is_aldp(fn_pair(2, [(2, 4)])) is False
    assert an.is_aldp(fn_pair(2, [(1, 2), (1, 2)])) is False
    for n in range(1, 13):
        assert an.is_aldp(fn_pair(n, [(1, 0), (0, 1), (0, 1)])) is True


def test_is_strongly_aldp_examples():
    assert an.is_strongly_aldp(p2_pair([3])) is True
    for n in range(1, 6):
        assert an.is_strongly_aldp(fn_pair(n, [(1, 0), (1, n + 2)])) is False
    assert an.is_strongly_aldp(fn_pair(0, [(1, 0), (1, 2)])) is True


def test_is_log_dp_examples():
    assert an.is_log_dp(p2_pair([1])) is True
    assert an.is_log_dp(p2_pair([3])) is False
    assert an.is_log_dp(fn_pair(2, [(1, 0)])) is True


def test_is_log_dp_agrees_with_is_ample_on_the_constant():
    """The verdict on the family's integer numerators of -K - C equals
    `is_ample` on the Fraction class -K - C: on each shipped sample's base
    pair and blown-up pair (UNSUPPORTED both ways) and on the classify
    candidates up to F_6."""
    scripts = [dsl.load_pair_spec(str(path)) for path in sorted(SAMPLES.glob("*.pair"))]
    pairs = [p for script in scripts for p in (script.base, script.final)]
    pairs += [cand.pair for cand in rank2_candidates(6)]
    verdicts = Counter()
    for p in pairs:
        verdict = an.is_log_dp(p)
        assert verdict is g.is_ample(p.surface, pr.log_adjoint(p).constant)
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False] and verdicts[g.UNSUPPORTED]


def test_blowup_pair_verdicts_undecided():
    base = fn_pair(1, [(1, 0), (0, 1)])
    up = pr.blow_up_node(base, "C1.C2.1", "E")
    assert an.is_aldp(up) is g.UNKNOWN
    assert an.is_strongly_aldp(up) is g.UNKNOWN
    assert an.is_log_dp(up) is g.UNSUPPORTED


def test_eta_examples():
    assert an.eta(pr.angles([F(1, 2), F(1, 2)])) == 1
    assert an.eta(pr.angles([F(1, 3)])) == 2
    assert an.eta(pr.angles([F(1, 4), F(3, 4)])) == 3
    with pytest.raises(ValueError):
        an.eta(pr.angles([F(1, 2), 1]))


def test_eta_against_its_definition():
    rng = random.Random(1806)
    for _ in range(300):
        r = rng.randint(1, 5)
        dens = [rng.choice((2, 3, 7, 16, 97, rng.randint(2, 10**6))) for _ in range(r)]
        gamma = [F(rng.randint(1, q - 1), q) for q in dens]
        assert an.eta(pr.angles(gamma)) == max(max((1 - x) / x, x / (1 - x)) for x in gamma)
    for gamma in ([F(0)], [F(1)], [F(1, 2), 0], [F(999_999, 10**6), 1]):
        with pytest.raises(ValueError, match="eta requires every angle strictly between 0 and 1"):
            an.eta(pr.angles(gamma))


def test_diagonal_map_divides_out_the_gcd():
    """AffineMap x_i -> (slope.x_i + shift_i)/den is its integer form in
    lowest terms with den > 0, so scaling it by 1..50 or by -1 gives the
    same map, and a zero denominator is refused.  `_map_and_inverse`
    builds the same map and the constructor's form of its inverse, whose
    dense views compose to the identity in both orders, and refuses a zero
    slope, the inverse's denominator."""
    rng = random.Random(41)
    with pytest.raises(ValueError, match="denominator must be nonzero"):
        pt.AffineMap(1, (2, 3), 0)
    for _ in range(300):
        r = rng.randint(1, 5)
        slope, den = rng.randint(-20, 20), rng.choice((1, -1)) * rng.randint(1, 40)
        shift = [rng.randint(-30, 30) for _ in range(r)]
        m = pt.AffineMap(slope, shift, den)
        assert m.den > 0 and gcd(m.den, m.slope, *m.shift) == 1 and m.dim == r
        g = gcd(den, slope, *shift) * (1 if den > 0 else -1)
        assert (m.slope, m.shift, m.den) == (slope // g, tuple(t // g for t in shift), den // g)
        for scale in (*range(1, 51), -1):
            twin = pt.AffineMap(scale * slope, [scale * t for t in shift], scale * den)
            assert twin == m and hash(twin) == hash(m)
            assert (twin.slope, twin.shift, twin.den) == (m.slope, m.shift, m.den)
        # the map and its inverse from one gcd, in the constructor's normal form
        if not slope:
            with pytest.raises(ValueError, match="denominator must be nonzero"):
                pt._map_and_inverse(slope, shift, den)
            continue
        f, f_inv = pt._map_and_inverse(slope, shift, den)
        assert tuple(f) == tuple(m) and type(f) is pt.AffineMap
        inverse = pt.AffineMap(den, [-t for t in shift], slope)
        assert tuple(f_inv) == tuple(inverse) and type(f_inv) is pt.AffineMap
        views = [(m.matrix, m.translation) for m in (f, f_inv)]
        assert affine_product(*views) == identity_map(r) == affine_product(*views[::-1])


def test_reparam_midpoint_is_identity():
    p = fn_pair(1, [(1, 0), (1, 3)])
    rd = an.reparam(p, pr.angles([F(1, 2), F(1, 2)]))
    assert rd.eta == 1
    basis = affine_basis(p.r)
    assert [rd.f.apply(x) for x in basis] == basis
    assert rd.ample_part.coeffs == (F(2), F(3))
    assert g.is_ample(p.surface, rd.ample_part) is True


def test_reparam_inverse_composition():
    p = fn_pair(2, [(1, 0), (0, 1), (0, 1)])
    basis = affine_basis(p.r)
    for gamma in ([F(1, 3), F(2, 3), F(5, 8)], [F(1, 5), F(9, 10), F(1, 2)]):
        rd = an.reparam(p, pr.angles(gamma))
        # both compositions fix the affine basis, so both are the identity
        assert [rd.f.apply(rd.f_inv.apply(x)) for x in basis] == basis
        assert [rd.f_inv.apply(rd.f.apply(x)) for x in basis] == basis


def test_reparam_identity_by_independent_evaluation():
    # check eta*(K + A + F(beta)) = adjoint(beta) at affinely spanning points
    p = fn_pair(1, [(1, 0), (1, 3)])
    gamma = pr.angles([F(1, 2), F(2, 3)])
    rd = an.reparam(p, gamma)
    fam = pr.log_adjoint(p)
    probes = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    for beta in probes:
        coeffs = rd.f.apply(beta)
        rhs = p.surface.divisor(p.surface.canonical) + rd.ample_part
        for c, cls in zip(coeffs, p.classes):
            rhs = rhs + c * cls
        assert (rd.eta * rhs).coeffs == family_at(fam, beta).coeffs


def test_reparam_boundary_coeff_bounds():
    p = fn_pair(3, [(1, 0), (0, 1), (0, 1)])
    gamma = pr.angles([F(1, 8), F(3, 4), F(3, 4)])
    assert pt.contains(an.aa_halfspaces_rank_le2(p).open_part, gamma.entries)
    rd = an.reparam(p, gamma)
    for corner in ([0, 0, 0], [1, 1, 1], [0, 1, 0]):
        coeffs = rd.f.apply([F(c) for c in corner])
        assert all(0 <= c <= 1 for c in coeffs)


def test_reparam_rejects_gamma_outside_body():
    p = fn_pair(2, [(1, 0), (1, 4)])  # needs 2 b2 > 2 b1
    with pytest.raises(ValueError):
        an.reparam(p, pr.angles([F(3, 4), F(1, 4)]))


def test_reparam_refuses_plain_int_corners():
    """An `AngleVector` built directly from plain ints is read through the
    same integer ratios as one of Fractions: a corner of the cube is
    refused with the one message, and a float entry with the exact gate's."""
    p = fn_pair(1, [(1, 0), (1, 3)])
    for corner in ((0, 1), (1, 1), (0, 0)):
        with pytest.raises(ValueError, match=rf"^{re.escape(an._OUTSIDE)}$"):
            an.reparam(p, pr.AngleVector(corner))
    with pytest.raises(TypeError, match=r"^0\.5 is not an exact rational"):
        pr.AngleVector((F(1, 2), 0.5))
    rd = an.reparam(p, pr.AngleVector((F(1, 2), F(1, 2))))
    assert type(rd) is an.ReparamData and type(rd.ample_part) is g.DivisorClass
    assert type(rd.eta) is F and all(type(c) is F for c in rd.ample_part.coeffs)


def _outcome(fn, p, gamma):
    """fn(p, gamma) as the Fraction oracle writes it, (gamma, eta, A, f,
    f_inv) with the maps as their (matrix, translation) views, or the text
    of its ValueError."""
    try:
        out = fn(p, gamma)
    except ValueError as exc:
        return f"ValueError: {exc}"
    if isinstance(out, an.ReparamData):
        out = (out.gamma, out.eta, out.ample_part, *((m.matrix, m.translation) for m in (out.f, out.f_inv)))
    return out


def test_reparam_against_fraction_oracle():
    survivors = [cl.build_pair(cl.CandidatePair("P2", None, degs)) for _, degs, _ in P2_TABLE]
    for n in range(9):
        survivors += [cl.build_pair(cl.CandidatePair(f"F{n}", n, c)) for _, c, _ in fn_table(n)]
    # boundaries with rational coefficients give the family a denominator
    survivors += [p2_pair([F(1, 2), 2]), fn_pair(1, [(F(1, 2), F(5, 3))]), fn_pair(0, [(F(2, 3), F(1, 3))])]
    blown = pr.blow_up_node(fn_pair(1, [(1, 0), (0, 1)]), "C1.C2.1", "E")
    rng = random.Random(20261018)
    denominators = (2, 3, 5, 7, 16, 97)
    built = Counter()
    for p in survivors:
        # the midpoint and 24 mixed-denominator angles; entries 0 and 1 occur
        gammas = [[F(1, 2)] * p.r]
        for _ in range(24):
            gammas.append([F(rng.randint(0, q), q) for q in rng.choices(denominators, k=p.r)])
        for gamma in gammas:
            got, want = _outcome(an.reparam, p, pr.angles(gamma)), _outcome(fraction_reparam, p, pr.angles(gamma))
            assert got == want, (p.classes, gamma)
            if isinstance(got, tuple):
                _, h, a, (_, t), (_, t_inv) = got
                assert all(type(v) is F for v in (h, *a.coeffs, *t, *t_inv))
                # both maps in the constructor's normal form: lowest terms, den > 0
                rd = an.reparam(p, pr.angles(gamma))
                verify_reparam(p, rd)
                assert type(rd.eta) is F
                for m in (rd.f, rd.f_inv):
                    assert m == pt.AffineMap(m.slope, m.shift, m.den) and type(m.shift) is tuple
                    assert m.den > 0 and gcd(m.den, m.slope, *m.shift) == 1
            built[isinstance(got, tuple)] += 1
    assert built[True] > 300 and built[False] > 300
    for p, gamma in ((blown, [F(1, 2)] * 3), (blown, [F(0)] * 3), (survivors[0], [F(1, 2)] * 2)):
        got = _outcome(an.reparam, p, pr.angles(gamma))
        assert got == _outcome(fraction_reparam, p, pr.angles(gamma)) and got.startswith("ValueError")

    # apply on random coordinatewise maps (zero slopes and shifts, mixed
    # denominators), against the plain Fraction evaluation of the views
    for _ in range(400):
        r = rng.randint(0, 4)
        m = pt.AffineMap(rng.randint(-6, 6), [rng.randint(-6, 6) for _ in range(r)], rng.choice((1, 2, 3, 7, 12)))
        x = [F(rng.randint(-9, 9), rng.choice(denominators)) for _ in range(r)]
        want = tuple(sum((a * b for a, b in zip(row, x)), t) for row, t in zip(m.matrix, m.translation))
        assert m.apply(x) == want and all(type(v) is F for v in m.apply(x))


def test_log_adjoint_at_matches_direct_evaluation():
    rng = random.Random(7)
    surface = g.hirzebruch(3)
    rand = lambda: F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 12)))
    for r in range(1, 5):
        for _ in range(25):
            constant = surface.divisor([rand(), rand()])
            increments = tuple(surface.divisor([rand(), rand()]) for _ in range(r))
            family = pr.LogAdjointFamily(constant, increments)
            beta = [F(rng.randint(0, 7), rng.choice((7, 2, 1))) for _ in range(r)]
            want = tuple(c + sum(b * inc.coeffs[j] for b, inc in zip(beta, increments))
                         for j, c in enumerate(constant.coeffs))
            # the column form at beta = k/d: d.constant_j plus column j's
            # terms against k is d.den times the class in coordinate j, the
            # evaluation reparam makes; a column lists its nonzero terms only
            den, nums, columns, normals = family.column_form
            assert (den, nums) == family.integer_form[:2]
            dense = [[inc[j] for inc in family.integer_form[2]] for j in range(2)]
            assert [list(col) for col in columns] == [[(i, v) for i, v in enumerate(c) if v] for c in dense]
            assert normals == g.nef_cone(surface)
            d = lcm(*(b.denominator for b in beta))
            k = [b.numerator * (d // b.denominator) for b in beta]
            got = [d * c + sum(a * k[i] for i, a in col) for c, col in zip(nums, columns)]
            assert all(type(v) is int for v in got)
            assert tuple(F(v, d * den) for v in got) == want


def _after(outer, inner):
    """The coordinatewise map outer after inner."""
    (s1, t1, d1), (s2, t2, d2) = outer, inner
    return pt.AffineMap(s1 * s2, [s1 * u + d2 * t for t, u in zip(t1, t2)], d1 * d2)


def test_reparam_checks_fire(monkeypatch):
    """`verify_reparam` rejects reparametrization data broken from outside,
    each time by the statement the break violates."""
    p = fn_pair(2, [(1, 0), (0, 1), (0, 1)])
    gamma = pr.angles([F(1, 3), F(2, 3), F(5, 8)])
    rd = an.reparam(p, gamma)
    verify_reparam(p, rd)
    # f_inv followed or preceded by a shift of one coordinate
    shift = pt.AffineMap(1, (1, 0, 0), 1)
    views = lambda m: (m.matrix, m.translation)
    for outer, inner in ((shift, rd.f_inv), (rd.f_inv, shift)):
        assert views(_after(outer, inner)) == affine_product(views(outer), views(inner))
    broken = [
        (rd._replace(ample_part=rd.ample_part + p.surface.divisor([1, 3])), "adjoint identity"),
        (rd._replace(eta=2 * rd.eta), "adjoint identity"),
        (rd._replace(f_inv=_after(shift, rd.f_inv)), "not the inverse"),
        (rd._replace(f_inv=_after(rd.f_inv, shift)), "not the inverse"),
    ]

    # reparam run with a broken helper builds data that keeps some
    # statements and breaks one
    def built_with(module, name, fake, angles=gamma.entries):
        monkeypatch.setattr(module, name, fake)
        try:
            return an.reparam(p, pr.angles(angles))
        finally:
            monkeypatch.undo()

    # f's slope doubled through the map builder, f_inv still its inverse:
    # eta.slope is not 1, so the increments break the identity
    real_maps = pt._map_and_inverse
    doubled = lambda slope, t, den: real_maps(2 * slope, t, den)
    broken.append((built_with(pt, "_map_and_inverse", doubled), "adjoint identity"))
    # a wrong eta = hn/hd with the true numerators: the identity still holds
    # for any eta, since the maps are built from it
    real_point = an._angle_point
    eta_as = lambda hn, hd: lambda entries, message: (*real_point(entries, message)[:2], hn, hd)
    # eta = -1/2: A = (1 + 1/eta).adjoint(gamma) = -adjoint(gamma) is not ample
    broken.append((built_with(an, "_angle_point", eta_as(1, -2)), "not ample"))
    # eta = 1, below the true maximum, pushes one coefficient out of [0, 1]
    # on one side only: f_i(0) >= 0 needs eta >= g_i/(1-g_i), which fails
    # for g_2 = 3/4, and f_i(1) <= 1 needs eta >= (1-g_i)/g_i, which fails
    # for g_1 = 1/4
    for angles in ([F(1, 2), F(3, 4), F(1, 2)], [F(1, 4), F(1, 2), F(1, 2)]):
        broken.append((built_with(an, "_angle_point", eta_as(1, 1), angles), r"leaves \[0, 1\]"))

    for bad, statement in broken:
        with pytest.raises(AssertionError, match=statement):
            verify_reparam(p, bad)
    assert an.reparam(p, gamma) == rd


def _query_survivors():
    """The 82 rank-2 survivors up to F_6: the plane's table, then F_0..F_6."""
    survivors = [cl.build_pair(cl.CandidatePair("P2", None, degs)) for _, degs, _ in P2_TABLE]
    for n in range(7):
        survivors += [cl.build_pair(cl.CandidatePair(f"F{n}", n, c)) for _, c, _ in fn_table(n)]
    assert len(survivors) == 82
    return survivors


def test_reparam_scales_to_the_query_survivors():
    """reparam at 64 seeded angles of denominator 16 on each rank-2
    survivor up to F_6, at those inside the open body (3 432 calls, as in
    one pass of the queries benchmark), within 4x the 0.05-0.075 s these
    calls took on a 2-vCPU VM under Python 3.11."""
    rng = random.Random(1)
    work = []
    for p in _query_survivors():
        body = an.aa_body(p).open_part
        for _ in range(64):
            beta = tuple(F(rng.randint(1, 15), 16) for _ in range(p.r))
            if pt.contains(body, beta):
                work.append((p, pr.angles(beta)))
    assert len(work) == 3432
    start = time.perf_counter()
    for p, gamma in work:
        an.reparam(p, gamma)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.3, f"{len(work)} reparam calls took {elapsed:.2f}s"


def test_open_part_rows_are_integer_polytope_rows():
    """The body builder divides only the ampleness rows by their gcd and
    appends the cube rows, which are coprime already: the open part is
    what `integer_polytope` makes of the same rows, on every classify
    candidate up to F_12 (built from its class tuples) and on the 82
    survivors up to F_6 (built from their pairs)."""
    candidates = rank2_candidates(12)
    assert len(candidates) == 386
    bodies = [(cand.pair, cand.body) for cand in candidates]
    bodies += [(p, an.aa_body(p)) for p in _query_survivors()]
    for p, body in bodies:
        _, constant, increments = pr.log_adjoint(p).integer_form
        rows = [
            (tuple(sum(map(mul, inc, w)) for inc in increments), sum(map(mul, constant, w)), True)
            for w in g.nef_cone(p.surface)
        ]
        cube = pt.cube_rows(p.r, True)
        assert cube is pt.cube_rows(p.r, True)
        assert body.open_part == pt.integer_polytope(p.r, [*rows, *cube])
        assert body.open_part.integer_rows[len(rows):] == cube


def test_aa_via_nef_matches_direct():
    cases = [
        fn_pair(1, [(1, 0), (1, 3)]),
        fn_pair(4, [(1, 0), (0, 1), (0, 1)]),
        fn_pair(0, [(1, 1), (1, 1)]),
        p2_pair([2, 1]),
    ]
    for p in cases:
        via, closed = aa_via_nef(p)
        direct = an.aa_halfspaces_rank_le2(p)
        assert canonical_text(closed) == canonical_text(pt.closure(direct.open_part))
        assert via.exact
        # an independently built open part gives the same strength verdict
        assert via.strongly_aldp is direct.strongly_aldp


def test_class_map_at_one_is_minus_k():
    for p in (fn_pair(3, [(1, 0), (0, 1)]), p2_pair([1, 1])):
        phi = class_map(p)
        assert affine_apply(phi, [F(1)] * p.r) == p.surface.minus_k().coeffs


def test_p2_line_nef_preimage_is_cube():
    _, closed = aa_via_nef(p2_pair([1]))
    assert minimal_canonical(closed) == minimal_canonical(
        polytope(1, cube_halfspaces(1, strict=False))
    )


def test_outer_blowup_constraints():
    base = pr.make_pair(g.hirzebruch(1), [("Z", (1, 0)), ("F", (0, 1))])
    up = pr.blow_up_node(base, "Z.F.1", "E")
    body, report = an.aa_outer_blowup(up)
    assert not body.exact
    # the exceptional-curve constraint carries the residual coefficients
    _, residual = pr.contract(up, "E")
    lines = pt.canonical_lines(body.open_part)
    coeffs = " ".join(str(int(c)) for c in residual[1])
    assert f"{coeffs} | {int(residual[0])} > 0" in lines
    # quadratic at beta = 1 is K^2
    k = up.surface.divisor(up.surface.canonical)
    at_one = report.constant + sum(report.linear) + sum(map(sum, report.quadratic))
    assert at_one == g.intersect(k, k)


def test_outer_blowup_excludes_certified_non_ample_points():
    # any point off the outer body violates a tracked honest curve
    base = pr.make_pair(g.hirzebruch(1), [("Z", (1, 0)), ("F", (0, 1))])
    up = pr.blow_up_node(base, "Z.F.1", "E")
    body, _ = an.aa_outer_blowup(up)
    fam = pr.log_adjoint(up)
    tracked = list(up.classes) + [up.surface.divisor(tc.coeffs) for tc in up.tracked]
    for beta in grid(3, 4):
        inside = pt.contains(body.open_part, beta)
        cls = family_at(fam, beta)
        violating = [t for t in tracked if g.intersect(cls, t) <= 0]
        if not inside:
            assert violating
        else:
            assert not violating


def test_outer_blowup_requires_blowup_surface():
    with pytest.raises(ValueError):
        an.aa_outer_blowup(fn_pair(1, [(1, 0)]))


def fiber_blowups(fiber_tag):
    """F_2 with C1 + C2 + C3 + C4, blown up at a smooth point of C1 and one
    of C4: on one fiber when both steps carry the same fiber tag, on
    distinct fibers when it is None."""
    base = fn_pair(2, [(1, 0), (0, 1), (0, 1), (1, 2)])
    p = pr.blow_up_smooth_point(base, "C1", "q1", fiber_tag=fiber_tag)
    return pr.blow_up_smooth_point(p, "C4", "q2", fiber_tag=fiber_tag)


def test_outer_blowup_detects_shared_fiber_degeneration():
    # blowing both points of (fiber meets boundary) on one fiber leaves the
    # adjoint with zero intersection against the fiber transform for every
    # angle: the outer body must come back empty
    body, _ = an.aa_outer_blowup(fiber_blowups("f"))
    assert not pt.is_feasible(body.open_part)
    # distinct fibers through the two centers keep the body alive
    body2, _ = an.aa_outer_blowup(fiber_blowups(None))
    assert pt.is_feasible(body2.open_part)


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def chain_pair(r):
    """F_1 with Z + F and r - 2 node blow-ups repeated on Z."""
    p = pr.blow_up_node(fn_pair(1, [(1, 0), (0, 1)]), "C1.C2.1", "E1")
    for i in range(2, r - 1):
        p = pr.blow_up_node(p, f"C1.E{i - 1}.1", f"E{i}")
    return p


def fraction_sign_table(p, open_part, denom):
    """(samples, positive, zero, negative) of q = adjoint(beta)^2 over the
    grid points of the open body, scanned in Fractions."""
    adj = pr.log_adjoint(p)
    signs = Counter()
    for beta in grid(p.r, denom):
        if pt.contains(open_part, beta):
            cls = family_at(adj, beta)
            q = g.intersect(cls, cls)
            signs[(q > 0) - (q < 0)] += 1
    return sum(signs.values()), signs[1], signs[0], signs[-1]


def report_gram(report):
    """The report's quadratic as an integer Gram matrix: the symmetric
    matrix of its Fraction fields (half the linear terms off the diagonal)
    times their common denominator, which keeps every sign."""
    half = [v / 2 for v in report.linear]
    rows = [[report.constant, *half]] + [[h, *row] for h, row in zip(half, report.quadratic)]
    scale = lcm(*(v.denominator for row in rows for v in row))
    return [[int(v * scale) for v in row] for row in rows]


def test_quadratic_sign_table_against_fraction_scan():
    near = dsl.load_pair_spec(str(SAMPLES / "infinitely-near.pair")).final
    # the report's own grids: 1/16, and 1/4 above r = 4
    for p, used in ((near, 16), (chain_pair(5), 4)):
        body, report = an.aa_outer_blowup(p)
        assert report.grid_denominator == used
        got = (report.samples, report.positive, report.zero, report.negative)
        assert got == fraction_sign_table(p, body.open_part, used)
    # the odd 7, 9 and 3 on the report's quadratic and open body; r = 6
    # keeps the 3 below the report's 1/4
    for p, denom in ((near, 7), (chain_pair(6), 3), (fiber_blowups(None), 9)):
        body, report = an.aa_outer_blowup(p)
        signs = an._quadratic_signs(report_gram(report), denom, body.open_part)
        assert (sum(signs), *signs) == fraction_sign_table(p, body.open_part, denom)
    shared = dsl.load_pair_spec(str(SAMPLES / "shared-fiber-degeneration.pair")).final
    _, report = an.aa_outer_blowup(shared)
    assert report.samples == 0


def test_outer_blowup_reads_no_vertices():
    """A report without grid samples reads neither the closure nor its
    vertices: an empty body, and the r = 5 chain, whose open body holds no
    point of the 1/4 grid."""
    shared = dsl.load_pair_spec(str(SAMPLES / "shared-fiber-degeneration.pair")).final
    for p in (shared, chain_pair(5)):
        body, report = an.aa_outer_blowup(p)
        assert report.samples == 0, p.r
        assert "vertices" not in vars(body) and "closed_hull" not in vars(body), p.r


def test_check_enumerates_vertices_once(monkeypatch, capsys):
    """In-process `check` of the infinitely-near sample runs double
    description once, for the printed body, whose vertices also prove the
    sign table, and never signs the grid point by point."""
    calls = []
    vertices = pt.vertices

    def counted(p):
        calls.append(p.dim)
        return vertices(p)

    def no_signs(*args):
        raise AssertionError("the grid was signed point by point")

    monkeypatch.setattr(an.pt, "vertices", counted)
    monkeypatch.setattr(an, "_quadratic_signs", no_signs)
    assert cli.main(["check", str(SAMPLES / "infinitely-near.pair")]) == 2
    assert "5356 samples, 5356 positive, 0 zero, 0 negative" in capsys.readouterr().out
    assert calls == [4]


def lorentzian_gram(rng, r):
    """A random Gram matrix pulled back from a Lorentzian lattice: A^T.J.A
    for J = diag(1, -1, ..., -1) of size 2..5 and an integer A of r + 1
    columns whose first row, in 4..9, leans the images toward J's positive
    direction."""
    rho = rng.randint(2, 5)
    a = [[rng.randint(4, 9) for _ in range(r + 1)]]
    a += [[rng.randint(-9, 9) for _ in range(r + 1)] for _ in range(rho - 1)]
    sign = [1] + [-1] * (rho - 1)
    return [[sum(s * row[u] * row[v] for s, row in zip(sign, a)) for v in range(r + 1)] for u in range(r + 1)]


def test_vertex_certificate_is_sound_on_lorentzian_grams():
    """Whenever the vertices prove q > 0, no grid point of the open body has
    q <= 0: random Lorentzian Gram matrices on the strict open bodies of
    random grid systems, cut to the open cube.  The certificate also
    refuses bodies that have a point with q <= 0, and the three hand-made
    refusals: q = (1 - 2.beta)^2 on (0, 1), whose vertex images lie on
    opposite sides of the cone and which vanishes at 1/2, q = 0, and
    q = 1 - 2.beta^2, whose vertex images have squares 1 and -1."""
    rng = random.Random(2828)
    kinds = Counter()
    for _ in range(600):
        r = rng.randint(1, 3)
        denom = rng.choice([d for d in (2, 3, 4, 7, 16) if (d - 1) ** r <= 4000])
        rows = [(normal, offset, True) for normal, offset, _ in grid_system(rng, r, denom).integer_rows]
        open_part = pt.integer_polytope(r, [*rows, *pt.cube_rows(r, True)])
        points = brute_force_grid_points(open_part, denom)
        if not points:
            continue
        gram = lorentzian_gram(rng, r)
        fires = an._positive_on_vertices(gram, pt.vertices(pt.closure(open_part)).vertices)
        _, zero, negative = gram_signs(gram, denom, points)
        if fires:
            assert zero == negative == 0, (open_part.integer_rows, gram)
        kinds["fires" if fires else "refused, q <= 0 somewhere" if zero or negative else "refused"] += 1
    assert kinds["fires"] >= 50 and kinds["refused, q <= 0 somewhere"] >= 30, kinds
    segment = [(F(0),), (F(1),)]
    square = [[1, -2], [-2, 4]]  # (1 - 2.beta)^2
    assert gram_signs(square, 2, [(1,)]) == (0, 1, 0)
    assert not an._positive_on_vertices(square, segment)
    assert not an._positive_on_vertices([[0, 0], [0, 0]], segment)
    # a vertex image of square -1 refuses, however far the other side is positive
    assert not an._positive_on_vertices([[1, 0], [0, -2]], segment)
    assert an._positive_on_vertices([[1, 0], [0, 0]], segment)


def test_intersection_forms_have_one_positive_eigenvalue():
    """The Hodge index theorem, the vertex certificate's hypothesis, by the
    test's own inertia oracle: the intersection matrix has exactly one
    positive eigenvalue and full rank on the plane, F_0..F_6, the blow-up
    samples, the chains r = 5..12 and 100 seeded blow-up scripts."""
    assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert inertia([[1, 2, 0], [2, 4, 0], [0, 0, -3]]) == (1, 1, 1)
    assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    surfaces = [g.projective_plane()] + [g.hirzebruch(n) for n in range(7)]
    for path in sorted(SAMPLES.glob("*.pair")):
        p = dsl.load_pair_spec(str(path)).final
        if isinstance(p.surface.provenance, g.BlowUp):
            surfaces.append(p.surface)
    surfaces += [chain_pair(r).surface for r in range(5, 13)]
    rng = random.Random(1909)
    surfaces += [_random_script(rng, rng.choice(BASES)(), rng.randint(1, 4)).surface for _ in range(100)]
    assert len(surfaces) >= 8 + 2 + 8 + 100
    for s in surfaces:
        assert inertia(s.intersection_matrix) == (1, s.rank - 1, 0), s.basis_labels


def _report_without_certificate(monkeypatch, p):
    with monkeypatch.context() as patched:
        patched.setattr(an, "_positive_on_vertices", lambda gram, vertices: False)
        return an.aa_outer_blowup(p)[1]


def test_certified_report_matches_the_signed_grid(monkeypatch):
    """The report with the vertex certificate equals the one that signs
    every grid point: the blow-up samples, the benchmark's chain inputs and
    120 seeded blow-up scripts.  The certificate holds on every body with
    grid samples, so none of them is signed point by point.  No benchmark
    job runs the signing walk, so its time has a budget here: the reports
    built without the certificate, double description included, take under
    3 s together (0.18-0.25 s on a 2-vCPU VM)."""
    paths = sorted(SAMPLES.glob("*.pair"))
    paths += [REPO / "perfbench" / "inputs" / f"chain-r{r}.pair" for r in (5, 6)]
    pairs = [dsl.load_pair_spec(str(path)).final for path in paths]
    rng = random.Random(6174)
    pairs += [_random_script(rng, rng.choice(BASES)(), rng.randint(1, 3)) for _ in range(120)]
    pairs = [p for p in pairs if isinstance(p.surface.provenance, g.BlowUp)]
    kinds = Counter()
    walk = 0.0
    for p in pairs:
        body, report = an.aa_outer_blowup(p)
        start = time.perf_counter()
        signed = _report_without_certificate(monkeypatch, p)
        walk += time.perf_counter() - start
        assert report == signed, p.r
        if report.samples:
            assert an._positive_on_vertices(report_gram(report), body.vertices.vertices), p.r
        kinds["samples" if report.samples else "none"] += 1
    assert len(pairs) >= 100 and kinds["samples"] >= 100, kinds
    assert walk < 3.0, f"{len(pairs)} reports signed point by point took {walk:.2f}s"


def test_one_angle_sign_tables():
    """Blow-ups with one angle: the plane with a line, and with a conic,
    after 1-3 seeded smooth blow-ups of their one component.  The report's
    sign table equals the Fraction scan of its 1/16 grid."""
    rng = random.Random(4711)
    seen = Counter()
    for degree in (1, 2):
        for _ in range(4):
            p = p2_pair([degree])
            for step in range(rng.randint(1, 3)):
                p = pr.blow_up_smooth_point(p, 0, f"e{step}")
            body, report = an.aa_outer_blowup(p)
            assert p.r == 1 and report.grid_denominator == 16
            got = (report.samples, report.positive, report.zero, report.negative)
            assert got == fraction_sign_table(p, body.open_part, 16), (degree, p.surface.rank)
            seen[degree, report.samples > 0] += 1
    assert seen[1, True] and seen[2, True], seen


def test_sign_table_against_adjoint_square_at_grid_points():
    """The printed sign table of `aa_outer_blowup` against the exact sign of
    adjoint(beta)^2 at every point of the brute-force grid scan: the shipped
    blow-up samples, the benchmark's chain inputs and seeded blow-up
    scripts of the acceptance suite."""
    paths = sorted(SAMPLES.glob("*.pair"))
    paths += [REPO / "perfbench" / "inputs" / f"chain-r{r}.pair" for r in (5, 6)]
    pairs = [dsl.load_pair_spec(str(path)).final for path in paths]
    rng = random.Random(5150)
    pairs += [_random_script(rng, rng.choice(BASES)(), rng.randint(1, 3)) for _ in range(20)]
    pairs = [p for p in pairs if isinstance(p.surface.provenance, g.BlowUp)]
    samples = 0
    for p in pairs:
        body, report = an.aa_outer_blowup(p)
        points = brute_force_grid_points(body.open_part, report.grid_denominator)
        want = adjoint_square_signs(p, points, report.grid_denominator)
        assert report.samples == len(points), p.r
        assert (report.positive, report.zero, report.negative) == want, p.r
        samples += len(points)
    assert len(pairs) == 24 and samples > 1000, (len(pairs), samples)


def test_grid_points_on_shipped_bodies():
    """The one-pass sign table against the brute-force grid points, under
    q = 1 (their number) and a random integer Gram matrix (their signs one
    by one), on the open body of every pair the samples build, at 1/7 and
    the CLI's 1/16, and of the r = 5..8 chains at 1/4 (the report's grid
    above r = 4) and, for r <= 6, at 1/7.  The chains' open bodies are
    built from the oracle rows, which skips the closure aa_body computes
    (seconds at r = 8)."""
    bodies = []
    for path in sorted(SAMPLES.glob("*.pair")):
        for p in dsl.load_pair_spec(str(path)).apply():
            bodies += [(an.aa_body(p).open_part, denom) for denom in (7, 16)]
    for r in range(5, 9):
        open_part = polytope(r, oracle_rows(chain_pair(r)) + cube_halfspaces(r, strict=True))
        bodies += [(open_part, denom) for denom in ((4, 7) if r <= 6 else (4,))]
    rng = random.Random(2626)
    hits = 0
    for body, denom in bodies:
        points = brute_force_grid_points(body, denom)
        gram = random_gram(rng, body.dim)
        assert an._quadratic_signs(gram, denom, body) == gram_signs(gram, denom, points), (body.dim, denom)
        assert an._quadratic_signs(unit_gram(body.dim), denom, body) == (len(points), 0, 0)
        hits += len(points)
    assert len(bodies) == 22 and hits > 40_000


def test_elimination_and_double_description_agree_on_report_bodies():
    """Fourier-Motzkin and double description, two independent kernels,
    agree on every report body: the samples, the benchmark's chain inputs,
    the seeded blow-up scripts of the acceptance suite and the chains
    r = 7..16.  The body's closure, by elimination, is canonical_empty
    exactly when the weakened rows have no vertex, or the average of their
    vertices, a point of the closure's relative interior, fails a strict
    row; the body's vertices, read after its closure, are those vertices
    or none."""
    paths = sorted(SAMPLES.glob("*.pair"))
    paths += [REPO / "perfbench" / "inputs" / f"chain-r{r}.pair" for r in (5, 6)]
    pairs = [dsl.load_pair_spec(str(path)).final for path in paths]
    rng = random.Random(4242)
    pairs += [_random_script(rng, rng.choice(BASES)(), rng.randint(1, 3)) for _ in range(30)]
    pairs += [chain_pair(r) for r in range(7, 17)]
    kinds = Counter()
    for p in pairs:
        body = an.aa_body(p)
        assert "closed_hull" not in vars(body) and "vertices" not in vars(body)
        closed = body.closed_hull
        assert closed == pt.closure(body.open_part), p.r
        rows = body.open_part.integer_rows
        verts = pt.vertices(pt.integer_polytope(p.r, [(nm, c, False) for nm, c, _ in rows])).vertices
        inner = bool(verts) and pt.contains(body.open_part, [sum(c) / len(verts) for c in zip(*verts)])
        assert (closed == pt.canonical_empty(p.r)) == (not inner), p.r
        assert body.vertices.vertices == (verts if inner else ()), p.r
        kinds[inner] += 1
    # only the shared-fiber degeneration has an empty body
    assert kinds == Counter({True: 45, False: 1}), kinds


# bases whose -K - C is not nef: Z on F_1 (Z^2 = -1), -H on the plane and
# -F on F_1 with Z, a section of class Z + F and three fibers
NON_NEF_BASES = [
    lambda: pr.make_pair(g.hirzebruch(1), [("Z", (1, 0)), ("F1", (0, 1)), ("F2", (0, 1)), ("F3", (0, 1))]),
    lambda: pr.make_pair(g.projective_plane(), [(f"L{i}", (1,)) for i in range(1, 5)]),
    lambda: pr.make_pair(
        g.hirzebruch(1), [("Z", (1, 0)), ("C", (1, 1)), ("F1", (0, 1)), ("F2", (0, 1)), ("F3", (0, 1))]
    ),
]


def _non_nef_script(rng):
    """A seeded blow-up script of at most 12 angles on a non-nef base.  On
    the base with the section C it ends with two centres on one fiber, one
    on Z and one on C, which empties most of those bodies (as in
    samples/shared-fiber-degeneration.pair)."""
    k = rng.randrange(len(NON_NEF_BASES))
    base = NON_NEF_BASES[k]()
    pair = _random_script(rng, base, rng.randint(1, 12 - base.r))
    if k == 2:
        pair = pr.blow_up_smooth_point(pr.blow_up_smooth_point(pair, "Z", "q1", "f"), "C", "q2", "f")
    return pair


def test_elimination_closes_non_nef_blowup_bodies():
    """Outer bodies whose open part has a negative offset go through full
    Fourier-Motzkin elimination, not the tangent cone at the origin: 200
    seeded blow-up scripts up to r = 12 on bases whose -K - C is not nef,
    empty and non-empty bodies both.  Every closure agrees with double
    description's vertex-average test (the weakened rows have vertices and
    their average satisfies the open part), and the 200 close in under
    1 s together."""
    rng = random.Random(2512)
    bodies = [an.aa_body(_non_nef_script(rng)) for _ in range(200)]
    start = time.perf_counter()
    closures = [body.closed_hull for body in bodies]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"closing 200 non-nef blow-up bodies took {elapsed:.2f}s"
    kinds = Counter()
    for body, closed in zip(bodies, closures):
        rows, r = body.open_part.integer_rows, body.open_part.dim
        assert r <= 12 and any(offset < 0 for _, offset, _ in rows)
        verts = pt.vertices(pt.integer_polytope(r, [(nm, c, False) for nm, c, _ in rows])).vertices
        inner = bool(verts) and pt.contains(body.open_part, [sum(c) / len(verts) for c in zip(*verts)])
        assert (closed == pt.canonical_empty(r)) == (not inner), rows
        assert body.vertices.vertices == (verts if inner else ()), rows
        kinds[inner] += 1
        kinds["r >= 10"] += r >= 10
    assert kinds[True] >= 20 and kinds[False] >= 20 and kinds["r >= 10"] >= 4, kinds


def test_elimination_scales_on_chains():
    """Fourier-Motzkin on the chains' open parts, whose offsets are all >= 0,
    eliminates only the rows with offset 0, their tangent cone at the
    origin: r = 20, 26 and 30 are feasible in under 0.5 s together
    (eliminating every row took 11.2 s at r = 20 alone).  Up to r = 16 the
    verdict agrees with double description: the weakened rows have
    vertices and their average satisfies the open part."""
    bodies = [an.aa_body(chain_pair(r)).open_part for r in (20, 26, 30)]
    start = time.perf_counter()
    verdicts = [pt.is_feasible(body) for body in bodies]
    elapsed = time.perf_counter() - start
    assert verdicts == [True] * 3
    assert elapsed < 0.5, f"elimination on the r = 20, 26, 30 chains took {elapsed:.2f}s"
    for r in (4, 8, 12, 16):
        body = an.aa_body(chain_pair(r)).open_part
        assert all(offset >= 0 for _, offset, _ in body.integer_rows), r
        rows = body.integer_rows
        verts = pt.vertices(pt.integer_polytope(r, [(nm, c, False) for nm, c, _ in rows])).vertices
        inner = bool(verts) and pt.contains(body, [sum(c) / len(verts) for c in zip(*verts)])
        assert pt.is_feasible(body) == inner, r


def test_vertices_do_not_depend_on_row_order():
    """Double description lists the same vertices of a closed chain body
    whatever the order of its rows: r = 8 and r = 10 (64 and 110 vertices),
    each in its written order and in three seeded shuffles.  `vertices`
    sorts the rows it is given, so the shuffles also enter
    `_double_description` directly, in the order they were drawn, and must
    give the same rays; the time budget is in
    test_vertices_of_the_r16_chain_in_any_row_order."""
    for r, count in ((8, 64), (10, 110)):
        closed = an.aa_body(chain_pair(r)).closed_hull
        want = pt.vertices(closed)
        assert len(want.vertices) == count, r
        t_row = (0,) * r + (1,)
        written = [normal + (offset,) for normal, offset, _ in closed.integer_rows]
        want_rays = sorted(pt._double_description([t_row, *sorted(written)])[0])
        for seed in (1, 2, 3):
            rows = list(closed.integer_rows)
            random.Random(seed).shuffle(rows)
            assert pt.vertices(pt.HPolytope(r, tuple(rows))) == want, (r, seed)
            rays, lines = pt._double_description([t_row, *(normal + (offset,) for normal, offset, _ in rows)])
            assert sorted(rays) == want_rays and not lines, (r, seed)


def test_vertices_are_sorted_on_their_fractions():
    """`vertices` orders the rays on an integer key; the chain bodies at
    r = 8 and 12 come back in the lexicographic order of their Fraction
    tuples, and as exactly the Fractions x/t of the double-description rays
    with t > 0."""
    for r in (8, 12):
        closed = an.aa_body(chain_pair(r)).closed_hull
        got = pt.vertices(closed).vertices
        assert got == tuple(sorted(got)), r
        rows = sorted({normal + (offset,) for normal, offset, _ in closed.integer_rows})
        rays, _ = pt._double_description([(0,) * r + (1,), *rows])
        want = sorted(tuple(F(x, ray[-1]) for x in ray[:-1]) for ray in rays if ray[-1] > 0)
        assert got == tuple(want), r


def test_vertices_of_the_r16_chain_in_any_row_order():
    """The r = 16 chain body (48 rows, 368 vertices) with its cube rows
    first, which ran for over 9 minutes before `vertices` sorted its rows,
    and in three seeded shuffles: the same vertices each time, each under
    2 s (0.06-0.19 s on a 2-vCPU VM)."""
    r = 16
    closed = an.aa_body(chain_pair(r)).closed_hull
    cube = set(pt.cube_rows(r, False))
    rows = list(closed.integer_rows)
    faces = [row for row in rows if row in cube]
    assert len(faces) == 2 * r and len(rows) == 48
    orders = [faces + [row for row in rows if row not in cube]]
    for seed in (1, 2, 3):
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    want = None
    for i, order in enumerate(orders):
        start = time.perf_counter()
        got = pt.vertices(pt.HPolytope(r, tuple(order)))
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"order {i}: {elapsed:.2f}s"
        assert len(got.vertices) == 368 and got == (want or got), i
        want = got


def test_quadratic_signs_match_fraction_evaluation():
    # every sampled sign on the shipped pairs is positive, so the table is
    # checked on random systems and symmetric integer Gram matrices as well,
    # each scaled so that q vanishes at a grid point of the system
    rng = random.Random(31)
    seen = Counter()
    for _ in range(40):
        r = rng.randint(1, 4)
        denom = rng.choice([d for d in (2, 3, 7, 16) if (d - 1) ** r <= 4000])
        points = []
        while not points:
            system = grid_system(rng, r, denom)
            points = brute_force_grid_points(system, denom)
        gram = random_gram(rng, r)

        def q(k):
            v = [F(1)] + [F(x, denom) for x in k]
            return sum(gram[i][j] * v[i] * v[j] for i in range(r + 1) for j in range(r + 1))

        # scale the rest of the form so that an integer constant makes q
        # vanish at a random point of the system
        for i in range(r + 1):
            for j in range(r + 1):
                gram[i][j] *= denom * denom
        gram[0][0] = 0
        rest = q(rng.choice(points))
        assert rest.denominator == 1
        gram[0][0] = -rest.numerator
        want = Counter()
        for k in points:
            value = q(k)
            want[(value > 0) - (value < 0)] += 1
        assert an._quadratic_signs(gram, denom, system) == (want[1], want[0], want[-1])
        seen += want
    assert all(seen[s] > 40 for s in (1, 0, -1)), seen


def test_grid_oracle_rank2_families():
    cases = [
        (1, [(1, 0), (1, 3)]),
        (2, [(1, 0), (0, 1), (0, 1)]),
        (0, [(1, 0), (1, 0)]),
        (3, [(1, 0), (0, 1), (1, 3)]),
    ]
    for n, classes in cases:
        p = fn_pair(n, classes)
        body = an.aa_halfspaces_rank_le2(p)
        for beta in grid(p.r, 8):
            direct = direct_ample_fn(n, classes, beta)
            assert pt.contains(body.open_part, beta) == direct


def test_grid_oracle_p2():
    p = p2_pair([2, 1])
    body = an.aa_halfspaces_rank_le2(p)
    for beta in grid(2, 8):
        assert pt.contains(body.open_part, beta) == direct_ample_p2([(2,), (1,)], beta)


def test_non_strong_body_constraint_is_irredundant():
    # the single non-cube inequality genuinely cuts the cube for n >= 1
    for n in (1, 2, 5, 12):
        body = an.aa_halfspaces_rank_le2(fn_pair(n, [(1, 0), (1, n + 2)]))
        reduced = remove_redundant(body.closed_hull)
        want = pt.canonical_lines(polytope(2, [halfspace([-n, 2], 0, False)]))[0]
        assert want in pt.canonical_lines(reduced)


REPO = pathlib.Path(__file__).resolve().parent.parent


def assert_body_matches_oracle(p, body):
    """The body against one built from the oracle rows: the same exactness,
    open part and closure in canonical text, and the same strength verdict
    from `is_strongly_aldp` and from the body itself."""
    rows = oracle_rows(p)
    open_part = polytope(p.r, rows + cube_halfspaces(p.r, strict=True))
    blown_up = isinstance(p.surface.provenance, g.BlowUp)
    assert body.exactness == (an.OUTER if blown_up else an.EXACT)
    assert canonical_text(body.open_part) == canonical_text(open_part)
    assert canonical_text(body.closed_hull) == canonical_text(pt.closure(open_part))
    if blown_up:
        assert body.strongly_aldp is g.UNKNOWN
    else:
        strong = all(
            hs.offset > 0 or (hs.offset == 0 and min(hs.normal) >= 0 and max(hs.normal) > 0)
            for hs in rows
        )
        assert an.is_strongly_aldp(p) is strong
        assert body.strongly_aldp is strong


def test_bodies_match_oracle_rows_on_spec_files():
    paths = sorted(SAMPLES.glob("*.pair")) + sorted((REPO / "perfbench" / "inputs").glob("*.pair"))
    assert len(paths) >= 6
    for path in paths:
        p = dsl.load_pair_spec(str(path)).final
        assert_body_matches_oracle(p, an.aa_body(p))


def test_bodies_match_oracle_rows_on_seeded_blowup_scripts():
    bases = [
        lambda: fn_pair(1, [(1, 0), (0, 1)]),
        lambda: fn_pair(1, [(1, 0), (1, 3)]),
        lambda: fn_pair(2, [(1, 0), (0, 1), (1, 2)]),
        lambda: fn_pair(0, [(1, 1), (1, 1)]),
        lambda: p2_pair([2, 1]),
    ]
    rng = random.Random(808)
    for _ in range(30):
        p = rng.choice(bases)()
        for step in range(rng.randint(1, 3)):
            moves = [("smooth", lab) for lab in p.labels] + [("node", nd.id) for nd in p.nodes]
            op, target = rng.choice(moves)
            blow = pr.blow_up_smooth_point if op == "smooth" else pr.blow_up_node
            p = blow(p, target, f"e{step}")
        assert_body_matches_oracle(p, an.aa_body(p))
        assert_body_matches_oracle(p, an.aa_outer_blowup(p)[0])


def test_bodies_match_oracle_rows_on_classify_candidates():
    candidates = rank2_candidates(3)
    assert len(candidates) == 89  # 6 on the plane, 83 on F_0, ..., F_3
    for cand in candidates:
        assert_body_matches_oracle(cand.pair, cand.body)
        assert cand.body.aldp is an.is_aldp(cand.pair)


def _random_rank2_pairs(rng, count):
    """Seeded admissible boundaries beyond the classify box: up to four
    components of degree up to 4 on the plane, or of classes aZ + bF with
    a <= 3 and b <= n + 4 on F_n, Z_n at most once."""
    out = []
    for _ in range(count):
        n = rng.choice([None, *range(7)])
        if n is None:
            out.append(p2_pair([rng.randint(1, 4) for _ in range(rng.randint(1, 4))]))
            continue
        alphabet = box_classes(n, max_a=3, max_b=n + 4)
        classes = [rng.choice(alphabet) for _ in range(rng.randint(1, 4))]
        if n and classes.count((1, 0)) > 1:
            classes = [(1, 0)] + [ab for ab in classes if ab != (1, 0)]
        out.append(fn_pair(n, classes))
    return out


def test_lazy_aldp_matches_eager_closure():
    """On every classify candidate and on seeded boundaries beyond them, the
    body's ALdP and strong ALdP verdicts and its closure equal the eager
    forms: a twin body whose closure, by Fourier-Motzkin elimination, is
    read before its verdicts, and the ALdP verdict as the origin's
    membership in that closure.  The closure is computed only where
    -K - C is nef, i.e. every offset of the open part is >= 0."""
    pairs = [cand.pair for cand in rank2_candidates(12)]
    assert len(pairs) == 386
    pairs += _random_rank2_pairs(random.Random(20), 300)
    seen = Counter()
    for p in pairs:
        body = an.aa_halfspaces_rank_le2(p)
        open_part = body.open_part
        aldp = body.aldp
        nef = all(offset >= 0 for _, offset, _ in open_part.integer_rows)
        assert ("closed_hull" in vars(body)) is nef
        closed = pt.closure(open_part)
        eager = an.AABody(open_part, an.EXACT)
        assert eager.closed_hull == closed  # read before the verdicts
        assert aldp is pt.contains(closed, [0] * p.r) is eager.aldp
        assert body.strongly_aldp is eager.strongly_aldp is an.is_strongly_aldp(p)
        assert body.closed_hull == closed and body.exactness == eager.exactness
        cube = set(pt.cube_rows(p.r, True))
        ampleness_rows = [row for row in open_part.integer_rows if row not in cube]
        zero = any(offset == 0 for _, offset, _ in ampleness_rows)
        seen[zero, nef, aldp] += 1
    # zero-offset strict rows on a feasible and on an infeasible open part,
    # and candidates decided by the nef test alone
    assert seen[True, True, True] and seen[True, True, False] and seen[False, False, False]
