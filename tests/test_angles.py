import pathlib
import random
from collections import Counter
from math import gcd, lcm

import pytest

from ampleangles import angles as an
from ampleangles import classify as cl
from ampleangles import dsl
from ampleangles import geometry as g
from ampleangles import pairs as pr
from ampleangles import polytope as pt
from _util import (
    F,
    P2_TABLE,
    aa_via_nef,
    affine_apply,
    affine_basis,
    affine_product,
    brute_force_grid_points,
    class_map,
    cube_halfspaces,
    direct_ample_fn,
    direct_ample_p2,
    family_at,
    fn_table,
    fraction_reparam,
    grid,
    halfspace,
    identity_map,
    oracle_rows,
    polytope,
    remove_redundant,
)


def fn_pair(n, classes):
    boundary = [(f"C{i + 1}", ab) for i, ab in enumerate(classes)]
    return pr.make_pair(g.hirzebruch(n), boundary)


def p2_pair(degrees):
    return pr.make_pair(
        g.projective_plane(), [(f"C{i + 1}", (d,)) for i, d in enumerate(degrees)]
    )


def minimal_canonical(p: pt.HPolytope) -> str:
    return pt.canonical_text(remove_redundant(p))


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
    same map, and a zero denominator is refused."""
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


def test_undoes_agrees_with_dense_composition():
    """`_undoes` agrees with dense Fraction composition of the views, on
    inverses, near misses and random maps."""
    rng = random.Random(43)
    undone = Counter()
    for _ in range(300):
        r = rng.randint(1, 5)
        slope, den = rng.randint(-20, 20), rng.choice((1, -1)) * rng.randint(1, 40)
        shift = [rng.randint(-30, 30) for _ in range(r)]
        m = pt.AffineMap(slope, shift, den)
        others = [pt.AffineMap(rng.randint(-20, 20), [rng.randint(-30, 30) for _ in range(r)], 7)]
        if slope:
            inverse = (den, [-t for t in shift], slope)
            others.append(pt.AffineMap(*inverse))
            others.append(pt.AffineMap(inverse[0] + rng.choice((1, -1)), *inverse[1:]))
            i = rng.randrange(r)
            near = [t + (j == i) for j, t in enumerate(inverse[1])]
            others.append(pt.AffineMap(inverse[0], near, inverse[2]))
        for other in others:
            for outer, inner in ((m, other), (other, m)):
                dense = affine_product((outer.matrix, outer.translation), (inner.matrix, inner.translation))
                got = an._undoes(outer, inner)
                assert got == (dense == identity_map(r))
                undone[got] += 1
        assert not an._undoes(m, pt.AffineMap(1, (0,) * (r + 1), 1))
    assert undone[True] > 300 and undone[False] > 300


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
        rhs = p.surface.canonical_class() + rd.ample_part
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
            # integer_at at beta = k/d is d.den times the class
            d = lcm(*(b.denominator for b in beta))
            got = family.integer_at([b.numerator * (d // b.denominator) for b in beta], d)
            assert all(type(v) is int for v in got)
            assert tuple(F(v, d * family.integer_form[0]) for v in got) == want


def test_reparam_checks_fire(monkeypatch):
    """Each check of reparam raises its RuntimeError when the statement it
    checks is broken from outside."""
    p = fn_pair(2, [(1, 0), (0, 1), (0, 1)])
    gamma = pr.angles([F(1, 3), F(2, 3), F(5, 8)])
    family = pr.log_adjoint(p)

    # (a) a shifted constant class: membership still passes, the identity fails
    shifted = pr.LogAdjointFamily(family.constant + p.surface.divisor([1, 3]), family.increments)
    monkeypatch.setattr(an, "log_adjoint", lambda q: shifted)
    with pytest.raises(RuntimeError, match="identity failed on the constant class"):
        an.reparam(p, gamma)
    monkeypatch.undo()

    # (b) membership waved through for a gamma outside the body: A is not ample
    outside = pr.angles([F(7, 8), F(1, 8), F(1, 8)])
    calls = []

    def ample_once(s, k):
        calls.append(k)
        return True if len(calls) == 1 else g._is_ample_numerators(s, k)

    monkeypatch.setattr(an, "_is_ample_numerators", ample_once)
    with pytest.raises(RuntimeError, match="non-ample A"):
        an.reparam(p, outside)
    monkeypatch.undo()

    # (c) eta = 1, below the true maximum, pushes one coefficient out of
    # [0, 1] on one side only: f_i(0) >= 0 needs eta >= g_i/(1-g_i), which
    # fails for g_2 = 3/4, and f_i(1) <= 1 needs eta >= (1-g_i)/g_i, which
    # fails for g_1 = 1/4
    monkeypatch.setattr(an, "eta", lambda gm: F(1))
    for angle in ([F(1, 2), F(3, 4), F(1, 2)], [F(1, 4), F(1, 2), F(1, 2)]):
        with pytest.raises(RuntimeError, match="boundary coefficient bounds"):
            an.reparam(p, pr.angles(angle))
    monkeypatch.undo()

    # (a) on the increments: f's slope doubled through the constructor, so
    # eta.slope is not 1
    real_map = pt.AffineMap
    monkeypatch.setattr(pt, "AffineMap", lambda slope, shift, den: real_map(2 * slope, shift, den))
    with pytest.raises(RuntimeError, match="identity failed on an increment class"):
        an.reparam(p, gamma)
    monkeypatch.undo()

    # the inverse check, on each side: f after f_inv, then f_inv after f;
    # the helper fails on one call and answers truly on the other
    real = an._undoes
    for broken_call in (0, 1):
        calls.clear()

        def undoes(outer, inner):
            calls.append(outer)
            return real(outer, inner) and len(calls) - 1 != broken_call

        monkeypatch.setattr(an, "_undoes", undoes)
        with pytest.raises(RuntimeError, match="not an exact inverse pair"):
            an.reparam(p, gamma)
        # the first side passed before the second one failed
        assert len(calls) == broken_call + 1
        monkeypatch.undo()
    assert _outcome(an.reparam, p, gamma) == fraction_reparam(p, gamma)


def test_aa_via_nef_matches_direct():
    cases = [
        fn_pair(1, [(1, 0), (1, 3)]),
        fn_pair(4, [(1, 0), (0, 1), (0, 1)]),
        fn_pair(0, [(1, 1), (1, 1)]),
        p2_pair([2, 1]),
    ]
    for p in cases:
        via = aa_via_nef(p)
        direct = an.aa_halfspaces_rank_le2(p)
        assert pt.canonical_text(via.closed_hull) == pt.canonical_text(
            pt.closure(direct.open_part)
        )
        assert via.exact
        # an independently built open part gives the same strength verdict
        assert via.strongly_aldp is direct.strongly_aldp


def test_class_map_at_one_is_minus_k():
    for p in (fn_pair(3, [(1, 0), (0, 1)]), p2_pair([1, 1])):
        phi = class_map(p)
        assert affine_apply(phi, [F(1)] * p.r) == p.surface.minus_k().coeffs


def test_p2_line_nef_preimage_is_cube():
    body = aa_via_nef(p2_pair([1]))
    assert minimal_canonical(body.closed_hull) == minimal_canonical(
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
    k = up.surface.canonical_class()
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


def test_outer_blowup_rejects_grid_denominator_below_two():
    up = pr.blow_up_node(fn_pair(1, [(1, 0), (0, 1)]), "C1.C2.1", "E")
    for denom in (1, 0, -3):
        with pytest.raises(ValueError, match="grid denominator"):
            an.aa_outer_blowup(up, grid_denominator=denom)
    assert an.aa_outer_blowup(up, grid_denominator=2)[1].grid_denominator == 2


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


def test_quadratic_sign_table_against_fraction_scan():
    near = dsl.load_pair_spec(str(SAMPLES / "infinitely-near.pair")).final
    # 16 and the odd 7 and 9 as given; r = 5 caps the grid at 1/4, and r = 6
    # keeps the odd 3 below the cap
    cases = (
        (near, 16, 16), (near, 7, 7), (chain_pair(5), 16, 4), (chain_pair(6), 3, 3),
        (fiber_blowups(None), 9, 9),
    )
    for p, denom, used in cases:
        body, report = an.aa_outer_blowup(p, grid_denominator=denom)
        assert report.grid_denominator == used
        got = (report.samples, report.positive, report.zero, report.negative)
        assert got == fraction_sign_table(p, body.open_part, used)
    shared = dsl.load_pair_spec(str(SAMPLES / "shared-fiber-degeneration.pair")).final
    _, report = an.aa_outer_blowup(shared)
    assert report.samples == 0


def test_grid_points_on_shipped_bodies():
    """The pruned scan against the brute-force oracle, order included, on
    the open body of every pair the samples build, at 1/7 and the CLI's
    1/16, and of the r = 5..8 chains at 1/4 (the cap above r = 4) and, for
    r <= 6, at 1/7.  The chains' open bodies are built from the oracle rows,
    which skips the closure aa_body computes (seconds at r = 8)."""
    bodies = []
    for path in sorted(SAMPLES.glob("*.pair")):
        for p in dsl.load_pair_spec(str(path)).apply():
            bodies += [(an.aa_body(p).open_part, denom) for denom in (7, 16)]
    for r in range(5, 9):
        open_part = polytope(r, oracle_rows(chain_pair(r)) + cube_halfspaces(r, strict=True))
        bodies += [(open_part, denom) for denom in ((4, 7) if r <= 6 else (4,))]
    hits = 0
    for body, denom in bodies:
        got = list(pt.grid_points(body, denom))
        assert got == brute_force_grid_points(body, denom), (body.dim, denom)
        hits += len(got)
    assert len(bodies) == 22 and hits > 40_000


def test_elimination_and_double_description_agree_on_report_bodies():
    """Fourier-Motzkin and double description, two independent kernels,
    agree on every report body: the samples, the benchmark's chain inputs
    and the chains r = 7..12.  closure(open_part) is canonical_empty exactly
    when the weakened rows have no vertex, or the average of their
    vertices, a point of the closure's relative interior, fails a strict
    row."""
    paths = sorted(SAMPLES.glob("*.pair"))
    paths += [REPO / "perfbench" / "inputs" / f"chain-r{r}.pair" for r in (5, 6)]
    pairs = [dsl.load_pair_spec(str(path)).final for path in paths]
    pairs += [chain_pair(r) for r in range(7, 13)]
    kinds = Counter()
    for p in pairs:
        body = an.aa_body(p)
        rows = body.open_part.integer_rows
        verts = pt.vertices(pt.integer_polytope(p.r, [(nm, c, False) for nm, c, _ in rows])).vertices
        inner = bool(verts) and pt.contains(body.open_part, [sum(c) / len(verts) for c in zip(*verts)])
        assert (body.closed_hull == pt.canonical_empty(p.r)) == (not inner), p.r
        kinds[inner] += 1
    # only the shared-fiber degeneration has an empty body
    assert kinds == Counter({True: 11, False: 1}), kinds


def test_quadratic_signs_match_fraction_evaluation():
    # every sampled sign on the shipped pairs is positive, so the integer
    # scan is checked on random symmetric integer Gram matrices as well
    rng = random.Random(31)
    seen = Counter()
    for _ in range(40):
        r, denom = rng.randint(0, 4), rng.choice([2, 3, 7, 16])
        upper = [[rng.randint(-9, 9) for _ in range(r + 1)] for _ in range(r + 1)]
        gram = [[upper[min(i, j)][max(i, j)] for j in range(r + 1)] for i in range(r + 1)]
        points = [tuple(rng.randint(1, denom - 1) for _ in range(r)) for _ in range(30)]
        # a run in reverse lexicographic order, and repeated points
        points += sorted(points[:10], reverse=True) + [points[0], points[1], points[0]]

        def q(k):
            v = [F(1)] + [F(x, denom) for x in k]
            return sum(gram[i][j] * v[i] * v[j] for i in range(r + 1) for j in range(r + 1))

        if r:
            # scale the rest of the form so that an integer constant makes
            # q vanish at the first point; for r = 0, q is a random constant
            for i in range(r + 1):
                for j in range(r + 1):
                    gram[i][j] *= denom * denom
            gram[0][0] = 0
            rest = q(points[0])
            assert rest.denominator == 1
            gram[0][0] = -rest.numerator
        want = Counter()
        for k in points:
            value = q(k)
            want[(value > 0) - (value < 0)] += 1
        table = (want[1], want[0], want[-1])
        assert an._quadratic_signs(gram, denom, points) == table
        # a single pass over an iterator gives the same table
        assert an._quadratic_signs(gram, denom, iter(points)) == table
        seen += want
    assert all(seen[s] > 40 for s in (1, 0, -1))


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


def test_serialize_has_exactness_tag():
    body = an.aa_halfspaces_rank_le2(fn_pair(1, [(1, 0), (1, 3)]))
    text = body.serialize()
    assert text.splitlines()[0] == "exact"


REPO = pathlib.Path(__file__).resolve().parent.parent


def assert_body_matches_oracle(p, body):
    """The body against one built from the oracle rows: the same exactness,
    open part and closure in canonical text, and the same strength verdict
    from `is_strongly_aldp` and from the body itself."""
    rows = oracle_rows(p)
    open_part = polytope(p.r, rows + cube_halfspaces(p.r, strict=True))
    blown_up = isinstance(p.surface.provenance, g.BlowUp)
    assert body.exactness == (an.OUTER if blown_up else an.EXACT)
    assert pt.canonical_text(body.open_part) == pt.canonical_text(open_part)
    assert pt.canonical_text(body.closed_hull) == pt.canonical_text(pt.closure(open_part))
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
        assert_body_matches_oracle(p, an.aa_outer_blowup(p, grid_denominator=2)[0])


def test_bodies_match_oracle_rows_on_classify_candidates():
    candidates = [cl.CandidatePair("P2", None, key) for key in cl.p2_degree_multisets()]
    for n in range(4):
        keys = dict.fromkeys(cl.swap_canonical(n, ms) for ms in cl.candidate_multisets(n))
        candidates += [cl.CandidatePair(f"F{n}", n, key) for key in keys]
    assert len(candidates) == 89  # 6 on the plane, 83 on F_0, ..., F_3
    for cand in candidates:
        assert_body_matches_oracle(cand.pair, cand.body)
        assert cand.body.aldp is an.is_aldp(cand.pair)
