import pathlib
import random
from collections import Counter

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
    direct_ample_fn,
    direct_ample_p2,
    fn_table,
    fraction_compose,
    fraction_reparam,
    grid,
    oracle_rows,
)


def fn_pair(n, classes):
    boundary = [(f"C{i + 1}", ab) for i, ab in enumerate(classes)]
    return pr.make_pair(g.hirzebruch(n), boundary)


def p2_pair(degrees):
    return pr.make_pair(
        g.projective_plane(), [(f"C{i + 1}", (d,)) for i, d in enumerate(degrees)]
    )


def minimal_canonical(p: pt.HPolytope) -> str:
    return pt.canonical_text(pt.remove_redundant(p))


def expected_body(r, extra_normals_offsets, strict=True):
    rows = pt.cube_halfspaces(r, strict=strict)
    rows += [pt.halfspace(nm, off, strict) for nm, off in extra_normals_offsets]
    return pt.polytope(r, rows)


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
        pt.polytope(1, pt.cube_halfspaces(1, strict=True))
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


def test_reparam_midpoint_is_identity():
    p = fn_pair(1, [(1, 0), (1, 3)])
    rd = an.reparam(p, pr.angles([F(1, 2), F(1, 2)]))
    assert rd.eta == 1
    assert rd.f.is_identity()
    assert rd.ample_part.coeffs == (F(2), F(3))
    assert g.is_ample(p.surface, rd.ample_part) is True


def test_reparam_inverse_composition():
    p = fn_pair(2, [(1, 0), (0, 1), (0, 1)])
    for gamma in ([F(1, 3), F(2, 3), F(5, 8)], [F(1, 5), F(9, 10), F(1, 2)]):
        rd = an.reparam(p, pr.angles(gamma))
        assert rd.f.compose(rd.f_inv).is_identity()
        assert rd.f_inv.compose(rd.f).is_identity()


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
        assert (rd.eta * rhs).coeffs == fam.at(beta).coeffs


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
    try:
        return fn(p, gamma)
    except ValueError as exc:
        return f"ValueError: {exc}"


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
            if isinstance(got, an.ReparamData):
                fields = (got.eta, *got.ample_part.coeffs, *got.f.translation, *got.f_inv.translation)
                assert all(type(v) is F for v in fields)
            built[isinstance(got, an.ReparamData)] += 1
    assert built[True] > 300 and built[False] > 300
    for p, gamma in ((blown, [F(1, 2)] * 3), (blown, [F(0)] * 3), (survivors[0], [F(1, 2)] * 2)):
        got = _outcome(an.reparam, p, pr.angles(gamma))
        assert got == _outcome(fraction_reparam, p, pr.angles(gamma)) and got.startswith("ValueError")

    # compose on dense random maps: non-square, zero rows, mixed denominators
    def random_map(rows, cols):
        entry = lambda: F(rng.randint(-6, 6), rng.choice((1, 2, 3, 7, 12)))
        matrix = [[entry() for _ in range(cols)] if rng.random() > 0.2 else [F(0)] * cols
                  for _ in range(rows)]
        return pt.affine_map(matrix, [entry() for _ in range(rows)])

    for _ in range(400):
        inner_dom, mid = rng.randint(0, 4), rng.randint(1, 4)
        outer, inner = random_map(rng.randint(1, 4), mid), random_map(mid, inner_dom)
        got = outer.compose(inner)
        assert (got.matrix, got.translation) == fraction_compose(outer, inner)
        assert got.domain_dim == inner_dom
        assert all(type(v) is F for v in (*got.translation, *(v for row in got.matrix for v in row)))
        # apply, against the plain Fraction evaluation
        x = [F(rng.randint(-9, 9), rng.choice(denominators)) for _ in range(inner_dom)]
        want = tuple(sum((a * b for a, b in zip(row, x)), t) for row, t in zip(inner.matrix, inner.translation))
        assert inner.apply(x) == want and all(type(v) is F for v in inner.apply(x))
    empty = pt.affine_map([], [])
    assert empty.compose(empty) == empty


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
            got = family.at(beta)
            assert got.coeffs == want and all(type(v) is F for v in got.coeffs)
            if all(b <= 1 for b in beta):
                assert family.at(pr.angles(beta)) == got


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

    def ample_once(s, d):
        calls.append(d)
        return True if len(calls) == 1 else g.is_ample(s, d)

    monkeypatch.setattr(an, "is_ample", ample_once)
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

    # (a) on the increments: f's diagonal doubled, so eta.f_ii is not 1
    real_diagonal = an._diagonal_map
    monkeypatch.setattr(an, "_diagonal_map", lambda d, t: real_diagonal(2 * d, t))
    with pytest.raises(RuntimeError, match="identity failed on an increment class"):
        an.reparam(p, gamma)
    monkeypatch.undo()

    # the inverse check, on each side: f after f_inv, then f_inv after f,
    # composed with the translation dropped
    real = pt.AffineMap.compose
    for broken_call in (0, 1):
        calls.clear()

        def compose(m, inner):
            calls.append(m)
            product = real(m, inner)
            if len(calls) - 1 != broken_call:
                return product
            return pt.AffineMap(product.matrix, inner.translation)

        monkeypatch.setattr(pt.AffineMap, "compose", compose)
        with pytest.raises(RuntimeError, match="not an exact inverse pair"):
            an.reparam(p, gamma)
        monkeypatch.undo()
    assert an.reparam(p, gamma) == fraction_reparam(p, gamma)


def test_aa_via_nef_matches_direct():
    cases = [
        fn_pair(1, [(1, 0), (1, 3)]),
        fn_pair(4, [(1, 0), (0, 1), (0, 1)]),
        fn_pair(0, [(1, 1), (1, 1)]),
        p2_pair([2, 1]),
    ]
    for p in cases:
        via = an.aa_via_nef(p)
        direct = an.aa_halfspaces_rank_le2(p)
        assert pt.canonical_text(via.closed_hull) == pt.canonical_text(
            pt.closure(direct.open_part)
        )
        assert via.exact


def test_class_map_at_one_is_minus_k():
    for p in (fn_pair(3, [(1, 0), (0, 1)]), p2_pair([1, 1])):
        phi = an.class_map(p)
        assert phi.apply([F(1)] * p.r) == p.surface.minus_k().coeffs


def test_p2_line_nef_preimage_is_cube():
    body = an.aa_via_nef(p2_pair([1]))
    assert minimal_canonical(body.closed_hull) == minimal_canonical(
        pt.polytope(1, pt.cube_halfspaces(1, strict=False))
    )


def test_aa_via_nef_rejects_bad_cone():
    p = fn_pair(1, [(1, 0)])
    with pytest.raises(ValueError):
        an.aa_via_nef(p, pt.polytope(1, [pt.halfspace([1], 0, False)]))
    with pytest.raises(ValueError):
        an.aa_via_nef(p, pt.polytope(2, [pt.halfspace([1, 0], 1, False)]))


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
    assert report.value([1, 1, 1]) == g.intersect(k, k)


def test_outer_blowup_excludes_certified_non_ample_points():
    # any point off the outer body violates a tracked honest curve
    base = pr.make_pair(g.hirzebruch(1), [("Z", (1, 0)), ("F", (0, 1))])
    up = pr.blow_up_node(base, "Z.F.1", "E")
    body, _ = an.aa_outer_blowup(up)
    fam = pr.log_adjoint(up)
    tracked = list(up.classes) + [up.surface.divisor(tc.coeffs) for tc in up.tracked]
    for beta in grid(3, 4):
        inside = pt.contains(body.open_part, beta)
        cls = fam.at(beta)
        violating = [t for t in tracked if g.intersect(cls, t) <= 0]
        if not inside:
            assert violating
        else:
            assert not violating


def test_outer_blowup_requires_blowup_surface():
    with pytest.raises(ValueError):
        an.aa_outer_blowup(fn_pair(1, [(1, 0)]))


def test_outer_blowup_detects_shared_fiber_degeneration():
    # blowing both points of (fiber meets boundary) on one fiber leaves the
    # adjoint with zero intersection against the fiber transform for every
    # angle: the outer body must come back empty
    base = fn_pair(2, [(1, 0), (0, 1), (0, 1), (1, 2)])
    shared = pr.blow_up_smooth_point(base, "C1", "q1", fiber_tag="f")
    shared = pr.blow_up_smooth_point(shared, "C4", "q2", fiber_tag="f")
    body, _ = an.aa_outer_blowup(shared)
    assert not pt.is_feasible(body.open_part)
    # distinct fibers through the two centers keep the body alive
    generic = pr.blow_up_smooth_point(base, "C1", "q1")
    generic = pr.blow_up_smooth_point(generic, "C4", "q2")
    body2, _ = an.aa_outer_blowup(generic)
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
            cls = adj.at(beta)
            q = g.intersect(cls, cls)
            signs[(q > 0) - (q < 0)] += 1
    return sum(signs.values()), signs[1], signs[0], signs[-1]


def test_quadratic_sign_table_against_fraction_scan():
    near = dsl.load_pair_spec(str(SAMPLES / "infinitely-near.pair")).final
    # 16 and the odd 7 as given; r = 5 caps the grid at 1/4
    for p, denom, used in ((near, 16, 16), (near, 7, 7), (chain_pair(5), 16, 4)):
        body, report = an.aa_outer_blowup(p, grid_denominator=denom)
        assert report.grid_denominator == used
        got = (report.samples, report.positive, report.zero, report.negative)
        assert got == fraction_sign_table(p, body.open_part, used)
    shared = dsl.load_pair_spec(str(SAMPLES / "shared-fiber-degeneration.pair")).final
    _, report = an.aa_outer_blowup(shared)
    assert report.samples == 0


def test_quadratic_signs_match_fraction_evaluation():
    # every sampled sign on the shipped pairs is positive, so the integer
    # form of q is checked on random rational quadratics as well
    rng = random.Random(31)
    rand = lambda: F(rng.randint(-9, 9), rng.randint(1, 6))
    seen = Counter()
    for _ in range(40):
        r, denom = rng.randint(1, 4), rng.choice([2, 3, 7, 16])
        linear = tuple(rand() for _ in range(r))
        upper = [[rand() for _ in range(r)] for _ in range(r)]
        quad = tuple(tuple(upper[min(i, j)][max(i, j)] for j in range(r)) for i in range(r))
        points = [tuple(rng.randint(1, denom - 1) for _ in range(r)) for _ in range(30)]

        def q_without_constant(k):
            beta = [F(x, denom) for x in k]
            return sum(l * b for l, b in zip(linear, beta)) + sum(
                quad[i][j] * beta[i] * beta[j] for i in range(r) for j in range(r)
            )

        const = -q_without_constant(points[0])  # q vanishes at the first point
        want = Counter()
        for k in points:
            q = const + q_without_constant(k)
            want[(q > 0) - (q < 0)] += 1
        assert an._quadratic_signs(const, linear, quad, denom, points) == want
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
        reduced = pt.remove_redundant(body.closed_hull)
        want = pt.canonical_lines(pt.polytope(2, [pt.halfspace([-n, 2], 0, False)]))[0]
        assert want in pt.canonical_lines(reduced)


def test_serialize_has_exactness_tag():
    body = an.aa_halfspaces_rank_le2(fn_pair(1, [(1, 0), (1, 3)]))
    text = body.serialize()
    assert text.splitlines()[0] == "exact"


REPO = pathlib.Path(__file__).resolve().parent.parent


def assert_body_matches_oracle(p, body):
    """The body against one built from the oracle rows: the same exactness,
    open part and closure in canonical text, and the same strength verdict."""
    rows = oracle_rows(p)
    open_part = pt.polytope(p.r, rows + pt.cube_halfspaces(p.r, strict=True))
    blown_up = isinstance(p.surface.provenance, g.BlowUp)
    assert body.exactness == (an.OUTER if blown_up else an.EXACT)
    assert pt.canonical_text(body.open_part) == pt.canonical_text(open_part)
    assert pt.canonical_text(body.closed_hull) == pt.canonical_text(pt.closure(open_part))
    if not blown_up:
        strong = all(
            hs.offset > 0 or (hs.offset == 0 and min(hs.normal) >= 0 and max(hs.normal) > 0)
            for hs in rows
        )
        assert an.is_strongly_aldp(p) is strong


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
