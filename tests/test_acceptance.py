"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
All comparisons are exact; runtime limits are asserted per criterion.
"""

import random
import time

from ampleangles import angles as an
from ampleangles import classify as cl
from ampleangles import cli
from ampleangles import geometry as g
from ampleangles import pairs as pr
from ampleangles import polytope as pt
from _util import (
    F,
    MAEDA_P2,
    P2_TABLE,
    aa_via_nef,
    affine_basis,
    brute_force_vertices,
    cube_halfspaces,
    direct_ample_fn,
    direct_ample_p2,
    family_at,
    fn_table,
    grid,
    halfspace,
    maeda_fn_table,
    polytope,
    remove_redundant,
)


class Criterion:
    """Times a criterion and prints its one pass/fail line."""

    def __init__(self, num, name, limit):
        self.num, self.name, self.limit = num, name, limit
        self.detail = ""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        over_budget = elapsed >= self.limit
        status = "FAIL" if (exc_type is not None or over_budget) else "PASS"
        suffix = f" ({self.detail})" if self.detail else ""
        print(f"ACCEPTANCE {self.num} {self.name}: {status} in {elapsed:.2f}s{suffix}")
        if exc_type is None and over_budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {self.limit}s budget"
            )
        return False


def run_cli(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_maeda_golden(capsys):
    with Criterion(1, "Maeda golden table", 1.0) as crit:
        code, out = run_cli(capsys, ["classify", "--mode", "maeda", "--n-max", "12"])
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert len(rows) == 31  # 3 + 13 + 13 + 1 + 1
        got = {(r[0], r[1], r[2], r[3]) for r in rows}
        want = set()
        for lab, degs in MAEDA_P2:
            want.add(("-", "P2", "+".join(str(d) for d in degs), lab))
        for n in range(13):
            for lab, classes in maeda_fn_table(n):
                col = "+".join(f"({a},{b})" for a, b in classes)
                want.add((str(n), f"F{n}", col, lab))
        assert got == want
        crit.detail = "31 rows"


def test_criterion_2_rank2_golden(capsys):
    with Criterion(2, "rank-2 golden table", 10.0) as crit:
        code, out = run_cli(capsys, ["classify", "--mode", "rank2", "--n-max", "12"])
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        got = {(r[0], r[1], r[2], r[3], r[4]) for r in rows}
        want = set()
        for lab, degs, strength in P2_TABLE:
            want.add(("-", "P2", "+".join(str(d) for d in degs), lab, strength))
        for n in range(13):
            for lab, classes, strength in fn_table(n):
                col = "+".join(f"({a},{b})" for a, b in classes)
                want.add((str(n), f"F{n}", col, lab, strength))
        assert got == want
        datasets = {(r[1], r[2]) for r in rows}
        assert ("F2", "(2,4)") not in datasets  # proof exclusion
        assert ("F2", "(1,2)+(1,2)") not in datasets  # proof exclusion
        not_strong = sorted(r[3] for r in rows if r[4] == "ALdPNotStrong")
        assert not_strong == sorted(
            f"ALdP.{k}.{n}" for k in (1, 2, 3, 4) for n in range(1, 13)
        )
        crit.detail = f"{len(rows)} rows"


def _minimal(p):
    return pt.canonical_text(remove_redundant(p))


def test_criterion_3_aa_bodies():
    with Criterion(3, "non-strong body forms", 1.0) as crit:
        for n in range(1, 13):
            cases = [
                ([(1, 0), (1, n + 2)], (-n, 2)),  # ALdP.1.n
                ([(1, 0), (1, n + 1), (0, 1)], (-n, 1, 1)),  # ALdP.2.n
                ([(1, 0), (0, 1), (0, 1)], (-n, 1, 1)),  # ALdP.3.n
            ]
            for classes, normal in cases:
                p = pr.make_pair(
                    g.hirzebruch(n),
                    [(f"C{i + 1}", ab) for i, ab in enumerate(classes)],
                )
                body = an.aa_halfspaces_rank_le2(p)
                r = len(classes)
                want = polytope(
                    r,
                    cube_halfspaces(r, strict=False)
                    + [halfspace(normal, 0, False)],
                )
                assert _minimal(body.closed_hull) == _minimal(want)
        fig1 = pr.make_pair(g.hirzebruch(1), [("Z", (1, 0)), ("C2", (1, 3))])
        hull = an.aa_halfspaces_rank_le2(fig1).closed_hull
        oracle = brute_force_vertices(hull)
        assert oracle == [(F(0), F(0)), (F(0), F(1)), (F(1), F(1, 2)), (F(1), F(1))]
        assert list(pt.vertices(hull).vertices) == oracle
        crit.detail = "ALdP.1-3.n for n<=12 plus Figure-1 vertices"


def test_criterion_4_reparametrization():
    with Criterion(4, "reparametrization machinery", 30.0) as crit:
        checked = 0
        for cand, _, _ in cl.enumerate_rank2(6):
            p = cl.build_pair(cand)
            body = an.aa_halfspaces_rank_le2(p)
            fam = pr.log_adjoint(p)
            r = p.r
            probes = affine_basis(r)
            for gamma in grid(r, 8):
                if not pt.contains(body.open_part, gamma):
                    continue
                rd = an.reparam(p, pr.angles(gamma))
                images = [rd.f.apply(beta) for beta in probes]
                # identity (exact, affine in beta: spanning probes suffice)
                for beta, coeffs in zip(probes, images):
                    rhs = p.surface.canonical_class() + rd.ample_part
                    for c, cls in zip(coeffs, p.classes):
                        rhs = rhs + c * cls
                    assert (rd.eta * rhs).coeffs == family_at(fam, beta).coeffs
                # A ample, by the direct criteria
                if cand.n is None:
                    assert rd.ample_part.coeffs[0] > 0
                else:
                    a, b = rd.ample_part.coeffs
                    assert a > 0 and b > cand.n * a
                # coefficient bounds at cube vertices: coefficient i is affine in
                # beta_i alone, so the all-0 and all-1 corners realize every
                # coordinate value any vertex attains
                for corner in ((F(0),) * r, (F(1),) * r):
                    assert all(0 <= c <= 1 for c in rd.f.apply(corner))
                # exact inverse: f_inv after f fixes the affine basis, so it is
                # the identity; f maps r coordinates to r, so f after f_inv is too
                assert rd.f.dim == r
                assert [rd.f_inv.apply(y) for y in images] == probes
                checked += 1
        assert checked > 1000
        crit.detail = f"{checked} gamma points"


def test_criterion_5_nef_preimage_equivalence():
    with Criterion(5, "nef-preimage equivalence", 5.0) as crit:
        count = 0
        for cand, _, _ in cl.enumerate_rank2(12):
            p = cl.build_pair(cand)
            direct = pt.closure(an.aa_halfspaces_rank_le2(p).open_part)
            via = aa_via_nef(p).closed_hull
            assert pt.canonical_text(direct) == pt.canonical_text(via)
            count += 1
        crit.detail = f"{count} survivors, n<=12"


def test_criterion_6_grid_oracle():
    with Criterion(6, "membership grid oracle", 60.0) as crit:
        points = 0
        for cand, _, _ in cl.enumerate_rank2(6):
            p = cl.build_pair(cand)
            open_part = an.aa_halfspaces_rank_le2(p).open_part
            if cand.n is None:
                boundary = [(d,) for d in cand.classes]
                oracle = lambda beta: direct_ample_p2(boundary, beta)
            else:
                boundary = list(cand.classes)
                oracle = lambda beta: direct_ample_fn(cand.n, boundary, beta)
            for beta in grid(p.r, 16):
                assert pt.contains(open_part, beta) == oracle(beta)
                points += 1
        crit.detail = f"{points} grid points"


BASES = [
    lambda: pr.make_pair(g.hirzebruch(1), [("Z", (1, 0)), ("F", (0, 1))]),
    lambda: pr.make_pair(g.hirzebruch(1), [("Z", (1, 0)), ("C2", (1, 3))]),
    lambda: pr.make_pair(g.hirzebruch(2), [("Z", (1, 0)), ("F", (0, 1)), ("C", (1, 2))]),
    lambda: pr.make_pair(g.projective_plane(), [("Q", (2,)), ("L", (1,))]),
    lambda: pr.make_pair(g.hirzebruch(0), [("A", (1, 1)), ("B", (1, 1))]),
]


def _random_script(rng, base, depth):
    pair = base
    for step in range(depth):
        moves = [("smooth", lab) for lab in pair.labels]
        moves += [("node", nd.id) for nd in pair.nodes]
        op, target = rng.choice(moves)
        if op == "smooth":
            pair = pr.blow_up_smooth_point(pair, target, f"e{step}")
        else:
            pair = pr.blow_up_node(pair, target, f"e{step}")
    return pair


def _verify_residual(pair, down, residual, dropped_angle, rng):
    """Independent check: adjoint_up(beta) = pullback(adjoint_down) - rho(beta) E."""
    up_fam = pr.log_adjoint(pair)
    down_fam = pr.log_adjoint(down)
    const, coeffs = residual
    for _ in range(2):
        beta = [F(rng.randint(1, 7), 8) for _ in range(pair.r)]
        induced = [b for i, b in enumerate(beta) if i != dropped_angle]
        up = family_at(up_fam, beta).coeffs
        dn = family_at(down_fam, induced).coeffs
        rho = const + sum(c * b for c, b in zip(coeffs, beta))
        assert up[:-1] == dn
        assert up[-1] == -rho


def test_criterion_7_blowup_calculus():
    with Criterion(7, "blow-up calculus", 10.0) as crit:
        # round trip and the two-neighbor residual pattern
        base = BASES[0]()
        up = pr.blow_up_node(base, "Z.F.1", "E")
        down, residual = pr.contract(up, "E")
        assert down == base
        assert residual == (F(0), (F(1), F(1), F(-1)))

        rng = random.Random(20260810)
        scripts = 0
        while scripts < 100:
            base = rng.choice(BASES)()
            depth = rng.randint(1, 4)
            pair = _random_script(rng, base, depth)
            assert pair.surface.rank == base.surface.rank + depth
            # unwind in reverse construction order
            while pair.history:
                event = pair.history[-1]
                if event.kind == "node":
                    k = pair.component(event.exc_label)
                    neighbors = [
                        i
                        for i in range(pair.r)
                        if i != k and g.intersect(pair.classes[i], pair.classes[k]) != 0
                    ]
                    down, residual = pr.contract(pair, event.exc_label)
                    want = [F(0)] * pair.r
                    want[neighbors[0]] = F(1)
                    want[neighbors[1]] = F(1)
                    want[k] = F(-1)
                    assert residual == (F(0), tuple(want))
                    _verify_residual(pair, down, residual, k, rng)
                else:
                    idx = next(
                        i
                        for i, c in enumerate(pair.classes)
                        if c.coeffs[-1] == -1
                    )
                    down, residual = pr.contract(pair, event.exc_label)
                    want = [F(0)] * pair.r
                    want[idx] = F(1)
                    assert residual == (F(0), tuple(want))
                    _verify_residual(pair, down, residual, None, rng)
                pair = down
            assert pair == base
            scripts += 1
        crit.detail = "100 randomized scripts, depth <= 4"


def test_criterion_8_property_suite():
    with Criterion(8, "property suite", 5.0) as crit:
        # positivity implications across every enumerated pair
        for cand, _, strength in cl.enumerate_rank2(12):
            p = cl.build_pair(cand)
            logdp = an.is_log_dp(p)
            strong = an.is_strongly_aldp(p)
            aldp = an.is_aldp(p)
            if logdp is True:
                assert strong is True
            if strong is True:
                assert aldp is True
            if aldp is True:
                hull = an.aa_halfspaces_rank_le2(p).closed_hull
                assert pt.contains(hull, [0] * p.r)

        # Hodge signature through blow-up chains
        rng = random.Random(11)
        for _ in range(20):
            pair = _random_script(rng, rng.choice(BASES)(), rng.randint(1, 3))
            rank = pair.surface.rank
            assert g.lattice_signature(pair.surface.intersection_matrix) == (
                1,
                rank - 1,
                0,
            )

        # bilinearity and symmetry of the intersection pairing
        rng = random.Random(7)
        surfaces = [g.projective_plane()] + [g.hirzebruch(n) for n in range(4)]
        surfaces.append(g.blow_up(g.hirzebruch(1), "E", "p"))
        for _ in range(1000):
            s = rng.choice(surfaces)
            rand_cls = lambda: s.divisor(
                [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(s.rank)]
            )
            a, b, c = rand_cls(), rand_cls(), rand_cls()
            lam = F(rng.randint(-4, 4), rng.randint(1, 3))
            assert g.intersect(a, b) == g.intersect(b, a)
            assert g.intersect(lam * a + b, c) == lam * g.intersect(a, c) + g.intersect(
                b, c
            )
        crit.detail = "implications, signatures, 1000 bilinearity cases"
