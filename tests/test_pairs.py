import itertools
import pathlib
import random
from collections import Counter, namedtuple
from decimal import Decimal

import pytest

from ampleangles import angles as an
from ampleangles import classify as cl
from ampleangles import cli, dsl
from ampleangles import geometry as g
from ampleangles import pairs as pr
from ampleangles import polytope as pt
from _util import (
    F,
    adjoint_coeffs,
    check_boundary_by_scan,
    family_at,
    inertia,
    is_chain_union,
    rank2_candidates,
)
from test_acceptance import BASES, _random_script

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def fig1_pair():
    return pr.make_pair(g.hirzebruch(1), [("Z", (1, 0)), ("C2", (1, 3))])


def zf_pair(n=1):
    return pr.make_pair(g.hirzebruch(n), [("Z", (1, 0)), ("F", (0, 1))])


def test_log_adjoint_expansion():
    # (F_n; Z, Z+(n+2)F) evaluates to (b1+b2) Z + (n+2) b2 F
    for n in (1, 2, 5):
        p = pr.make_pair(g.hirzebruch(n), [("Z", (1, 0)), ("C2", (1, n + 2))])
        fam = pr.log_adjoint(p)
        beta = (F(1, 3), F(2, 7))
        assert family_at(fam, beta).coeffs == (beta[0] + beta[1], (n + 2) * beta[1])
    p = fig1_pair()
    fam = pr.log_adjoint(p)
    assert family_at(fam, (F(1, 2), F(1, 4))).coeffs == (F(3, 4), F(3, 4))


def test_log_adjoint_endpoints():
    for p in (fig1_pair(), zf_pair(3)):
        fam = pr.log_adjoint(p)
        r = p.r
        assert family_at(fam, [1] * r).coeffs == p.surface.minus_k().coeffs
        assert family_at(fam, [0] * r).coeffs == (p.surface.minus_k() - p.boundary_total()).coeffs


def test_log_adjoint_matches_direct_expansion():
    p = fig1_pair()
    fam = pr.log_adjoint(p)
    beta = (F(2, 5), F(3, 5))
    direct = adjoint_coeffs((2, 3), [(1, 0), (1, 3)], beta)
    assert family_at(fam, beta).coeffs == direct


def test_dual_graph_shapes():
    assert is_chain_union(zf_pair(4))
    assert not pr.is_cycle(zf_pair(4))
    lines = pr.make_pair(
        g.projective_plane(), [("L1", (1,)), ("L2", (1,)), ("L3", (1,))]
    )
    assert pr.is_cycle(lines)
    assert not is_chain_union(lines)
    # Z -- F -- (Z+F) is a chain: Z.(Z+F) = 0 on F_1
    chain = pr.make_pair(
        g.hirzebruch(1), [("Z", (1, 0)), ("F", (0, 1)), ("C", (1, 1))]
    )
    assert is_chain_union(chain)
    assert not pr.is_cycle(chain)
    # anticanonical two-component boundary meets twice: a 2-cycle
    assert pr.is_cycle(fig1_pair())


def test_is_anticanonical():
    cubic = pr.make_pair(g.projective_plane(), [("C", (3,))])
    assert pr.is_anticanonical(cubic)
    assert pr.is_anticanonical(fig1_pair())
    assert not pr.is_anticanonical(pr.make_pair(g.hirzebruch(3), [("Z", (1, 0))]))


def _full_scan_refusal(surface, boundary):
    """The validity refusal of a boundary as a scan over every component,
    then over every pair of components, in Fraction intersections, words it;
    None when there is none."""
    labels = [label for label, _ in boundary]
    classes = [surface.divisor(coeffs) for _, coeffs in boundary]
    seen = {}
    for idx, c in enumerate(classes):
        if g.intersect(c, c) < 0:
            if c.coeffs in seen:
                return (
                    "a class with negative self-intersection has a unique member; "
                    f"components {seen[c.coeffs]!r} and {labels[idx]!r} collide"
                )
            seen[c.coeffs] = labels[idx]
    for i, j in itertools.combinations(range(len(classes)), 2):
        if g.intersect(classes[i], classes[j]) < 0:
            return f"components {labels[i]!r}, {labels[j]!r} have negative intersection"
    return None


def test_validity_checks_name_what_a_full_scan_names():
    """make_pair tests only the distinct classes of a boundary, yet refuses
    exactly when a scan over all components and pairs does, and names the
    same components: seeded boundaries drawn with repeats from three
    classes, some with half-integer coordinates, on the plane, F_0, ..., F_3
    and a blow-up of F_1."""
    rng = random.Random(21)
    surfaces = [g.projective_plane(), *(g.hirzebruch(n) for n in range(4))]
    surfaces.append(g.blow_up(g.hirzebruch(1), "E", "a point"))
    outcomes = Counter()
    for _ in range(600):
        s = rng.choice(surfaces)
        alphabet = [tuple(rng.choice((-1, 0, F(1, 2), 1, 2)) for _ in range(s.rank)) for _ in range(3)]
        boundary = [(f"B{i}", rng.choice(alphabet)) for i in range(rng.randint(1, 6))]
        want = _full_scan_refusal(s, boundary)
        try:
            pr.make_pair(s, boundary)
        except ValueError as err:
            got = str(err)
            if want is None:
                assert got == "cannot autogenerate nodes for non-integral intersections"
                continue
        else:
            got = None
        assert got == want, boundary
        outcomes[None if want is None else want.split()[-1]] += 1
    assert outcomes[None] and outcomes["collide"] and outcomes["intersection"], outcomes


def test_make_pair_validation():
    """Each refusal of make_pair, with its exact text."""
    f1, f2 = g.hirzebruch(1), g.hirzebruch(2)
    zf = [("Z", (1, 0)), ("F", (0, 1))]
    refusals = [
        ((f1, []), {}, "boundary must be non-empty"),
        ((f1, [("Z", (1, 0)), ("Z", (0, 1))]), {}, "boundary labels must be distinct"),
        (
            (f2, [("Z1", (1, 0)), ("Z2", (1, 0))]),
            {},
            "a class with negative self-intersection has a unique member; "
            "components 'Z1' and 'Z2' collide",
        ),
        # the collision check runs before the negative-intersection check
        (
            (f2, [("Z1", (1, 0)), ("C", (1, 1)), ("Z2", (1, 0))]),
            {},
            "a class with negative self-intersection has a unique member; "
            "components 'Z1' and 'Z2' collide",
        ),
        # Z.C = -1
        ((f2, [("Z", (1, 0)), ("C", (1, 1))]), {}, "components 'Z', 'C' have negative intersection"),
        (
            (g.projective_plane(), [("A", (F(1, 2),)), ("B", (1,))]),
            {},
            "cannot autogenerate nodes for non-integral intersections",
        ),
        (
            (f1, zf),
            {"nodes": [pr.NodeRecord("x", (0, 1)), pr.NodeRecord("x", (0, 1))]},
            "node ids must be distinct; 'x' is used twice",
        ),
        # generated ids that collide: A.B with C, and A with B.C
        (
            (g.projective_plane(), [("A.B", (1,)), ("C", (1,)), ("A", (1,)), ("B.C", (1,))]),
            {},
            "node ids must be distinct; 'A.B.C.1' is used twice",
        ),
        ((f1, zf), {"nodes": [pr.NodeRecord("x", (0, 2))]}, "node 'x' references a missing component"),
        (
            (g.projective_plane(), [("A", (1,)), ("B", (1,))]),
            {"nodes": [pr.NodeRecord("x", (0, 1), on_fiber_of="f")]},
            "fiber tags only make sense on F_n-rooted surfaces",
        ),
        # explicit nodes must match intersection counts
        ((f1, zf), {"nodes": []}, "components 'Z', 'F' meet 1 times but 0 nodes are declared"),
    ]
    for args, kwargs, text in refusals:
        with pytest.raises(ValueError) as err:
            pr.make_pair(*args, **kwargs)
        assert str(err.value) == text


def test_angle_vector():
    with pytest.raises(ValueError):
        pr.angles([F(3, 2)])
    assert all(0 < e < 1 for e in pr.angles([F(1, 2), F(1, 3)]).entries)
    assert not all(0 < e < 1 for e in pr.angles([0, F(1, 2)]).entries)


def test_angle_vector_range():
    assert pr.angles([0, 1, F(1, 7)]).entries == (0, 1, F(1, 7))
    assert not all(0 < e < 1 for e in pr.angles([F(1, 2), 1]).entries)
    for bad in ([F(-1, 7)], [F(1, 2), F(8, 7)], [-1], [2]):
        with pytest.raises(ValueError, match=r"^angles must lie in \[0, 1\]$"):
            pr.angles(bad)
    # int entries are stored as Fractions; a Fraction entry is kept as it is
    half = F(1, 2)
    v = pr.angles([0, 1, half])
    assert all(type(e) is F for e in v.entries) and v.entries[2] is half


def test_angles_refuse_floats():
    """No floating point enters an angle vector: a float, or any value that
    is not an int or a Fraction, raises TypeError naming it, where
    Fraction(0.1) would keep 3602879701896397/36028797018963968."""
    refused = ((0.1, r"0\.1"), (1.0, r"1\.0"), ("1/2", "'1/2'"), (Decimal("0.5"), r"Decimal\('0\.5'\)"))
    for bad, name in refused:
        with pytest.raises(TypeError, match=rf"^{name} is not an exact rational"):
            pr.angles([F(1, 2), bad])
    assert pr.angles([True, F(1, 3)]).entries == (1, F(1, 3))


def test_angles_convert_and_refuse_on_seeded_mixes():
    """`angles` on seeded mixes of ints and Fractions, in and out of
    [0, 1]: a Fraction entry comes back as the same object, an int as the
    equal Fraction, and a vector with an entry outside [0, 1] is refused
    with the one message.  A direct `AngleVector` validates the same way
    and stores the entries as given."""
    rng = random.Random(23)
    seen = Counter()
    for _ in range(400):
        values = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.3:
                values.append(rng.randint(-1, 2))
            else:
                q = rng.choice((1, 2, 3, 16, 97))
                values.append(F(rng.randint(-q, 2 * q), q))
        inside = all(0 <= v <= 1 for v in values)
        seen[inside] += 1
        if not inside:
            for build in (pr.angles, lambda vs: pr.AngleVector(tuple(vs))):
                with pytest.raises(ValueError, match=r"^angles must lie in \[0, 1\]$"):
                    build(values)
            continue
        v = pr.angles(values)
        assert type(v.entries) is tuple and v.entries == tuple(values)
        for got, given in zip(v.entries, values):
            assert type(got) is F and (got is given) is (type(given) is F)
        direct = pr.AngleVector(tuple(values))
        assert all(a is b for a, b in zip(direct.entries, values))
    assert seen[True] > 50 and seen[False] > 50


def test_blow_up_smooth_point():
    p = pr.make_pair(g.hirzebruch(0), [("Z0", (1, 0))])
    up = pr.blow_up_smooth_point(p, "Z0", "p1")
    assert up.surface.rank == 3
    assert up.classes[0].coeffs == (F(1), F(0), F(-1))
    c, cup = p.classes[0], up.classes[0]
    assert g.intersect(cup, cup) == g.intersect(c, c) - 1
    assert up.surface.minus_k().coeffs == (F(2), F(2), F(-1))
    assert up.labels == p.labels  # E does not join the boundary


def test_blow_up_smooth_point_rejects_nodes():
    p = zf_pair()
    with pytest.raises(ValueError):
        pr.blow_up_smooth_point(p, "Z", "Z.F.1")


def test_blow_up_node():
    p = zf_pair()
    up = pr.blow_up_node(p, "Z.F.1", "E")
    assert up.labels == ("Z", "F", "E")
    assert [c.coeffs for c in up.classes] == [
        (F(1), F(0), F(-1)),
        (F(0), F(1), F(-1)),
        (F(0), F(0), F(1)),
    ]
    assert g.intersect(up.classes[0], up.classes[1]) == 0
    assert g.intersect(up.classes[0], up.classes[2]) == 1
    assert g.intersect(up.classes[1], up.classes[2]) == 1
    assert {nd.incident for nd in up.nodes} == {(0, 2), (1, 2)}


def test_blow_up_node_infinitely_near():
    p = zf_pair()
    up = pr.blow_up_node(p, "Z.F.1", "E1")
    upup = pr.blow_up_node(up, "Z.E1.1", "E2")
    assert upup.surface.rank == 4
    assert upup.surface.canonical == (-2, -3, 1, 1)
    assert [c.coeffs for c in upup.classes] == [
        (F(1), F(0), F(-1), F(-1)),
        (F(0), F(1), F(-1), F(0)),
        (F(0), F(0), F(1), F(-1)),
        (F(0), F(0), F(0), F(1)),
    ]


def test_blowup_invariants():
    p = fig1_pair()
    up = pr.blow_up_node(p, "Z.C2.1", "E")
    assert up.surface.rank == p.surface.rank + 1
    assert inertia(up.surface.intersection_matrix) == (1, up.surface.rank - 1, 0)
    mk2 = lambda q: g.intersect(q.surface.minus_k(), q.surface.minus_k())
    assert mk2(up) == mk2(p) - 1


def test_node_blowup_contract_round_trip():
    p = zf_pair()
    up = pr.blow_up_node(p, "Z.F.1", "E")
    down, residual = pr.contract(up, "E")
    assert down == p
    # E meets components 0 and 1; the residual is b1 + b2 - b3 here
    assert residual == (F(0), (F(1), F(1), F(-1)))
    # the consumed node comes back with its own id and fiber tag
    tagged = pr.make_pair(p.surface, [("Z", (1, 0)), ("F", (0, 1))],
                          nodes=[pr.NodeRecord("x", (0, 1), on_fiber_of="f")])
    assert pr.contract(pr.blow_up_node(tagged, "x", "E"), "E") == (tagged, residual)
    # contract rebuilds every node it keeps, with its id, its renumbered
    # components and its fiber tag, and puts back the node E consumed
    p = pr.make_pair(g.hirzebruch(1), [("Z", (1, 0)), ("F1", (0, 1)), ("F2", (0, 1))],
                     nodes=[pr.NodeRecord("a", (1, 0), "f"), pr.NodeRecord("b", (0, 2), "h")])
    up = pr.blow_up_node(p, "a", "E")
    down, _ = pr.contract(pr.blow_up_node(up, "Z.E.1", "E2"), "E2")
    fields = lambda nodes: [(nd.id, nd.incident, nd.on_fiber_of) for nd in nodes]
    assert fields(down.nodes) == [("b", (0, 2), "h"), ("Z.E.1", (0, 3), None), ("F1.E.1", (1, 3), None)]
    assert down == up and pr.contract(down, "E")[0].nodes == p.nodes
    assert fields(p.nodes) == [("a", (0, 1), "f"), ("b", (0, 2), "h")]


def test_contract_picks_a_fresh_node_id():
    """Contracting a boundary E joins the two components it met with a new
    node A.B.m, m the least number whose id is free."""
    N = pr.NodeRecord
    p = pr.make_pair(
        g.blow_up(g.projective_plane(), "E", "p"),
        [("A", (1, -1)), ("B", (1, -1)), ("E", (0, 1)), ("C", (1, 0))],
        nodes=[N("A.B.1", (0, 3)), N("y", (1, 3)), N("ae", (0, 2)), N("be", (1, 2))],
    )
    down, _ = pr.contract(p, "E")
    assert down.labels == ("A", "B", "C")
    assert {nd.id: nd.incident for nd in down.nodes} == {"A.B.2": (0, 1), "A.B.1": (0, 2), "y": (1, 2)}


def test_smooth_blowup_contract_round_trip():
    p = pr.make_pair(g.hirzebruch(2), [("Z", (1, 0))])
    up = pr.blow_up_smooth_point(p, "Z", "q")
    down, residual = pr.contract(up, "q")
    assert down == p
    assert residual == (F(0), (F(1),))


def test_contract_away_curve():
    # a (-1)-curve disjoint from the boundary, on a hand-built pair
    surf = g.blow_up(g.hirzebruch(1), "E", "away-point")
    p = pr.make_pair(
        surf,
        [("Z", (1, 0, 0))],
        tracked=[pr.TrackedCurve("exceptional", "E", (F(0), F(0), F(1)))],
    )
    down, residual = pr.contract(p, "E")
    assert down.classes[0].coeffs == (F(1), F(0))
    assert residual == (F(1), (F(0),))


def test_contract_residual_in_paper_ordering():
    # boundary ordered (C1, E, C3) reproduces the residual b1 + b3 - b2
    surf = g.blow_up(g.hirzebruch(1), "E", "node point")
    p = pr.make_pair(
        surf,
        [("Zh", (1, 0, -1)), ("E", (0, 0, 1)), ("Fh", (0, 1, -1))],
    )
    down, residual = pr.contract(p, "E")
    assert residual == (F(0), (F(1), F(-1), F(1)))
    assert down.labels == ("Zh", "Fh")
    assert [c.coeffs for c in down.classes] == [(F(1), F(0)), (F(0), F(1))]


def _refusal(p, which):
    with pytest.raises(ValueError) as err:
        pr.contract(p, which)
    return str(err.value)


def test_contract_rejects_bad_inputs():
    p = zf_pair()
    assert _refusal(p, "Z") == "contract requires a blow-up surface"
    up = pr.blow_up_node(p, "Z.F.1", "E")
    # the Z-transform has square -2
    assert _refusal(up, "Z") == "contraction requires a (-1)-curve"
    assert _refusal(up, "nope") == "'nope' is neither a boundary label nor a tracked curve"
    assert _refusal(up, 3) == "boundary index out of range"
    assert _refusal(up, -1) == "boundary index out of range"
    # the E-transform has square -2; q1 is a (-1)-curve, but not the last
    assert _refusal(pr.blow_up_node(up, "Z.E.1", "E2"), "E") == "contraction requires a (-1)-curve"
    two = pr.blow_up_smooth_point(pr.blow_up_smooth_point(p, "F", "q1"), "F", "q2")
    assert _refusal(two, "q1") == (
        "only the most recent exceptional curve is contractible; unwind blow-ups in reverse order"
    )
    # hand-built pairs on F_1 blown up once, E being the last basis class
    surf = g.blow_up(g.hirzebruch(1), "E", "point")
    e = pr.TrackedCurve("exceptional", "E", (F(0), F(0), F(1)))
    tangent = pr.make_pair(surf, [("C", (1, 2, -2))], tracked=[e])  # C.E = 2
    assert _refusal(tangent, "E") == "unsupported incidence pattern: non-transverse meeting"
    two_hits = pr.make_pair(surf, [("Z", (1, 0, -1)), ("F", (0, 1, -1))], tracked=[e])
    assert _refusal(two_hits, "E") == "unsupported incidence pattern: meets C more than once"
    one_hit = pr.make_pair(surf, [("Z", (1, 0, -1)), ("E", (0, 0, 1))])
    assert _refusal(one_hit, "E") == (
        "unsupported incidence pattern: a boundary (-1)-curve must meet "
        "exactly two other components once each"
    )


def test_is_minimal_rank_le2():
    assert pr.is_minimal(pr.make_pair(g.hirzebruch(0), [("Z0", (1, 0))])) is True
    assert pr.is_minimal(pr.make_pair(g.hirzebruch(2), [("Z", (1, 0))])) is True
    assert pr.is_minimal(pr.make_pair(g.hirzebruch(1), [("Z", (1, 0))])) is True
    # Z_1 is a (-1)-curve meeting a fiber boundary once
    assert pr.is_minimal(pr.make_pair(g.hirzebruch(1), [("F", (0, 1))])) is False
    assert pr.is_minimal(pr.make_pair(g.projective_plane(), [("L", (1,))])) is True


def test_is_minimal_blowups():
    # the exceptional curve of a smooth-point blow-up is a witness
    p = pr.make_pair(g.hirzebruch(2), [("Z", (1, 0))])
    up = pr.blow_up_smooth_point(p, "Z", "q")
    assert pr.is_minimal(up) is False
    # a node blow-up leaves no tracked witness: undecided
    up2 = pr.blow_up_node(zf_pair(), "Z.F.1", "E")
    assert pr.is_minimal(up2) is pr.UNKNOWN


def _assert_nodes_match_intersections(p):
    """Node ids are distinct, and the nodes joining C_i and C_j number C_i.C_j."""
    ids = [nd.id for nd in p.nodes]
    assert len(set(ids)) == len(ids), ids
    count = Counter(nd.incident for nd in p.nodes)
    for i, j in itertools.combinations(range(p.r), 2):
        assert count[i, j] == g.intersect(p.classes[i], p.classes[j]), (p.labels, i, j)


def test_node_count_consistency_preserved():
    p = fig1_pair()  # Z.C2 = 2, so two nodes
    assert len(p.nodes) == 2
    up = pr.blow_up_node(p, "Z.C2.1", "E")
    # remaining original node plus two new E-nodes
    _assert_nodes_match_intersections(up)


def test_node_blowup_refuses_a_node_id_in_use():
    """Dotted labels can make a new node's id equal one already in use;
    blow_up_node refuses the step, so no node id stands for two nodes."""
    p2 = g.projective_plane()
    p = pr.make_pair(p2, [("X.Y", (1,)), ("Z", (1,)), ("X", (1,)), ("Q", (1,))])
    with pytest.raises(ValueError) as err:
        pr.blow_up_node(p, "X.Q.1", "Y.Z")
    assert str(err.value) == "node id 'X.Y.Z.1' already in use"
    # the blown node's own id is free again, for one of the new nodes
    p = pr.make_pair(p2, [("A", (1,)), ("B", (1,))], nodes=[pr.NodeRecord("A.E.1", (0, 1))])
    up = pr.blow_up_node(p, "A.E.1", "E")
    assert [(nd.id, nd.incident) for nd in up.nodes] == [("A.E.1", (0, 2)), ("B.E.1", (1, 2))]
    _assert_nodes_match_intersections(up)


def test_node_ids_stay_distinct_under_dotted_labels():
    """Seeded scripts on the plane whose labels and fresh names contain
    dots, so that generated node ids can collide: a refused base pair or
    step is skipped, and after every accepted one the node ids are distinct
    and the nodes joining C_i and C_j number C_i.C_j."""
    rng = random.Random(29)
    names = ["A", "B", "C", "A.B", "B.C", "C.A"]
    outcomes = Counter()
    for _ in range(1000):
        labels = rng.sample(names, rng.randint(3, 5))
        try:
            p = pr.make_pair(g.projective_plane(), [(lab, (rng.randint(1, 2),)) for lab in labels])
        except ValueError as err:
            assert str(err).startswith("node ids must be distinct; "), err
            outcomes["base refused"] += 1
            continue
        _assert_nodes_match_intersections(p)
        for _ in range(rng.randint(1, 4)):
            fresh = rng.choice(names + ["E", "E.A"])
            try:
                if p.nodes and rng.random() < 0.7:
                    p = pr.blow_up_node(p, rng.choice(p.nodes).id, fresh)
                else:
                    p = pr.blow_up_smooth_point(p, rng.choice(p.labels), fresh)
            except ValueError as err:
                assert "already in use" in str(err) or "names a node" in str(err), err
                outcomes["node id" if str(err).startswith("node id") else "other refusal"] += 1
                continue
            _assert_nodes_match_intersections(p)
            outcomes["step"] += 1
    assert outcomes["base refused"] >= 20 and outcomes["node id"] >= 10 and outcomes["step"] >= 500, outcomes


def test_fiber_tracking_on_smooth_blowup():
    # blowing a smooth point of Z tracks the fiber transform through it
    p = pr.make_pair(g.hirzebruch(2), [("Z", (1, 0))])
    up = pr.blow_up_smooth_point(p, "Z", "q")
    kinds = {(tc.kind, tc.coeffs) for tc in up.tracked}
    assert ("fiber", (F(0), F(1), F(-1))) in kinds
    assert ("exceptional", (F(0), F(0), F(1))) in kinds


def test_fiber_tracking_merges_shared_tags():
    # one fiber meets Z and a disjoint zero section once each; centers on
    # both components may share it, and the transform picks up both E's
    p = pr.make_pair(g.hirzebruch(2), [("Z", (1, 0)), ("C2", (1, 2))])
    up = pr.blow_up_smooth_point(p, "Z", "q1", fiber_tag="f")
    up = pr.blow_up_smooth_point(up, "C2", "q2", fiber_tag="f")
    fiber = [tc for tc in up.tracked if tc.kind == "fiber"]
    assert len(fiber) == 1 and fiber[0].coeffs == (F(0), F(1), F(-1), F(-1))
    # unwinding q2 leaves the transform F - E1 of the fiber through q1
    mid, residual = pr.contract(up, "q2")
    assert residual == (F(0), (F(0), F(1)))  # q2 lies on C2 alone
    assert [c.coeffs for c in mid.classes] == [(F(1), F(0), F(-1)), (F(1), F(2), F(0))]
    assert [(tc.kind, tc.tag, tc.coeffs) for tc in mid.tracked] == [
        ("fiber", "f", (F(0), F(1), F(-1))),
        ("exceptional", "q1", (F(0), F(0), F(1))),
    ]
    # unwinding q1 reverts the fiber to a plain one, which is not tracked
    down, residual = pr.contract(mid, "q1")
    assert residual == (F(0), (F(1), F(0)))
    assert down == p


def test_blowups_refuse_a_tracked_tag():
    # contract resolves a tag to the first tracked curve carrying it, so a
    # blow-up may not give a second tracked curve an existing tag
    p = pr.make_pair(g.hirzebruch(1), [("Z", (1, 0)), ("C", (1, 1))])
    with pytest.raises(ValueError, match="tracked-curve tag 'f' already in use"):
        pr.blow_up_smooth_point(p, "C", "f", fiber_tag="f")
    up = pr.blow_up_smooth_point(p, "C", "e1", fiber_tag="g")
    with pytest.raises(ValueError, match="tracked-curve tag 'g' already in use"):
        pr.blow_up_smooth_point(up, "C", "g")
    with pytest.raises(ValueError, match="fiber tag 'e1' names a tracked exceptional curve"):
        pr.blow_up_smooth_point(up, "C", "x", fiber_tag="e1")
    q = pr.make_pair(g.hirzebruch(0), [("A", (1, 0)), ("B", (0, 1)), ("C", (1, 1))])
    up = pr.blow_up_smooth_point(q, "C", "e1", fiber_tag="g")
    with pytest.raises(ValueError, match="tracked-curve tag 'g' already in use"):
        pr.blow_up_node(up, "A.B.1", "g")
    # a fresh tag keeps every tracked curve contractible by its tag
    up = pr.blow_up_smooth_point(p, "C", "e", fiber_tag="f")
    assert sorted(tc.tag for tc in up.tracked) == ["e", "f"]
    down, _ = pr.contract(up, "e")
    assert down.classes == p.classes


def test_plane_smooth_blowup_refuses_a_fiber_tag():
    # the plane has no ruling to tag, as make_pair says of a tagged node
    p = pr.make_pair(g.projective_plane(), [("L", (1,)), ("Q", (2,))])
    for pair in (p, pr.blow_up_smooth_point(p, "Q", "e1")):
        with pytest.raises(ValueError) as err:
            pr.blow_up_smooth_point(pair, "L", "q", fiber_tag="f")
        assert str(err.value) == "fiber tags only make sense on F_n-rooted surfaces"
    # the refusals that come first keep their texts
    with pytest.raises(ValueError, match="tracked-curve tag 'f' already in use"):
        pr.blow_up_smooth_point(p, "L", "f", fiber_tag="f")


def test_fiber_tracking_skips_boundary_fibers():
    up = pr.blow_up_node(zf_pair(), "Z.F.1", "E")
    assert all(tc.kind != "fiber" for tc in up.tracked)


def test_shared_fiber_impossible_configuration_rejected():
    # a fiber meets Z once, and the section S = Z + F of F_1 once, so two
    # centers on either cannot share a fiber: the transform F - E1 - E2
    # would meet the component's transform in -1
    for p, label in (
        (pr.make_pair(g.hirzebruch(2), [("Z", (1, 0))]), "Z"),
        (pr.make_pair(g.hirzebruch(1), [("Z", (1, 0)), ("S", (1, 1))]), "S"),
    ):
        up = pr.blow_up_smooth_point(p, label, "q1", fiber_tag="f")
        with pytest.raises(ValueError) as err:
            pr.blow_up_smooth_point(up, label, "q2", fiber_tag="f")
        assert str(err.value) == (
            "fiber tag 'f' puts multiple centers on one fiber, but that fiber "
            f"would then meet component {label!r} negatively"
        )


def _minimal_by_intersect(p):
    """is_minimal on a blow-up by its Fraction formula: False when a tracked
    curve has square -1 and meets the boundary total once, else UNKNOWN."""
    total = p.boundary_total()
    for tc in p.tracked:
        curve = p.surface.divisor(tc.coeffs)
        if g.intersect(curve, curve) == -1 and g.intersect(curve, total) == 1:
            return False
    return pr.UNKNOWN


def test_blowup_calculus_on_rational_classes():
    """A script on F_1 whose boundary holds the non-integral class
    A = (Z + F)/2 beside Z and C = Z + 2F: a node blow-up, two smooth ones
    sharing the fiber tag 'f' and a node blow-up on the new component.  The
    tracked-fiber checks pass on every step, `is_minimal` agrees with its
    Fraction formula on every stage (UNKNOWN after the first node blow-up,
    False once an exceptional curve is tracked), and `contract` unwinds the
    script back to its base.  A tracked class of denominator 2 with square
    -1 and degree 1 on C is a witness that `contract` still refuses, and
    seeded scripts on the shared bases check the formula too."""
    base = pr.make_pair(g.hirzebruch(1), [("Z", (1, 0)), ("A", (F(1, 2), F(1, 2))), ("C", (1, 2))])
    stages = [base]
    stages.append(pr.blow_up_node(stages[-1], "Z.C.1", "E1"))
    stages.append(pr.blow_up_smooth_point(stages[-1], "Z", "q2", fiber_tag="f"))
    stages.append(pr.blow_up_smooth_point(stages[-1], "C", "q3", fiber_tag="f"))
    stages.append(pr.blow_up_node(stages[-1], "C.E1.1", "E4"))
    fiber = next(tc for tc in stages[-1].tracked if tc.tag == "f")
    assert fiber.coeffs == (0, 1, 0, -1, -1, 0)
    assert stages[-1].boundary_total().integer_form[1] == 2
    assert [pr.is_minimal(p) for p in stages] == [True, pr.UNKNOWN, False, False, False]
    for p in stages[1:]:
        assert pr.is_minimal(p) is _minimal_by_intersect(p)
    pair = stages[-1]
    while pair.history:
        pair, _ = pr.contract(pair, pair.history[-1].exc_label)
        assert pair == stages[len(pair.history)]
    # (Z - F + E)/2 on F_1 blown up once: square -4/4, degree (4 - 2)/2 on Z + 4F
    half = pr.TrackedCurve("exceptional", "h", (F(1, 2), F(-1, 2), F(1, 2)))
    p = pr.make_pair(g.blow_up(g.hirzebruch(1), "E", "p"), [("Z", (1, 0, 0)), ("D", (0, 4, 0))], tracked=[half])
    assert pr.is_minimal(p) is False
    assert _minimal_by_intersect(p) is False
    with pytest.raises(ValueError, match="only the most recent exceptional curve is contractible"):
        pr.contract(p, "h")
    rng = random.Random(35)
    for _ in range(30):
        p = _random_script(rng, rng.choice(BASES)(), rng.randint(1, 4))
        assert pr.is_minimal(p) is _minimal_by_intersect(p)


def _assert_table_is_intersect(classes, meet):
    """Every C_i.C_j, i <= j, equals geometry.intersect, as an int when it is
    integral and as a Fraction only when it is not."""
    r = len(classes)
    # row order: the checks of make_pair report the first failing pair in it
    assert list(meet) == [(i, j) for i in range(r) for j in range(i, r)]
    for (i, j), value in meet.items():
        want = g.intersect(classes[i], classes[j])
        assert value == want
        assert type(value) is (int if want.denominator == 1 else F)


def _unwind(pair):
    """Contract the blow-ups of pair in reverse order: the base pair and the
    number of contractions."""
    steps = 0
    while pair.history:
        pair, _ = pr.contract(pair, pair.history[-1].exc_label)
        steps += 1
    return pair, steps


def test_intersection_table_matches_intersect(monkeypatch):
    """make_pair's table of intersection numbers against geometry.intersect:
    on the classify candidates, the shipped samples and seeded blow-up
    scripts unwound by contract, and on classes with rational coefficients."""
    tables = []
    build = pr._intersection_table

    def recording(surface, classes):
        meet = build(surface, classes)
        tables.append((classes, meet))
        return meet

    monkeypatch.setattr(pr, "_intersection_table", recording)
    for cand in rank2_candidates(12):
        assert cand.pair.r == len(cand.classes)
    built = 386  # one make_pair per candidate
    for path in sorted(SAMPLES.glob("*.pair")):
        script = dsl.load_pair_spec(str(path))
        base, steps = _unwind(script.apply()[-1])
        assert base == script.base
        built += 1 + steps  # the base, then one per contraction
    rng = random.Random(20)
    for _ in range(30):
        base = rng.choice(BASES)()
        unwound, steps = _unwind(_random_script(rng, base, rng.randint(1, 4)))
        assert unwound == base
        built += 1 + steps
    # rational classes: a non-integral self-intersection beside integral
    # intersections, on F_1 and the plane
    pr.make_pair(g.hirzebruch(1), [("A", (F(1, 2), 1)), ("B", (0, 2))])
    pr.make_pair(g.projective_plane(), [("A", (F(1, 2),))])
    monkeypatch.undo()
    assert len(tables) == built + 2
    assert sum(type(v) is F for _, meet in tables for v in meet.values()) == 2
    for classes, meet in tables:
        _assert_table_is_intersect(classes, meet)
    # the table alone, on seeded classes with rational and negative coefficients
    surfaces = (g.projective_plane(), g.hirzebruch(3), g.blow_up(g.hirzebruch(1), "E", "p"))
    for surface in surfaces:
        for _ in range(100):
            classes = [
                surface.divisor([F(rng.randint(-9, 9), rng.choice((1, 2, 3, 6))) for _ in surface.basis_labels])
                for _ in range(rng.randint(1, 4))
            ]
            _assert_table_is_intersect(classes, pr._intersection_table(surface, classes))


def test_make_pair_refusals_on_rational_classes():
    """The refusals that read the intersection table keep their exact text
    when the numbers are Fractions, and name the first failing pair in row
    order."""
    f2, plane = g.hirzebruch(2), g.projective_plane()
    refusals = [
        # (Z/2)^2 = -1/2
        (
            (f2, [("A", (F(1, 2), 0)), ("B", (F(1, 2), 0))]),
            {},
            "a class with negative self-intersection has a unique member; "
            "components 'A' and 'B' collide",
        ),
        # Z.(Z + F)/2 = -1/2
        (
            (f2, [("Z", (1, 0)), ("C", (F(1, 2), F(1, 2)))]),
            {},
            "components 'Z', 'C' have negative intersection",
        ),
        (
            (plane, [("A", (F(1, 3),)), ("B", (2,))]),
            {},
            "cannot autogenerate nodes for non-integral intersections",
        ),
        (
            (plane, [("A", (F(1, 2),)), ("B", (1,))]),
            {"nodes": []},
            "components 'A', 'B' meet 1/2 times but 0 nodes are declared",
        ),
        # four lines with nodes on A.B and A.C only: A.D comes before B.C
        (
            (plane, [("A", (1,)), ("B", (1,)), ("C", (1,)), ("D", (1,))]),
            {"nodes": [pr.NodeRecord("x", (0, 1)), pr.NodeRecord("y", (0, 2))]},
            "components 'A', 'D' meet 1 times but 0 nodes are declared",
        ),
    ]
    for args, kwargs, text in refusals:
        with pytest.raises(ValueError) as err:
            pr.make_pair(*args, **kwargs)
        assert str(err.value) == text


def test_adjoint_family_from_numerators_matches_class_arithmetic():
    """The family built from the classes' integer numerators equals the one
    built by DivisorClass arithmetic, -K - sum C_i with its integer form read
    off the Fraction coefficients: on seeded classes with rational and
    negative coefficients, on the plane, F_n and a blow-up."""
    rng = random.Random(20)
    surfaces = (g.projective_plane(), g.hirzebruch(2), g.blow_up(g.hirzebruch(1), "E", "p"))
    for surface in surfaces:
        for _ in range(100):
            classes = tuple(
                surface.divisor([F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))) for _ in surface.basis_labels])
                for _ in range(rng.randint(1, 4))
            )
            p = pr.LogPair(surface, tuple(f"C{i}" for i in range(len(classes))), classes, ())
            want = pr.LogAdjointFamily(surface.minus_k() - p.boundary_total(), classes)
            got = pr.log_adjoint(p)
            assert got == want and got.integer_form == want.integer_form


def _value_types():
    """(builder, a field) for each value type of the package: the builder
    makes a fresh instance equal to every other one it makes."""
    p = lambda: zf_pair(2)
    rows = lambda: pt.HPolytope(1, (((1,), 0, True), ((-1,), 1, True)))
    return [
        (g.ProjectivePlane, None),
        (lambda: g.Hirzebruch(2), "n"),
        (lambda: g.BlowUp(g.hirzebruch(2), "p"), "center"),
        (lambda: g.hirzebruch(2), "canonical"),
        (lambda: g.hirzebruch(2).divisor([1, F(1, 2)]), "coeffs"),
        (lambda: pr.NodeRecord("x", (1, 0)), "incident"),
        (lambda: pr.TrackedCurve("fiber", "f", (F(0), F(1))), "coeffs"),
        (lambda: pr.BlowUpEvent("E", "node", "x"), "kind"),
        (lambda: pr.angles([F(1, 2), 1]), "entries"),
        (p, "classes"),
        (lambda: pr.log_adjoint(p()), "constant"),
        (lambda: pt.HalfSpace((F(1),), F(0), True), "strict"),
        (rows, "dim"),
        (lambda: pt.VPolytope(1, ((F(0),), (F(1),))), "vertices"),
        (lambda: pt.AffineMap(2, (4,), 6), "den"),
        (lambda: an.AABody(rows(), an.EXACT), "exactness"),
        (lambda: an.QuadraticReport(F(1), (F(2),), ((F(3),),), 4, 3, 1, 1, 1), "samples"),
        (lambda: an.reparam(p(), pr.angles([F(1, 2), F(1, 2)])), "eta"),
        (lambda: cl.CandidatePair("F2", 2, ((1, 0), (0, 1))), "classes"),
        (lambda: dsl.BlowUpStep("smooth", "Z", "p", "f"), "fiber"),
        (lambda: dsl.PairScript(p(), ()), "steps"),
        (lambda: cli.run_report(p(), "zf"), "verdicts"),
    ]


# the types that keep a cached view, or a handed-in one, on the instance
CACHING = {g.DivisorClass, pt.HPolytope, pr.LogPair, pr.LogAdjointFamily, cl.CandidatePair, an.AABody}


def test_value_types_are_immutable_named_tuples():
    """Every value type is a named tuple: equal values compare and hash
    equal, a field cannot be assigned, only the types with cached views
    carry an instance __dict__, and each constructor validates and
    normalizes its input as it did."""
    built = set()
    for make, name in _value_types():
        a, b = make(), make()
        assert a is not b and a == b and isinstance(a, tuple), type(a)
        assert hasattr(a, "__dict__") is (type(a) in CACHING), type(a)
        if type(a) is not cli.RunReport:  # a report's verdicts are a dict
            assert hash(a) == hash(b), type(a)
        if name is not None:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(b, name))
        built.add(type(a))
    assert len(built) == 22 and CACHING <= built
    plane = g.ProjectivePlane()
    assert not plane  # no fields: the one falsy value

    for build, message in (
        (lambda: g.SurfaceModel(("A", "B"), ((0, 1), (2, 0)), (0, 0), plane), "must be symmetric"),
        (lambda: g.SurfaceModel(("A",), ((1,),), (0, 0), plane), "canonical class length"),
        (lambda: g.DivisorClass(g.hirzebruch(1), (F(1),)), "does not match surface rank"),
        (lambda: pr.NodeRecord("x", (1, 1)), "no self-nodes"),
        (lambda: pt.HPolytope(2, (((1,), 0, True),)), "row dimension mismatch"),
        (lambda: dsl.BlowUpStep("node", "x", "E", "f"), "apply to smooth centers only"),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    # a reversed node is stored sorted; the angle and map rules are tested
    # in test_angle_vector_range and test_diagonal_map_divides_out_the_gcd
    assert pr.NodeRecord("x", (2, 0), "f") == ("x", (0, 2), "f")

    # equality ignores the closure and vertices a body has computed
    body = an.aa_body(fig1_pair())
    bare = an.AABody(body.open_part, body.exactness)
    assert body.vertices.vertices and "closed_hull" in vars(body) and not vars(bare)
    assert body == bare and hash(body) == hash(bare)
    assert bare.vertices == body.vertices and bare.closed_hull == body.closed_hull

    # a family handed its integer form serves it as it is
    family = pr.log_adjoint(fig1_pair())
    form = family.integer_form
    twin = pr.LogAdjointFamily(family.constant, family.increments, form=form)
    assert twin.integer_form is form and twin == family
    fresh = pr.LogAdjointFamily(family.constant, family.increments)
    assert "integer_form" not in vars(fresh) and fresh.integer_form == form


def test_cached_field_computes_once_and_stays_overridable(monkeypatch):
    """The library's cached-field descriptor: one call per instance, the
    value kept in the instance __dict__; read on the class, the descriptor
    with the method's docstring; a class attribute set over it (as
    test_classify_scales_to_n48 sets `body`) wins.  Every cached field of
    the value types is one, and each keeps its value after a read."""
    calls = []

    class Box(namedtuple("Box", "x")):
        @g._cached_field
        def double(self):
            """Twice x."""
            calls.append(self.x)
            return 2 * self.x

    box = Box(3)
    assert box.double == 6 and box.double == 6 and calls == [3]
    assert vars(box) == {"double": 6}
    assert Box(4).double == 8 and calls == [3, 4]
    assert isinstance(Box.double, g._cached_field) and Box.double.__doc__ == "Twice x."
    monkeypatch.setattr(Box, "double", property(lambda b: -b.x))
    assert Box(5).double == -5 and box.double == -3 and calls == [3, 4]

    fields = {
        (cls, name)
        for cls in CACHING
        for name, attr in vars(cls).items()
        if isinstance(attr, g._cached_field)
    }
    classes = fig1_pair().classes
    open_part = an.aa_body(fig1_pair()).open_part
    reads = [
        (g.hirzebruch(1).divisor([1, F(1, 2)]), "integer_form"),
        (pt.HPolytope(1, (((1,), 0, True), ((-1,), 1, True))), "halfspaces"),
        (pt.HPolytope(1, (((1,), 0, True), ((-1,), 1, True))), "sparse_rows"),
        (fig1_pair(), "adjoint_family"),
        (pr.LogAdjointFamily(classes[0], classes), "integer_form"),
        (pr.log_adjoint(fig1_pair()), "column_form"),
        (an.AABody(open_part, an.EXACT), "closed_hull"),
        (an.AABody(open_part, an.EXACT), "vertices"),
    ]
    for name in ("coords", "pair", "constant", "body"):
        reads.append((cl.CandidatePair("F1", 1, ((1, 0), (1, 3))), name))
    assert {(type(obj), name) for obj, name in reads} == fields and len(fields) == 12
    for obj, name in reads:
        assert name not in vars(obj), (type(obj), name)
        value = getattr(obj, name)
        assert vars(obj)[name] is value and getattr(obj, name) is value, (type(obj), name)


def test_check_boundary_matches_a_scan_of_all_pairs():
    """`_check_boundary`, which pairs each distinct class once through one
    dual, accepts and refuses the same seeded boundaries as a scan of every
    component and pair in Fractions, with the same message: on the plane
    and F_0..F_4 blown up at most twice, with integer and rational classes
    drawn from a small pool, so that classes repeat.  Blow-ups give classes
    of negative square, so most refusals are collisions."""
    rng = random.Random(2031)
    bases = [g.projective_plane()] + [g.hirzebruch(n) for n in range(5)]
    outcomes = Counter()
    for _ in range(3000):
        s = rng.choice(bases)
        for e in range(rng.randint(0, 2)):
            s = g.blow_up(s, f"E{e + 1}", "p")
        pool = [
            tuple(F(rng.randint(-1, 3), den) for _ in range(s.rank))
            for den in rng.choices((1, 1, 2, 3), k=rng.randint(1, 4))
        ]
        classes = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        labels = [f"C{i + 1}" for i in range(len(classes))]
        try:
            check_boundary_by_scan(s.intersection_matrix, labels, classes)
            want = None
        except ValueError as exc:
            want = str(exc)
        try:
            pr._check_boundary(s, labels, [s.divisor(c).integer_form for c in classes])
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, (s, classes)
        repeated = len(set(classes)) < len(classes)
        rational = any(c.denominator > 1 for cls in classes for c in cls)
        kind = "accepted" if want is None else "collide" if "collide" in want else "negative"
        outcomes[kind, repeated, rational] += 1
    # every outcome with and without repeats and rational classes (a
    # collision needs a repeat)
    assert len(outcomes) == 10
    totals = Counter()
    for (kind, _, _), count in outcomes.items():
        totals[kind] += count
    assert totals == {"accepted": 1119, "collide": 1578, "negative": 303}
