import time
from collections import Counter
from types import SimpleNamespace

import pytest

from ampleangles import angles as an
from ampleangles import classify as cl
from ampleangles import cli
from ampleangles import pairs as pr
from ampleangles import polytope as pt
from ampleangles.geometry import Hirzebruch, ProjectivePlane
from _util import (
    MAEDA_P2,
    P2_TABLE,
    _nef_normals,
    box_multisets,
    fm_is_feasible,
    fn_table,
    is_chain_union,
    maeda_fn_table,
    rank2_candidates,
    record_eliminations,
)


def test_maeda_count_n3():
    rows = cl.enumerate_maeda(3)
    assert len(rows) == 13
    counts = Counter(label for _, label in rows)
    assert counts == {
        "Maeda.i": 1,
        "Maeda.ii": 1,
        "Maeda.iii": 1,
        "Maeda.iv": 4,
        "Maeda.v": 4,
        "Maeda.vi": 1,
        "Maeda.vii": 1,
    }


def test_maeda_label_examples():
    rows = {(c.surface, c.classes): label for c, label in cl.enumerate_maeda(4)}
    assert rows[("P2", (1, 1))] == "Maeda.ii"
    for n in range(5):
        assert rows[(f"F{n}", ((1, 0), (0, 1)))] == "Maeda.v"


def test_maeda_against_golden_table():
    n_max = 6
    got = {
        (c.surface, tuple(sorted(c.classes)), label)
        for c, label in cl.enumerate_maeda(n_max)
    }
    want = {("P2", tuple(sorted(d)), lab) for lab, d in MAEDA_P2}
    for n in range(n_max + 1):
        for lab, classes in maeda_fn_table(n):
            want.add((f"F{n}", tuple(sorted(classes)), lab))
    assert got == want


def test_match_label_examples():
    assert cl.match_label(cl.CandidatePair("F1", 1, ((1, 0), (0, 1)))) == "II.2C.1"
    assert cl.match_label(cl.CandidatePair("F0", 0, ((1, 1), (1, 1)))) == "II.4A"
    assert (
        cl.match_label(cl.CandidatePair("F3", 3, ((1, 0), (0, 1), (0, 1), (1, 3))))
        == "ALdP.4.3"
    )
    assert (
        cl.match_label(cl.CandidatePair("F0", 0, ((1, 0), (0, 1), (0, 1), (1, 0))))
        == "IV"
    )
    with pytest.raises(LookupError):
        cl.match_label(cl.CandidatePair("F2", 2, ((2, 4),)))


def test_rank2_survivors_at_n2():
    rows = [(c, label, s) for c, label, s in cl.enumerate_rank2(2) if c.n == 2]
    labels = {lab for _, lab, _ in rows}
    assert labels == {
        "I.2.2", "II.2A.2", "II.2B.2", "II.2C.2", "III.3.2",
        "ALdP.1.2", "ALdP.2.2", "ALdP.3.2", "ALdP.4.2",
    }
    datasets = {c.classes for c, _, _ in rows}
    assert ((2, 4),) not in datasets
    assert ((1, 2), (1, 2)) not in datasets


def test_rank2_fiber_family_lands_at_n0():
    rows = {(c.surface, c.classes): label for c, label, _ in cl.enumerate_rank2(0)}
    # (1,n) with two fibers exists only at n = 0, as III.3.0
    assert rows[("F0", ((1, 0), (0, 1), (1, 0)))] == "III.3.0"


def test_rank2_against_golden_table():
    n_max = 5
    got = {
        (c.surface, c.classes, label, s)
        for c, label, s in cl.enumerate_rank2(n_max)
    }
    want = {("P2", d, lab, s) for lab, d, s in P2_TABLE}
    for n in range(n_max + 1):
        for lab, classes, s in fn_table(n):
            want.add((f"F{n}", classes, lab, s))
    assert got == want


def test_rank2_not_strong_tags():
    rows = cl.enumerate_rank2(4)
    not_strong = sorted(label for _, label, s in rows if s == cl.NOT_STRONG)
    assert not_strong == sorted(
        f"ALdP.{k}.{n}" for k in (1, 2, 3, 4) for n in range(1, 5)
    )


def test_rank2_soundness_and_strength_consistency():
    for cand, _, strength in cl.enumerate_rank2(4):
        p = cl.build_pair(cand)
        assert an.is_aldp(p) is True
        logdp = an.is_log_dp(p)
        strong = an.is_strongly_aldp(p)
        if strength == cl.LOG_DP:
            assert logdp is True and strong is True
        elif strength == cl.STRONG:
            assert logdp is False and strong is True
        else:
            assert logdp is False and strong is False


def test_rank2_fiber_count_consequence():
    # a survivor with a non-fiber component has at most two fiber components
    for cand, _, _ in cl.enumerate_rank2(6):
        if cand.n is None:
            continue
        fibers = sum(1 for ab in cand.classes if ab == (0, 1))
        if fibers < len(cand.classes):
            assert fibers <= 2


def test_rank2_brute_force_box_oracle():
    # an exhaustive search over a strictly larger box finds no survivor
    # outside the nef-bounded search space
    for n in range(0, 4):
        inside = set()
        for ms in cl.candidate_multisets(n):
            key = cl.swap_canonical(n, ms)
            if key in inside:
                continue
            if an.is_aldp(cl.build_pair(cl.CandidatePair(f"F{n}", n, key))) is True:
                inside.add(key)
        seen = set()
        for ms in box_multisets(n, max_sum_a=4, max_sum_b=n + 4, max_a=4):
            key = cl.swap_canonical(n, ms)
            if key in seen:
                continue
            seen.add(key)
            if an.is_aldp(cl.build_pair(cl.CandidatePair(f"F{n}", n, key))) is not True:
                continue
            sum_a = sum(a for a, _ in key)
            sum_b = sum(b for _, b in key)
            assert sum_a <= 2 and sum_b <= n + 2, f"survivor outside box at n={n}: {key}"
            assert key in inside


def _minus_k_minus_c_is_nef(n, classes):
    """Whether -K - C is nef for the raw class tuples of a candidate: on the
    plane -K = 3H and the classes are degrees; on F_n -K = 2Z + (n + 2)F and
    the classes are (a, b) for aZ + bF."""
    if n is None:
        provenance, minus_k, coords = ProjectivePlane(), (3,), [(d,) for d in classes]
    else:
        provenance, minus_k, coords = Hirzebruch(n), (2, n + 2), classes
    adjoint = [k - sum(c[j] for c in coords) for j, k in enumerate(minus_k)]
    normals = _nef_normals(SimpleNamespace(surface=SimpleNamespace(provenance=provenance)))
    return all(sum(w * x for w, x in zip(normal, adjoint)) >= 0 for normal in normals)


def test_candidate_multisets_are_the_nef_part_of_the_box():
    """The generator yields exactly the box multisets with -K - C nef, up to
    F_48; and on the box corpus up to F_12 no boundary outside the nef
    region is log del Pezzo or asymptotically log del Pezzo, by the tuple
    path's body and verdict and by the built pair's."""
    for n in range(49):
        got = [cl.swap_canonical(n, ms) for ms in cl.candidate_multisets(n)]
        box = {cl.swap_canonical(n, ms) for ms in box_multisets(n) if _minus_k_minus_c_is_nef(n, ms)}
        assert set(got) == box, n
    outside = [c for c in rank2_candidates(12) if not _minus_k_minus_c_is_nef(c.n, c.classes)]
    assert len(outside) == 247
    for c in outside:
        assert c.aldp is False and c.body.aldp is False and an.is_aldp(c.pair) is False, c
        assert c.log_dp is False and an.is_log_dp(c.pair) is False, c


def test_classify_builds_each_candidate_once(monkeypatch, capsys):
    """No make_pair in either mode: every candidate is decided on its class
    tuples.  Both modes validate each boundary with -K - C nef once and
    never one outside the nef region, which is not generated.  In rank2
    mode one body and one closure per candidate, all of them nef.  The
    acceptance test, the strength and the printed body share the
    candidate's body."""
    n_max = 3
    groups = [(None, {cl.swap_canonical(None, ms) for ms in cl.p2_degree_multisets()})]
    for n in range(n_max + 1):
        groups.append((n, {cl.swap_canonical(n, ms) for ms in box_multisets(n)}))
    keys = sum(len(found) for _, found in groups)
    nef_keys = Counter((n, key) for n, found in groups for key in found if _minus_k_minus_c_is_nef(n, key))
    nef = len(nef_keys)
    assert (keys, nef) == (89, 58)
    models = {id(cl._model(n)): n for n, _ in groups}
    pairs, bodies, closures, checked = [], [], [], []

    def counting_check_boundary(surface, labels, forms):
        n = models[id(surface)]
        classes = tuple(k[0] if n is None else k for k, _ in forms)
        checked.append((n, cl.swap_canonical(n, classes)))
        return check_boundary(surface, labels, forms)

    def counting_make_pair(*args, **kwargs):
        pairs.append(args)
        return make_pair(*args, **kwargs)

    def counting_open_part(*args):
        bodies.append(args)
        return open_part(*args)

    def counting_closure(p):
        closures.append(p)
        return closure(p)

    make_pair, open_part, closure = pr.make_pair, cl._family_open_part, pt.closure
    check_boundary = cl._check_boundary
    monkeypatch.setattr(cl, "_check_boundary", counting_check_boundary)
    monkeypatch.setattr(cl, "make_pair", counting_make_pair)
    monkeypatch.setattr(pr, "make_pair", counting_make_pair)
    monkeypatch.setattr(cl, "_family_open_part", counting_open_part)
    monkeypatch.setattr(pt, "closure", counting_closure)
    for mode, closed in (("maeda", 0), ("rank2", nef)):
        pairs.clear()
        bodies.clear()
        closures.clear()
        checked.clear()
        assert cli.main(["classify", "--mode", mode, "--n-max", str(n_max)]) == 0
        capsys.readouterr()
        assert Counter(checked) == nef_keys, mode
        assert len(pairs) == 0, mode
        assert len(bodies) == closed, mode
        assert len(closures) == closed, mode


def test_tuple_path_matches_the_pair_path():
    """On every candidate up to F_12, the body and the log del Pezzo verdict
    written from the class tuples equal those of the built pair, and
    boundaries that make_pair refuses raise its ValueError from the tuples,
    whichever of the body and the verdict is read first."""
    candidates = rank2_candidates(12)
    assert len(candidates) == 386
    for c in candidates:
        assert c.body.open_part == an.aa_body(c.pair).open_part, c
        assert c.log_dp is an.is_log_dp(c.pair), c
    invalid = [
        ("F1", 1, ((1, 0), (1, 0))),  # Z_1 twice
        ("F2", 2, ((1, 0), (1, 0))),  # Z_2 twice
        ("F2", 2, ((0, 1), (1, 0), (0, 1), (1, 0))),  # named at its first repeat
        ("F2", 2, ((1, 1), (1, 0), (1, 0))),  # the repeat is named before Z.(Z + F) < 0
        ("F2", 2, ((0, 1), (1, 0), (0, 1), (1, 1))),  # Z.(Z + F) = -1
        ("F3", 3, ((1, 3), (1, 1), (1, 0), (1, 1))),  # (Z + F)^2 = -1 twice, before (Z + F).Z = -2
        ("F3", 3, ((1, 3), (1, 1), (0, 1), (1, 0))),  # (Z + F).Z = -2
    ]
    for surface, n, classes in invalid:
        with pytest.raises(ValueError) as from_pair:
            cl.CandidatePair(surface, n, classes).pair
        for read in (lambda c: c.body, lambda c: c.log_dp):
            with pytest.raises(ValueError) as from_tuples:
                read(cl.CandidatePair(surface, n, classes))
            assert str(from_tuples.value) == str(from_pair.value)


def test_classify_scales_to_n48(monkeypatch, capsys):
    """Both enumerators up to F_48, with every printed rank-2 closure, in
    well under the time that building a pair per candidate took (3.0 s);
    and up to F_24 the printed rows equal those that deciding on each
    candidate's built pair prints."""
    start = time.perf_counter()
    rank2, maeda = cl.enumerate_rank2(48), cl.enumerate_maeda(48)
    for c, _, _ in rank2:
        c.body.closed_hull
    elapsed = time.perf_counter() - start
    assert (len(rank2), len(maeda)) == (460, 103)
    assert elapsed < 1.5, f"classify up to F_48 took {elapsed:.2f}s"

    def printed(mode):
        assert cli.main(["classify", "--mode", mode, "--n-max", "24"]) == 0
        return capsys.readouterr().out

    tuple_path = {mode: printed(mode) for mode in ("maeda", "rank2")}
    assert (tuple_path["rank2"].count("\n"), tuple_path["maeda"].count("\n")) == (244, 55)
    # the nef-first acceptance test, the body and the verdict all come from the pair
    monkeypatch.setattr(cl.CandidatePair, "aldp", property(lambda c: an.is_aldp(c.pair)))
    monkeypatch.setattr(cl.CandidatePair, "body", property(lambda c: an.aa_halfspaces_rank_le2(c.pair)))
    monkeypatch.setattr(cl.CandidatePair, "log_dp", property(lambda c: an.is_log_dp(c.pair)))
    for mode, out in tuple_path.items():
        assert printed(mode) == out, mode


def test_classify_scales_to_n96():
    """Both enumerators up to F_96, with every printed rank-2 closure, in
    well under the time that deciding every multiset of the coefficient
    box took (0.43 s)."""
    start = time.perf_counter()
    rank2, maeda = cl.enumerate_rank2(96), cl.enumerate_maeda(96)
    for c, _, _ in rank2:
        c.body.closed_hull
    elapsed = time.perf_counter() - start
    assert (len(rank2), len(maeda)) == (892, 199)
    assert elapsed < 0.25, f"classify up to F_96 took {elapsed:.2f}s"


def test_rank2_verdicts_against_unpruned_elimination(monkeypatch):
    """On the 139 candidates up to F_12 with -K - C nef, `CandidatePair.aldp`
    equals unpruned Fraction elimination on the open part.  The diagonal
    witness decides 92 of them without elimination; the other 47 are
    eliminated, the 3 that are not ALdP among them."""
    eliminated = record_eliminations(monkeypatch)
    nef = [c for c in rank2_candidates(12) if _minus_k_minus_c_is_nef(c.n, c.classes)]
    assert len(nef) == 139
    seen = Counter()
    for c in nef:
        eliminated.clear()
        verdict = c.aldp
        assert verdict == fm_is_feasible(c.body.open_part), c
        seen[verdict, bool(eliminated)] += 1
    assert seen == {(True, False): 92, (True, True): 44, (False, True): 3}, seen


def test_component_classes_exclude_reducible_multiples():
    assert (0, 2) not in cl.component_classes(0)
    assert (2, 0) not in cl.component_classes(0)
    assert (2, 1) in cl.component_classes(0)
    assert (1, 2) in cl.component_classes(2)


def test_dual_graph_of_anticanonical_survivors_is_cycle():
    # boundaries with C ~ -K have cyclic dual graphs; all others are chains
    for cand, _, _ in cl.enumerate_rank2(3):
        p = cl.build_pair(cand)
        if pr.is_anticanonical(p):
            assert pr.is_cycle(p) or p.r == 1
        else:
            assert is_chain_union(p)
