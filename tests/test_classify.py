from collections import Counter

import pytest

from ampleangles import angles as an
from ampleangles import classify as cl
from ampleangles import cli
from ampleangles import pairs as pr
from ampleangles import polytope as pt
from _util import MAEDA_P2, P2_TABLE, fn_table, maeda_fn_table


def test_maeda_count_n3():
    rows = cl.enumerate_maeda(3)
    assert len(rows) == 13
    counts = Counter(label.text for _, label in rows)
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
    rows = {(c.surface, c.classes): label.text for c, label in cl.enumerate_maeda(4)}
    assert rows[("P2", (1, 1))] == "Maeda.ii"
    for n in range(5):
        assert rows[(f"F{n}", ((1, 0), (0, 1)))] == "Maeda.v"


def test_maeda_against_golden_table():
    n_max = 6
    got = {
        (c.surface, tuple(sorted(c.classes)), label.text)
        for c, label in cl.enumerate_maeda(n_max)
    }
    want = {("P2", tuple(sorted(d)), lab) for lab, d in MAEDA_P2}
    for n in range(n_max + 1):
        for lab, classes in maeda_fn_table(n):
            want.add((f"F{n}", tuple(sorted(classes)), lab))
    assert got == want


def test_match_label_examples():
    assert cl.match_label(cl.CandidatePair("F1", 1, ((1, 0), (0, 1)))).text == "II.2C.1"
    assert cl.match_label(cl.CandidatePair("F0", 0, ((1, 1), (1, 1)))).text == "II.4A"
    assert (
        cl.match_label(cl.CandidatePair("F3", 3, ((1, 0), (0, 1), (0, 1), (1, 3)))).text
        == "ALdP.4.3"
    )
    assert (
        cl.match_label(cl.CandidatePair("F0", 0, ((1, 0), (0, 1), (0, 1), (1, 0)))).text
        == "IV"
    )
    with pytest.raises(LookupError):
        cl.match_label(cl.CandidatePair("F2", 2, ((2, 4),)))


def test_rank2_survivors_at_n2():
    rows = [(c, label.text, s) for c, label, s in cl.enumerate_rank2(2) if c.n == 2]
    labels = {lab for _, lab, _ in rows}
    assert labels == {
        "I.2.2", "II.2A.2", "II.2B.2", "II.2C.2", "III.3.2",
        "ALdP.1.2", "ALdP.2.2", "ALdP.3.2", "ALdP.4.2",
    }
    datasets = {c.classes for c, _, _ in rows}
    assert ((2, 4),) not in datasets
    assert ((1, 2), (1, 2)) not in datasets


def test_rank2_fiber_family_lands_at_n0():
    rows = {(c.surface, c.classes): label.text for c, label, _ in cl.enumerate_rank2(0)}
    # (1,n) with two fibers exists only at n = 0, as III.3.0
    assert rows[("F0", ((1, 0), (0, 1), (1, 0)))] == "III.3.0"


def test_rank2_against_golden_table():
    n_max = 5
    got = {
        (c.surface, c.classes, label.text, s)
        for c, label, s in cl.enumerate_rank2(n_max)
    }
    want = {("P2", d, lab, s) for lab, d, s in P2_TABLE}
    for n in range(n_max + 1):
        for lab, classes, s in fn_table(n):
            want.add((f"F{n}", classes, lab, s))
    assert got == want


def test_rank2_not_strong_tags():
    rows = cl.enumerate_rank2(4)
    not_strong = sorted(label.text for _, label, s in rows if s == cl.NOT_STRONG)
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
        for ms in cl.candidate_multisets(n, max_sum_a=4, max_sum_b=n + 4, max_a=4):
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


def test_classify_builds_each_candidate_once(monkeypatch, capsys):
    """One make_pair per distinct candidate key, and in rank2 mode one
    closure: the acceptance test, the strength and the printed body share
    the candidate's pair and body."""
    n_max = 3
    keys = len({cl.swap_canonical(None, ms) for ms in cl.p2_degree_multisets()})
    for n in range(n_max + 1):
        keys += len({cl.swap_canonical(n, ms) for ms in cl.candidate_multisets(n)})
    pairs, closures = [], []

    def counting_make_pair(*args, **kwargs):
        pairs.append(args)
        return pr.make_pair(*args, **kwargs)

    def counting_closure(p):
        closures.append(p)
        return closure(p)

    closure = pt.closure
    monkeypatch.setattr(cl, "make_pair", counting_make_pair)
    monkeypatch.setattr(pt, "closure", counting_closure)
    for mode, closed in (("maeda", 0), ("rank2", keys)):
        pairs.clear()
        closures.clear()
        assert cli.main(["classify", "--mode", mode, "--n-max", str(n_max)]) == 0
        capsys.readouterr()
        assert len(pairs) == keys, mode
        assert len(closures) == closed, mode


def test_component_classes_exclude_reducible_multiples():
    assert (0, 2) not in cl.component_classes(0, max_a=2, max_b=4)
    assert (2, 0) not in cl.component_classes(0, max_a=2, max_b=4)
    assert (2, 1) in cl.component_classes(0)
    assert (1, 2) in cl.component_classes(2)


def test_dual_graph_of_anticanonical_survivors_is_cycle():
    # boundaries with C ~ -K have cyclic dual graphs; all others are chains
    for cand, _, _ in cl.enumerate_rank2(3):
        p = cl.build_pair(cand)
        if pr.is_anticanonical(p):
            assert pr.is_cycle(p) or p.r == 1
        else:
            assert pr.is_chain_union(p)
