import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampleangles import geometry as g
from _util import fraction_intersect, inertia

F = Fraction


def test_projective_plane():
    p2 = g.projective_plane()
    assert p2.rank == 1
    assert p2.canonical == (-3,)
    h = p2.basis_vector(0)
    assert g.intersect(h, h) == 1


def test_hirzebruch_lattice():
    f2 = g.hirzebruch(2)
    z, f = f2.basis_vector(0), f2.basis_vector(1)
    assert g.intersect(z, z) == -2
    assert g.intersect(f, f) == 0
    assert g.intersect(z, f) == 1
    assert g.hirzebruch(0).intersection_matrix == ((0, 1), (1, 0))
    assert g.hirzebruch(1).minus_k().coeffs == (F(2), F(3))


def test_hirzebruch_rejects_negative_index():
    with pytest.raises(ValueError):
        g.hirzebruch(-1)


def test_intersect_examples():
    p2 = g.projective_plane()
    assert g.intersect(p2.divisor([2]), p2.divisor([3])) == 6
    fn = g.hirzebruch(5)
    assert g.intersect(fn.divisor([0, 1]), fn.divisor([0, 1])) == 0


def test_intersect_surface_mismatch():
    a = g.projective_plane().divisor([1])
    b = g.hirzebruch(1).divisor([1, 0])
    with pytest.raises(ValueError):
        g.intersect(a, b)
    # the surface check runs before either integer form is built
    assert "integer_form" not in vars(a) and "integer_form" not in vars(b)
    # equal surfaces built separately still pair
    assert g.intersect(g.hirzebruch(2).divisor([1, 0]), g.hirzebruch(2).divisor([1, 0])) == -2


def _oracle_surfaces():
    """P2, F_0..F_6, and chains of point blow-ups of each up to rank 8."""
    roots = [g.projective_plane()] + [g.hirzebruch(n) for n in range(7)]
    for s in roots:
        yield s
        for k in range(8 - s.rank):
            s = g.blow_up(s, f"E{k}", f"p{k}")
            yield s


def _random_coeff(rng):
    """Zero a third of the time, else num/den with den in 1..12, either sign."""
    if rng.random() < 1 / 3:
        return 0
    return F(rng.randint(-9, 9), rng.randint(1, 12))


def test_intersect_matches_fraction_oracle():
    rng = random.Random(20200)
    for s in _oracle_surfaces():
        classes = [s.divisor([_random_coeff(rng) for _ in range(s.rank)]) for _ in range(5)]
        classes += [s.divisor([0] * s.rank), s.minus_k(), s.basis_vector(s.rank - 1)]
        expected = {
            (i, j): fraction_intersect(s.intersection_matrix, a.coeffs, b.coeffs)
            for i, a in enumerate(classes)
            for j, b in enumerate(classes)
        }
        for _ in range(2):  # the second round reads the cached integer forms
            for (i, j), want in expected.items():
                got = g.intersect(classes[i], classes[j])
                assert type(got) is Fraction
                assert got == want, (s, classes[i], classes[j])


def test_integer_form_cache_keeps_identity():
    s = g.blow_up(g.hirzebruch(2), "E", "p")
    d = s.divisor([F(1, 2), F(-3, 4), 0])
    twin = s.divisor([F(1, 2), F(-3, 4), 0])
    before = (repr(d), hash(d))
    g.intersect(d, d)
    assert vars(d)["integer_form"] == ((2, -3, 0), 4)
    assert "integer_form" not in vars(twin)
    assert d == twin and twin == d
    assert (repr(d), hash(d)) == before == (repr(twin), hash(twin))


def test_canonical_of_blowup():
    p2 = g.projective_plane()
    bl = g.blow_up(p2, "E", "p")
    assert bl.canonical == (-3, 1)
    assert bl.rank == 2
    assert g.intersect(bl.basis_vector(1), bl.basis_vector(1)) == -1


def test_blowup_of_plane_is_f1():
    # the isomorphism Bl_p P^2 = F_1 sends Z -> E and F -> H - E
    bl = g.blow_up(g.projective_plane(), "E", "p")
    f1 = g.hirzebruch(1)
    img = {
        (1, 0): bl.divisor([0, 1]),  # Z
        (0, 1): bl.divisor([1, -1]),  # F
    }
    for a in img:
        for b in img:
            assert g.intersect(img[a], img[b]) == g.intersect(f1.divisor(a), f1.divisor(b))
    k_img = -2 * img[(1, 0)] + -3 * img[(0, 1)]
    assert k_img.coeffs == bl.divisor(bl.canonical).coeffs


@pytest.mark.parametrize(
    "a,b,n,expect",
    [
        (1, 2, 1, True),
        (1, 2, 2, False),  # b = na boundary
        (1, 0, 0, False),
        (1, 0, 3, False),
        (2, 7, 3, True),
    ],
)
def test_fn_is_ample(a, b, n, expect):
    fn = g.hirzebruch(n)
    assert g.is_ample(fn, fn.divisor([a, b])) is expect
    assert g.is_ample(fn, fn.divisor([F(a, 3), F(b, 3)])) is expect


@pytest.mark.parametrize(
    "a,b,n,expect",
    [(1, 2, 2, True), (0, 0, 4, True), (1, 1, 2, False), (-1, 0, 0, False)],
)
def test_fn_is_nef(a, b, n, expect):
    # nef: nonnegative on every nef-cone normal
    assert all(w[0] * a + w[1] * b >= 0 for w in g.nef_cone(g.hirzebruch(n))) is expect


def test_fn_irreducible_admissible():
    assert g.fn_irreducible_admissible(1, 0, 5)
    assert g.fn_irreducible_admissible(0, 1, 7)
    assert not g.fn_irreducible_admissible(1, 1, 2)
    with pytest.raises(ValueError):
        g.fn_irreducible_admissible(0, 0, 1)


def test_is_ample():
    p2 = g.projective_plane()
    assert g.is_ample(p2, p2.divisor([2])) is True
    f2 = g.hirzebruch(2)
    assert g.is_ample(f2, f2.divisor([1, 4])) is True  # -K - Z_2
    bl = g.blow_up(p2, "E", "p")
    assert g.is_ample(bl, bl.divisor([1, 0])) is g.UNSUPPORTED


def test_divisors_refuse_floats():
    """A class's coefficients and a scalar multiple are exact: a float or a
    string raises TypeError naming it, and ints and Fractions pass."""
    f1 = g.hirzebruch(1)
    for bad, name in ((0.5, r"0\.5"), ("1", "'1'")):
        with pytest.raises(TypeError, match=rf"^{name} is not an exact rational"):
            f1.divisor([1, bad])
        with pytest.raises(TypeError, match=rf"^{name} is not an exact rational"):
            bad * f1.divisor([1, 2])
    assert f1.divisor([1, F(1, 2)]).coeffs == (1, F(1, 2))
    assert (F(1, 2) * f1.divisor([1, 2])).coeffs == (F(1, 2), 1)


def test_the_gate_passes_a_fraction_through():
    """`_rational` returns a Fraction as it is, uncopied, and converts a
    Fraction subclass to a plain Fraction; a class built from a Fraction
    holds that very object."""

    class Half(Fraction):
        pass

    f = F(3, 7)
    assert g._rational(f) is f
    sub = g._rational(Half(1, 2))
    assert type(sub) is Fraction and sub == F(1, 2)
    assert g.hirzebruch(1).divisor([f, 1]).coeffs[0] is f


@given(st.integers(), st.integers().filter(bool))
@settings(max_examples=400, deadline=None)
def test_fraction_builder_matches_the_constructor(num, den):
    """`_fraction` builds num/den without `Fraction.__new__`, and what it
    builds is the constructor's value: equal, of exact type Fraction, in
    lowest terms over a positive denominator, with the same hash, repr and
    str, through a pickle round trip and in arithmetic; a zero is the
    shared constant."""
    got, want = g._fraction(num, den), F(num, den)
    assert type(got) is F and got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got.denominator > 0
    assert hash(got) == hash(want) and repr(got) == repr(want) and str(got) == str(want)
    back = pickle.loads(pickle.dumps(got))
    assert type(back) is F and back == want
    assert got + F(1, 3) == want + F(1, 3) and got * 7 == want * 7
    assert (got is g._ZERO) is (num == 0)


def test_fraction_builder_signs_and_zeros():
    """A negative denominator moves its sign onto the numerator (reparam's
    checks feed eta = 1/-2), every zero is `_ZERO`, and a zero denominator
    raises as the constructor does."""
    for num, den, want in ((1, -2, (-1, 2)), (-6, -4, (3, 2)), (6, -4, (-3, 2)), (5, 1, (5, 1))):
        got = g._fraction(num, den)
        assert type(got) is F and got.as_integer_ratio() == want
    for den in (1, -3, 16):
        assert g._fraction(0, den) is g._ZERO
    with pytest.raises(ZeroDivisionError):
        g._fraction(3, 0)


def test_unsupported_is_not_boolean():
    with pytest.raises(TypeError):
        bool(g.UNSUPPORTED)


def test_adjunction_spot_checks():
    for n in range(0, 7):
        fn = g.hirzebruch(n)
        mk = fn.minus_k()
        assert g.intersect(mk, fn.divisor([0, 1])) == 2
        assert g.intersect(mk, fn.divisor([1, 0])) == 2 - n


def test_signature_of_models_and_blowups():
    for s in (g.projective_plane(), g.hirzebruch(0), g.hirzebruch(1), g.hirzebruch(5)):
        for _ in range(3):
            assert inertia(s.intersection_matrix) == (1, s.rank - 1, 0)
            s = g.blow_up(s, f"E{s.rank}", "p")


small_rats = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def surface_and_classes(draw):
    kind = draw(st.integers(min_value=0, max_value=4))
    s = g.projective_plane() if kind == 4 else g.hirzebruch(kind)
    depth = draw(st.integers(min_value=0, max_value=2))
    for d in range(depth):
        s = g.blow_up(s, f"E{d}", "p")
    mk = lambda: s.divisor([draw(small_rats) for _ in range(s.rank)])
    return mk(), mk(), mk()


@given(surface_and_classes(), small_rats, small_rats)
@settings(max_examples=120, deadline=None)
def test_intersect_symmetric_bilinear(triple, lam, mu):
    a, b, c = triple
    assert g.intersect(a, b) == g.intersect(b, a)
    assert g.intersect(lam * a + mu * b, c) == lam * g.intersect(a, c) + mu * g.intersect(b, c)
    assert g.intersect(-a, c) == -g.intersect(a, c)


@given(st.integers(min_value=-1, max_value=5), small_rats, small_rats)
@settings(max_examples=200, deadline=None)
def test_is_ample_matches_the_direct_criterion(n, a, b):
    # n = -1 stands for the plane, where aH is ample iff a > 0
    if n < 0:
        s, d, want = g.projective_plane(), [a], a > 0
    else:
        s, d, want = g.hirzebruch(n), [a, b], a > 0 and b > n * a
    assert g.is_ample(s, s.divisor(d)) is want
