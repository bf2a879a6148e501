"""Picard lattices of rational surfaces and exact divisor-class arithmetic.

A surface is modelled by its Picard lattice: a basis with labels, the
integer intersection matrix, and the class of the canonical divisor.
The two rank-<=2 models are the projective plane (basis H) and the
Hirzebruch surfaces F_n (basis Z, F with Z^2 = -n, F^2 = 0, Z.F = 1).
Blow-ups append an exceptional basis vector E with E^2 = -1.

All coefficients are exact: `fractions.Fraction` for divisor classes,
plain ints for the lattice data.  Coefficients and points from a
caller pass one gate, `_rational`, which refuses a float and passes a
`Fraction` through uncopied (it is immutable).  Intersection
numbers are computed on integers: each class caches its coefficients as
integer numerators over their least common denominator, `intersect`
pairs the numerators through the integer intersection matrix and
returns the exact `Fraction`.  An exact output computed on integers is
built once by `_fraction`, from its numerator and denominator: one gcd
reduces them and the Fraction's two slots are written directly, without
the constructor's parsing and type dispatch.
Ampleness on the plane and F_n is one integer rule: the numerators are
positive on every `nef_cone` normal (Kleiman's criterion); nefness is
its weak twin, nonnegative on every normal.

Fields derived from an immutable value (a class's integer form, a body's
closure) are computed on first read by `_cached_field`, a non-data
descriptor that stores the value in the instance `__dict__`, so later
reads find it there and skip the descriptor.  It is
`functools.cached_property` without the lock that Python 3.10 and 3.11
take on every first read (3.12 dropped it): two threads may both compute
a field, and each gets an equal value.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from numbers import Rational
from operator import mul
from typing import Sequence, Union


class Tri:
    """Non-boolean verdict sentinel; refuses implicit truthiness."""

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __bool__(self) -> bool:
        raise TypeError(f"{self._name} verdict used as a boolean; compare explicitly")


#: ampleness question has no exact decision procedure for this surface
UNSUPPORTED = Tri("UNSUPPORTED")
#: predicate cannot be certified either way over the tracked data
UNKNOWN = Tri("UNKNOWN")

Rat = Union[int, Fraction]


class _cached_field:
    """A field computed once per instance by the decorated method and then
    kept in the instance `__dict__`; read on the class, the descriptor."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class ProjectivePlane(namedtuple("ProjectivePlane", "")):
    """The provenance of the plane.  It has no fields, so it is falsy."""

    __slots__ = ()


class Hirzebruch(namedtuple("Hirzebruch", "n")):
    __slots__ = ()


class BlowUp(namedtuple("BlowUp", "parent center")):
    """The provenance of a blow-up of `parent`; `center` is a
    human-readable description of the blown-up point."""

    __slots__ = ()


Provenance = Union[ProjectivePlane, Hirzebruch, BlowUp]


class SurfaceModel(namedtuple("SurfaceModel", "basis_labels intersection_matrix canonical provenance")):
    """A rational surface as a Picard lattice with construction provenance:
    the basis labels, the integer intersection matrix and `canonical`, the
    class of K_S in the basis, as tuples."""

    __slots__ = ()

    def __new__(cls, basis_labels, intersection_matrix, canonical, provenance: Provenance):
        r = len(basis_labels)
        if len(intersection_matrix) != r or any(len(row) != r for row in intersection_matrix):
            raise ValueError("intersection matrix shape does not match basis")
        for i in range(r):
            for j in range(i + 1, r):
                if intersection_matrix[i][j] != intersection_matrix[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
        if len(canonical) != r:
            raise ValueError("canonical class length does not match rank")
        return tuple.__new__(cls, (basis_labels, intersection_matrix, canonical, provenance))

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def divisor(self, coeffs: Sequence[Rat]) -> "DivisorClass":
        return DivisorClass(self, tuple([_rational(c) for c in coeffs]))

    def basis_vector(self, i: int) -> "DivisorClass":
        return self.divisor([1 if j == i else 0 for j in range(self.rank)])

    def minus_k(self) -> "DivisorClass":
        return self.divisor([-c for c in self.canonical])

    def __repr__(self) -> str:
        return f"SurfaceModel({'|'.join(self.basis_labels)})"


class DivisorClass(namedtuple("DivisorClass", "surface coeffs")):
    """Rational coefficient vector in the fixed basis of its surface."""

    def __new__(cls, surface: SurfaceModel, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != surface.rank:
            raise ValueError("coefficient vector length does not match surface rank")
        return tuple.__new__(cls, (surface, coeffs))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _same_surface(self, other)
        pairs = zip(self.coeffs, other.coeffs)  # a zero term leaves the other as it is
        return DivisorClass(self.surface, tuple(a + b if a and b else a or b for a, b in pairs))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _same_surface(self, other)
        return DivisorClass(self.surface, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.surface, tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: Rat) -> "DivisorClass":
        s = scalar if isinstance(scalar, Fraction) else _rational(scalar)
        return DivisorClass(self.surface, tuple(s * a if a else a for a in self.coeffs))

    __mul__ = __rmul__

    @_cached_field
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(k, den): the coefficients as integer numerators k over their
        least common denominator den.  Cached: the class is immutable."""
        k, den = _integer_point(self.coeffs)
        return tuple(k), den

    def __repr__(self) -> str:
        terms = [f"{c}*{l}" for c, l in zip(self.coeffs, self.surface.basis_labels) if c != 0]
        return " + ".join(terms) if terms else "0"


_ZERO = Fraction(0)


def _fraction(num: int, den: int) -> Fraction:
    """num/den as a reduced Fraction, built from the two integers without
    running `Fraction.__new__`: one gcd, the sign moved onto the
    numerator, and the two slots written as Python 3.12's
    `Fraction._from_coprime_ints` writes them.  This is the one place that
    writes a Fraction's slots.  Every zero numerator gives the one shared
    constant; a nonzero one over a zero denominator raises
    ZeroDivisionError, as the constructor does."""
    if not num:
        return _ZERO
    g = gcd(num, den)
    if den < 0:
        g = -g
    elif not den:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    value = object.__new__(Fraction)
    value._numerator = num // g
    value._denominator = den // g
    return value


def _rational(v: Rat) -> Fraction:
    """v as a Fraction, the one gate by which coordinates and coefficients
    enter the math.  A value of type Fraction passes as it is, uncopied:
    a Fraction is immutable, so sharing it is safe.  An int or any other
    `numbers.Rational`, a Fraction subclass included, is exact and is
    converted to a plain Fraction; a float, a string or any other value
    raises TypeError naming it, so no floating point enters silently."""
    if type(v) is Fraction:
        return v
    if type(v) is int or isinstance(v, Rational):
        return Fraction(v)
    raise TypeError(f"{v!r} is not an exact rational: pass an int or a Fraction")


def _integer_point(x: Sequence[Rat]) -> tuple[list[int], int]:
    """x as (k, den): integer numerators k over den, the least common
    denominator of the entries, so that x = k/den.  An int entry is its
    own numerator over 1; no Fraction is built for it."""
    ratios = [
        v.as_integer_ratio() if type(v) is Fraction
        else (v, 1) if type(v) is int
        else _rational(v).as_integer_ratio()
        for v in x
    ]
    den = 1
    for _, q in ratios:
        if den % q:
            den = den * q // gcd(den, q)
    if den == 1:
        return [p for p, _ in ratios], 1
    return [p * (den // q) for p, q in ratios], den


def _same_surface(a: DivisorClass, b: DivisorClass) -> None:
    if a.surface is not b.surface and a.surface != b.surface:
        raise ValueError("divisor classes live on different surfaces")


def projective_plane() -> SurfaceModel:
    """The plane: rank 1, basis H with H^2 = 1, K = -3H."""
    return SurfaceModel(("H",), ((1,),), (-3,), ProjectivePlane())


def hirzebruch(n: int) -> SurfaceModel:
    """F_n: basis (Z, F) with Z^2 = -n, F^2 = 0, Z.F = 1, K = -2Z - (n+2)F."""
    if n < 0:
        raise ValueError("Hirzebruch index must be nonnegative")
    return SurfaceModel(("Z", "F"), ((-n, 1), (1, 0)), (-2, -(n + 2)), Hirzebruch(n))


def blow_up(s: SurfaceModel, exc_label: str, center: str) -> SurfaceModel:
    """Blow up a point: basis gains E (E^2 = -1), K becomes pullback(K) + E."""
    if exc_label in s.basis_labels:
        raise ValueError(f"basis label {exc_label!r} already in use")
    r = s.rank
    matrix = tuple(tuple(row) + (0,) for row in s.intersection_matrix) + (tuple([0] * r) + (-1,),)
    return SurfaceModel(
        s.basis_labels + (exc_label,),
        matrix,
        s.canonical + (1,),
        BlowUp(s, center),
    )


def intersect(a: DivisorClass, b: DivisorClass) -> Fraction:
    """Intersection number a.b, bilinear extension of the lattice pairing:
    ka.M.kb over da.db on the integer forms (k, d) of the two classes and
    the integer matrix M, returned as an exact Fraction."""
    _same_surface(a, b)
    ka, da = a.integer_form
    kb, db = b.integer_form
    total = 0
    for x, row in zip(ka, a.surface.intersection_matrix):
        if x:
            total += x * sum(map(mul, row, kb))
    return Fraction(total, da * db)


def fn_irreducible_admissible(a: int, b: int, n: int) -> bool:
    """Whether aZ + bF on F_n contains an irreducible curve: Z_n itself, the
    fiber F, or a >= 1 with b >= max(n*a, 1)."""
    if (a, b) == (0, 0):
        raise ValueError("zero class")
    if (a, b) in ((1, 0), (0, 1)):
        return True
    return a >= 1 and b >= max(n * a, 1)


def is_ample(s: SurfaceModel, d: DivisorClass):
    """Exact ampleness for the plane and F_n (Kleiman: positive on the
    curves spanning the cone of curves, i.e. on every `nef_cone` normal);
    UNSUPPORTED on blow-ups.

    On blow-up surfaces the Nakai-Moishezon curve list is infinite, so no
    exact answer is attempted here (see angles.aa_outer_blowup).
    """
    if d.surface != s:
        raise ValueError("class does not live on the given surface")
    if isinstance(s.provenance, BlowUp):
        return UNSUPPORTED
    return _is_ample_numerators(s, d.integer_form[0])


def _is_ample_numerators(s: SurfaceModel, k: Sequence[int]) -> bool:
    """Ampleness on the plane or F_n of the class with coefficients k, or of
    any positive multiple of it: k is positive on every nef-cone normal."""
    return all(sum(map(mul, w, k)) > 0 for w in nef_cone(s))


def _is_nef_numerators(s: SurfaceModel, k: Sequence[int]) -> bool:
    """Nefness on the plane or F_n of the class with coefficients k, or of
    any positive multiple of it: k is nonnegative on every nef-cone normal."""
    return all(sum(map(mul, w, k)) >= 0 for w in nef_cone(s))


def nef_cone(s: SurfaceModel) -> tuple[tuple[int, ...], ...]:
    """Normals of the nef cone in basis coordinates, for the plane and F_n
    only: the rows M.c of the curves c spanning the cone of curves, H on the
    plane and F, Z on F_n.  The one encoding of ampleness on these surfaces."""
    prov = s.provenance
    if isinstance(prov, ProjectivePlane):
        return ((1,),)
    if isinstance(prov, Hirzebruch):
        return ((1, 0), (-prov.n, 1))
    raise ValueError("built-in nef cones exist only for the plane and Hirzebruch surfaces")

