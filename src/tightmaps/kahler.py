"""Finite-dimensional bookkeeping for degree-two bounded Kahler classes.

A class over a product of simple Hermitian factors is a rational coefficient
vector in the basis of the factors' distinguished classes; its norm is
sum |mu_i| * rank_i, understood as a multiple of pi (pi stays symbolic so
all arithmetic is exact).  Pullbacks along homomorphisms are linear maps
between these coefficient spaces, constrained column by column to be
norm-nonincreasing; tightness is norm preservation on the distinguished
class.  Classes and maps hold integer numerators over one positive
denominator, reduced by their gcd, so equal values are equal records and
every predicate computes in integers; ``coefficients``, ``matrix``, ``norm``
and ``pullback`` derive ``Fraction`` values from them.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .errors import VerificationError, ratio


class HermitianFactor(namedtuple("HermitianFactor", "name rank tube_type")):
    """A classical simple Hermitian Lie algebra, reduced to its bookkeeping
    data: real rank and tube type."""

    __slots__ = ()


def su(p: int, q: int) -> HermitianFactor:
    if type(p) is not int or type(q) is not int or min(p, q) < 1:
        raise ValueError("su(p,q) needs ints p, q >= 1")
    p, q = max(p, q), min(p, q)
    return HermitianFactor(f"su({p},{q})", rank=q, tube_type=p == q)


def sp(two_n: int) -> HermitianFactor:
    if type(two_n) is not int or two_n < 2 or two_n % 2:
        raise ValueError("sp(2n,R) needs an even int >= 2")
    return HermitianFactor(f"sp({two_n},R)", rank=two_n // 2, tube_type=True)


def so_star(two_n: int) -> HermitianFactor:
    if type(two_n) is not int or two_n < 6 or two_n % 2:
        raise ValueError("so*(2n) needs an even int >= 6")
    return HermitianFactor(f"so*({two_n})", rank=two_n // 4, tube_type=two_n % 4 == 0)


def so2n(n: int) -> HermitianFactor:
    if type(n) is not int or n < 3:
        raise ValueError("so(2,n) needs an int n >= 3")
    return HermitianFactor(f"so(2,{n})", rank=2, tube_type=True)


Factors = tuple[HermitianFactor, ...]
Rows = tuple[tuple[int, ...], ...]  # integer numerators, by row


def _reduced(rows, denominator: int, width: int, wrong_shape: str) -> tuple[Rows, int]:
    """Int rows of one width over a positive int denominator (a bool is no
    int), divided by their gcd, which one pass takes as it checks each row."""
    if type(denominator) is not int:
        raise ValueError(f"denominator {denominator!r} is not an int")
    g = denominator
    for row in rows:
        if len(row) != width:
            raise ValueError(wrong_shape)
        if not {int}.issuperset(map(type, row)):
            raise ValueError(f"row {tuple(row)} has an entry that is not an int")
        g = math.gcd(g, *row)
    if denominator < 1:
        raise ValueError(f"denominator {denominator} is not positive")
    return tuple([tuple([n // g for n in row]) for row in rows]), denominator // g


def _fractions(rows, denominator: int) -> tuple[tuple[Fraction, ...], ...]:
    """The rationals that integer rows over a denominator stand for."""
    from fractions import Fraction  # the integer paths never load it

    return tuple(tuple(Fraction(n, denominator) for n in row) for row in rows)


class KahlerClass(namedtuple("_KahlerClass", "factors numerators denominator")):
    """Coefficient ``numerators[i] / denominator`` on factor i's distinguished class."""

    __slots__ = ()

    def __new__(cls, factors: Factors, numerators: tuple[int, ...], denominator: int):
        (numerators,), denominator = _reduced((numerators,), denominator, len(factors),
                                              "one coefficient per factor expected")
        return tuple.__new__(cls, (factors, numerators, denominator))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return _fractions((self.numerators,), self.denominator)[0]


def distinguished_class(factors) -> KahlerClass:
    """The class of the product's own Kahler form: all coefficients one."""
    return KahlerClass(tuple(factors), (1,) * len(tuple(factors)), 1)


def norm(cls: KahlerClass) -> Fraction:
    """Coefficient of pi in the norm: sum |mu_i| * rank_i."""
    from fractions import Fraction

    scaled = sum(abs(n) * f.rank for n, f in zip(cls.numerators, cls.factors))
    return Fraction(scaled, cls.denominator)


def is_positive(cls: KahlerClass) -> bool:
    return all(n >= 0 for n in cls.numerators)


def is_strictly_positive(cls: KahlerClass) -> bool:
    return all(n > 0 for n in cls.numerators)


def is_negative(cls: KahlerClass) -> bool:
    return all(n <= 0 for n in cls.numerators)


class HomClassMap(namedtuple("_HomClassMap", "source target numerators denominator")):
    """Pullback action of a homomorphism on distinguished classes.

    ``numerators[j][i] / denominator`` is the coefficient of the source factor
    j in the pullback of the target factor i's distinguished class.  No column
    gains norm: sum_j |N[j][i]| r_j <= D r_i.
    """

    __slots__ = ()

    def __new__(cls, source: Factors, target: Factors, numerators: Rows, denominator: int):
        shape = "matrix shape must be |source| x |target|"
        if len(numerators) != len(source):
            raise ValueError(shape)
        numerators, denominator = _reduced(numerators, denominator, len(target), shape)
        for i, tf in enumerate(target):
            col = sum([abs(row[i]) * sf.rank for row, sf in zip(numerators, source)])
            if col > denominator * tf.rank:
                raise ValueError(f"pullback of {tf.name} has norm "
                                 f"{ratio(col, denominator)} > rank {tf.rank}")
        return tuple.__new__(cls, (source, target, numerators, denominator))

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return _fractions(self.numerators, self.denominator)


def pullback(m: HomClassMap, cls: KahlerClass) -> KahlerClass:
    if cls.factors != m.target:
        raise ValueError("class is not over the map's target")
    numerators = tuple(sum(map(operator.mul, row, cls.numerators)) for row in m.numerators)
    return KahlerClass(m.source, numerators, m.denominator * cls.denominator)


def _pulled_norm(m: HomClassMap) -> int:
    """D norm(pullback(kappa)), kappa the target's distinguished class."""
    return sum([abs(sum(row)) * f.rank for row, f in zip(m.numerators, m.source)])


def is_tight(m: HomClassMap) -> bool:
    return _pulled_norm(m) == m.denominator * sum([f.rank for f in m.target])


# The map sign tests read the pullback of the target's distinguished class,
# whose coefficients are the row sums over the positive denominator.
def is_positive_map(m: HomClassMap) -> bool:
    return all([sum(row) >= 0 for row in m.numerators])


def is_negative_map(m: HomClassMap) -> bool:
    return all([sum(row) <= 0 for row in m.numerators])


def is_strictly_positive_map(m: HomClassMap) -> bool:
    return all([sum(row) > 0 for row in m.numerators])


def compose(f: HomClassMap, h: HomClassMap) -> HomClassMap:
    """Pullback matrix of h o f (so classes flow target-to-source)."""
    if f.target != h.source:
        raise ValueError("target of f must be the source of h")
    columns = [[row[i] for row in h.numerators] for i in range(len(h.target))]
    numerators = [[sum(map(operator.mul, row, col)) for col in columns] for row in f.numerators]
    composite = HomClassMap(f.source, h.target, numerators, f.denominator * h.denominator)
    if _pulled_norm(composite) > composite.denominator * sum([tf.rank for tf in h.target]):
        raise VerificationError("composition gained norm on the distinguished class")
    return composite


def projection_leg(m: HomClassMap, i: int) -> HomClassMap:
    """The i-th coordinate map of a map into a product."""
    return HomClassMap(m.source, (m.target[i],), [(row[i],) for row in m.numerators], m.denominator)


def run_lemma_fixtures(seed: int = 7, count: int = 25) -> list[dict]:
    """All lemma fixtures; every entry must come back with ok=True."""
    from . import lemmas  # only `verify` runs the seeded fixtures, so only it compiles them

    return lemmas.run_fixtures(seed, count)
