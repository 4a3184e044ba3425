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
import random
from fractions import Fraction
from typing import NamedTuple

from .errors import VerificationError


class HermitianFactor(NamedTuple):
    """A classical simple Hermitian Lie algebra, reduced to its bookkeeping
    data: real rank and tube type."""

    name: str
    rank: int
    tube_type: bool


def su(p: int, q: int) -> HermitianFactor:
    if p < q:
        p, q = q, p
    if q < 1:
        raise ValueError("su(p,q) needs p >= q >= 1")
    return HermitianFactor(f"su({p},{q})", rank=q, tube_type=p == q)


def sp(two_n: int) -> HermitianFactor:
    if two_n < 2 or two_n % 2:
        raise ValueError("sp(2n,R) needs an even argument >= 2")
    return HermitianFactor(f"sp({two_n},R)", rank=two_n // 2, tube_type=True)


def so_star(two_n: int) -> HermitianFactor:
    if two_n < 6 or two_n % 2:
        raise ValueError("so*(2n) needs an even argument >= 6")
    n = two_n // 2
    return HermitianFactor(f"so*({two_n})", rank=n // 2, tube_type=n % 2 == 0)


def so2n(n: int) -> HermitianFactor:
    if n < 3:
        raise ValueError("so(2,n) needs n >= 3")
    return HermitianFactor(f"so(2,{n})", rank=2, tube_type=True)


Factors = tuple[HermitianFactor, ...]
Rows = tuple[tuple[int, ...], ...]  # integer numerators, by row


def _reduced(rows, denominator: int) -> tuple[Rows, int]:
    """Integer rows over a positive denominator, divided by their gcd."""
    if denominator < 1:
        raise ValueError(f"denominator {denominator} is not positive")
    g = math.gcd(denominator, *(n for row in rows for n in row))
    return tuple(tuple(n // g for n in row) for row in rows), denominator // g


def _fractions(rows, denominator: int) -> tuple[tuple[Fraction, ...], ...]:
    """The rationals that integer rows over a denominator stand for."""
    return tuple(tuple(Fraction(n, denominator) for n in row) for row in rows)


def _integral(rows) -> tuple[Rows, int]:
    """Rows of ints and Fractions as integer numerators over their least common denominator."""
    rows = [tuple(row) for row in rows]
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows), d


class _KahlerClass(NamedTuple):
    factors: Factors
    numerators: tuple[int, ...]
    denominator: int


class KahlerClass(_KahlerClass):
    """Coefficient ``numerators[i] / denominator`` on factor i's distinguished class."""

    __slots__ = ()

    def __new__(cls, factors: Factors, numerators: tuple[int, ...], denominator: int):
        if len(factors) != len(numerators):
            raise ValueError("one coefficient per factor expected")
        (numerators,), denominator = _reduced((numerators,), denominator)
        return super().__new__(cls, factors, numerators, denominator)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return _fractions((self.numerators,), self.denominator)[0]


def distinguished_class(factors) -> KahlerClass:
    """The class of the product's own Kahler form: all coefficients one."""
    return KahlerClass(tuple(factors), (1,) * len(tuple(factors)), 1)


def norm(cls: KahlerClass) -> Fraction:
    """Coefficient of pi in the norm: sum |mu_i| * rank_i."""
    scaled = sum(abs(n) * f.rank for n, f in zip(cls.numerators, cls.factors))
    return Fraction(scaled, cls.denominator)


def is_positive(cls: KahlerClass) -> bool:
    return all(n >= 0 for n in cls.numerators)


def is_strictly_positive(cls: KahlerClass) -> bool:
    return all(n > 0 for n in cls.numerators)


def is_negative(cls: KahlerClass) -> bool:
    return all(n <= 0 for n in cls.numerators)


class _HomClassMap(NamedTuple):
    source: Factors
    target: Factors
    numerators: Rows
    denominator: int


class HomClassMap(_HomClassMap):
    """Pullback action of a homomorphism on distinguished classes.

    ``numerators[j][i] / denominator`` is the coefficient of the source factor
    j in the pullback of the target factor i's distinguished class.  No column
    gains norm: sum_j |N[j][i]| r_j <= D r_i.
    """

    __slots__ = ()

    def __new__(cls, source: Factors, target: Factors,
                numerators: Rows, denominator: int):
        if len(numerators) != len(source) or any(len(row) != len(target) for row in numerators):
            raise ValueError("matrix shape must be |source| x |target|")
        numerators, denominator = _reduced(numerators, denominator)
        for i, tf in enumerate(target):
            col = sum(abs(row[i]) * sf.rank for row, sf in zip(numerators, source))
            if col > denominator * tf.rank:
                raise ValueError(f"pullback of {tf.name} has norm "
                                 f"{Fraction(col, denominator)} > rank {tf.rank}")
        return super().__new__(cls, source, target, numerators, denominator)

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return _fractions(self.numerators, self.denominator)


def class_map(source, target, matrix) -> HomClassMap:
    return HomClassMap(tuple(source), tuple(target), *_integral(matrix))


def pullback(m: HomClassMap, cls: KahlerClass) -> KahlerClass:
    if cls.factors != m.target:
        raise ValueError("class is not over the map's target")
    numerators = tuple(sum(map(operator.mul, row, cls.numerators)) for row in m.numerators)
    return KahlerClass(m.source, numerators, m.denominator * cls.denominator)


def _pulled_distinguished(m: HomClassMap) -> KahlerClass:
    """Pullback of the target's distinguished class: the row sums."""
    return KahlerClass(m.source, tuple(map(sum, m.numerators)), m.denominator)


def _pulled_norm(m: HomClassMap) -> int:
    """D norm(pullback(kappa)), kappa the target's distinguished class."""
    return sum(abs(sum(row)) * f.rank for row, f in zip(m.numerators, m.source))


def is_tight(m: HomClassMap) -> bool:
    return _pulled_norm(m) == m.denominator * sum(f.rank for f in m.target)


def is_positive_map(m: HomClassMap) -> bool:
    return is_positive(_pulled_distinguished(m))


def is_negative_map(m: HomClassMap) -> bool:
    return is_negative(_pulled_distinguished(m))


def is_strictly_positive_map(m: HomClassMap) -> bool:
    return is_strictly_positive(_pulled_distinguished(m))


def compose(f: HomClassMap, h: HomClassMap) -> HomClassMap:
    """Pullback matrix of h o f (so classes flow target-to-source)."""
    if f.target != h.source:
        raise ValueError("target of f must be the source of h")
    columns = [[row[i] for row in h.numerators] for i in range(len(h.target))]
    numerators = tuple(tuple(sum(map(operator.mul, row, col)) for col in columns)
                       for row in f.numerators)
    composite = HomClassMap(f.source, h.target, numerators, f.denominator * h.denominator)
    if _pulled_norm(composite) > composite.denominator * sum(tf.rank for tf in h.target):
        raise VerificationError("composition gained norm on the distinguished class")
    return composite


def projection_leg(m: HomClassMap, i: int) -> HomClassMap:
    """The i-th coordinate map of a map into a product."""
    return HomClassMap(m.source, (m.target[i],), tuple((row[i],) for row in m.numerators),
                       m.denominator)


# -- lemma fixtures -----------------------------------------------------------
# Seeded random rational maps that check the composition lemmas as exact
# statements; they back `verify kahler-lemmas` and the test suite.  Columns
# are built as (numerators, denominator) pairs.


def _random_factor(rng: random.Random) -> HermitianFactor:
    choice = rng.randrange(4)
    if choice == 0:
        q = rng.randint(1, 3)
        return su(q + rng.randint(0, 2), q)
    if choice == 1:
        return sp(2 * rng.randint(1, 4))
    if choice == 2:
        return so_star(2 * rng.randint(3, 6))
    return so2n(rng.randint(3, 7))


def _random_weights(rng: random.Random, factors: Factors, top: int) -> tuple[list[int], int]:
    """One a/b per factor, 1 <= a, b <= top <= 9, as numerators over
    2520 = lcm(1, ..., 9) (a drawn before b); and their rank sum."""
    scaled = [rng.randint(1, top) * (2520 // rng.randint(1, top)) for _ in factors]
    return scaled, sum(x * f.rank for x, f in zip(scaled, factors))


def _random_leg(rng: random.Random, source: Factors, target: HermitianFactor, tight: bool,
                sign: int = 0) -> tuple[tuple[int, ...], int]:
    """Column of pullback coefficients with, or strictly below, full norm;
    every entry has the given sign, or a random one when ``sign`` is 0."""
    raw, total = _random_weights(rng, source, 9)
    signs = [sign or rng.choice((1, -1)) for _ in source]
    u, v = (1, 1) if tight else (rng.randint(1, 3), 4)  # the share of the budget spent
    return tuple(s * r * target.rank * u for s, r in zip(signs, raw)), v * total


def _from_columns(columns) -> tuple[Rows, int]:
    """Matrix numerators over one denominator from (numerators, denominator) columns."""
    d = math.lcm(*(cd for _, cd in columns))
    return tuple(zip(*([n * (d // cd) for n in col] for col, cd in columns))), d


def middle_factor_fixture(seed: int, tight_f: bool, tight_h: bool) -> dict:
    """One f: G1 -> G2, h: G2 -> G3 fixture with G2 simple.

    Checks that the composite is tight iff both legs are: the tight leg
    h is built with the forced coefficient +-r3/r2.
    """
    rng = random.Random(seed)
    source = tuple(_random_factor(rng) for _ in range(rng.randint(1, 3)))
    middle = _random_factor(rng)
    target = _random_factor(rng)
    f = HomClassMap(source, (middle,), *_from_columns([_random_leg(rng, source, middle, tight_f)]))
    sign = rng.choice((1, -1))
    u, v = (1, 1) if tight_h else (rng.randint(1, 3), 4)
    h = HomClassMap((middle,), (target,), ((sign * target.rank * u,),), middle.rank * v)
    f_tight, h_tight, composite_tight = is_tight(f), is_tight(h), is_tight(compose(f, h))
    return {
        "lemma": "middle-factor",
        "tight_f": f_tight,
        "tight_h": h_tight,
        "tight_composite": composite_tight,
        "ok": composite_tight == (f_tight and h_tight),
    }


def product_target_fixture(seed: int, signs: tuple[int, ...]) -> dict:
    """Map into a product: tight iff all legs tight and uniformly signed."""
    rng = random.Random(seed)
    source = tuple(_random_factor(rng) for _ in range(rng.randint(1, 2)))
    target = tuple(_random_factor(rng) for _ in signs)
    # uniform sign within each column, so every projection is positive or
    # negative as a map; the cross-factor sign pattern is what varies
    columns = [_random_leg(rng, source, tf, tight=True, sign=s) for s, tf in zip(signs, target)]
    m = HomClassMap(source, target, *_from_columns(columns))
    legs = [projection_leg(m, i) for i in range(len(target))]
    legs_tight = all(is_tight(leg) for leg in legs)
    uniform = (all(is_positive_map(leg) for leg in legs)
               or all(is_negative_map(leg) for leg in legs))
    tight = is_tight(m)
    return {
        "lemma": "product-target",
        "signs": signs,
        "tight": tight,
        "legs_tight": legs_tight,
        "uniform": uniform,
        "ok": tight == (legs_tight and uniform),
    }


def strict_positive_fixture(seed: int) -> dict:
    """Nontight f followed by strictly positive h stays nontight.

    Also reproduces the strict inequality chain
    sum lambda_i |mu_ij| r_j < sum lambda_i r_i <= r_L exactly.
    """
    rng = random.Random(seed)
    source = tuple(_random_factor(rng) for _ in range(rng.randint(1, 3)))
    middle = tuple(_random_factor(rng) for _ in range(rng.randint(1, 3)))
    target = _random_factor(rng)
    # f nontight: at least one strictly slack column
    slack_at = rng.randrange(len(middle))
    f = HomClassMap(source, middle, *_from_columns(
        [_random_leg(rng, source, mf, tight=i != slack_at) for i, mf in enumerate(middle)]))
    # h strictly positive, scaled into the target budget
    lam, total = _random_weights(rng, middle, 5)
    h = HomClassMap(middle, (target,), tuple((x * target.rank,) for x in lam), total)
    composite = compose(f, h)
    # the chain, as (numerator, denominator) pairs, is the norm of the pulled-back
    # distinguished class along h o f, along h o |f| and along h, and r_L
    absolute = HomClassMap(source, middle, tuple(tuple(map(abs, row)) for row in f.numerators),
                           f.denominator)
    chain = [(_pulled_norm(m), m.denominator) for m in (composite, compose(absolute, h), h)]
    chain.append((target.rank, 1))
    (a, b), (c, d), (e, g), (r, _) = chain
    chain_ok = a * d <= c * b and c * g < e * d and e <= r * g
    composite_nontight = not is_tight(composite)
    return {
        "lemma": "strict-positive",
        "f_nontight": not is_tight(f),
        "h_strictly_positive": is_strictly_positive_map(h),
        "composite_nontight": composite_nontight,
        "chain": [str(Fraction(n, den)) for n, den in chain],
        "ok": chain_ok and composite_nontight,
    }


def run_lemma_fixtures(seed: int = 7, count: int = 25) -> list[dict]:
    """All lemma fixtures; every entry must come back with ok=True."""
    results = []
    for i in range(count):
        for tf in (True, False):
            for th in (True, False):
                results.append(middle_factor_fixture(seed + 101 * i + 7 * tf + th, tf, th))
        for signs in ((1,), (1, 1), (1, -1), (-1, -1), (1, 1, 1), (1, -1, 1)):
            results.append(product_target_fixture(seed + 211 * i, signs))
        results.append(strict_positive_fixture(seed + 307 * i))
    return results
