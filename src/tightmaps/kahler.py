"""Finite-dimensional bookkeeping for degree-two bounded Kahler classes.

A class over a product of simple Hermitian factors is a rational coefficient
vector in the basis of the factors' distinguished classes; its norm is
sum |mu_i| * rank_i, understood as a multiple of pi (pi stays symbolic so
all arithmetic is exact).  Pullbacks along homomorphisms are linear maps
between these coefficient spaces, constrained column by column to be
norm-nonincreasing; tightness is norm preservation on the distinguished
class.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import floor
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
    return HermitianFactor(f"so*({two_n})", rank=floor(n / 2), tube_type=n % 2 == 0)


def so2n(n: int) -> HermitianFactor:
    if n < 3:
        raise ValueError("so(2,n) needs n >= 3")
    return HermitianFactor(f"so(2,{n})", rank=2, tube_type=True)


Factors = tuple[HermitianFactor, ...]


class _KahlerClass(NamedTuple):
    factors: Factors
    coefficients: tuple[Fraction, ...]


class KahlerClass(_KahlerClass):
    __slots__ = ()

    def __new__(cls, factors: Factors, coefficients: tuple[Fraction, ...]):
        if len(factors) != len(coefficients):
            raise ValueError("one coefficient per factor expected")
        return super().__new__(cls, factors, coefficients)


def kahler_class(factors, coefficients) -> KahlerClass:
    return KahlerClass(tuple(factors), tuple(Fraction(c) for c in coefficients))


def distinguished_class(factors) -> KahlerClass:
    """The class of the product's own Kahler form: all coefficients one."""
    return kahler_class(factors, [1] * len(tuple(factors)))


def norm(cls: KahlerClass) -> Fraction:
    """Coefficient of pi in the norm: sum |mu_i| * rank_i."""
    return sum(
        (abs(c) * f.rank for c, f in zip(cls.coefficients, cls.factors)),
        Fraction(0),
    )


def is_positive(cls: KahlerClass) -> bool:
    return all(c >= 0 for c in cls.coefficients)


def is_strictly_positive(cls: KahlerClass) -> bool:
    return all(c > 0 for c in cls.coefficients)


def is_negative(cls: KahlerClass) -> bool:
    return all(c <= 0 for c in cls.coefficients)


class _HomClassMap(NamedTuple):
    source: Factors
    target: Factors
    matrix: tuple[tuple[Fraction, ...], ...]


class HomClassMap(_HomClassMap):
    """Pullback action of a homomorphism on distinguished classes.

    ``matrix[j][i]`` is the coefficient of the source factor j in the
    pullback of the target factor i's distinguished class.  Each column is
    required to be norm-nonincreasing (the pullback of a single
    distinguished class never gains norm).
    """

    __slots__ = ()

    def __new__(cls, source: Factors, target: Factors,
                matrix: tuple[tuple[Fraction, ...], ...]):
        if len(matrix) != len(source) or any(len(row) != len(target) for row in matrix):
            raise ValueError("matrix shape must be |source| x |target|")
        for i, tf in enumerate(target):
            col = sum((abs(matrix[j][i]) * sf.rank for j, sf in enumerate(source)),
                      Fraction(0))
            if col > tf.rank:
                raise ValueError(f"pullback of {tf.name} has norm {col} > rank {tf.rank}")
        return super().__new__(cls, source, target, matrix)


def class_map(source, target, matrix) -> HomClassMap:
    return HomClassMap(
        tuple(source),
        tuple(target),
        tuple(tuple(Fraction(x) for x in row) for row in matrix),
    )


def pullback(m: HomClassMap, cls: KahlerClass) -> KahlerClass:
    if cls.factors != m.target:
        raise ValueError("class is not over the map's target")
    coeffs = tuple(
        sum((m.matrix[j][i] * cls.coefficients[i] for i in range(len(m.target))),
            Fraction(0))
        for j in range(len(m.source))
    )
    return KahlerClass(m.source, coeffs)


def is_tight(m: HomClassMap) -> bool:
    kappa = distinguished_class(m.target)
    return norm(pullback(m, kappa)) == norm(kappa)


def is_positive_map(m: HomClassMap) -> bool:
    return is_positive(pullback(m, distinguished_class(m.target)))


def is_negative_map(m: HomClassMap) -> bool:
    return is_negative(pullback(m, distinguished_class(m.target)))


def is_strictly_positive_map(m: HomClassMap) -> bool:
    return is_strictly_positive(pullback(m, distinguished_class(m.target)))


def compose(f: HomClassMap, h: HomClassMap) -> HomClassMap:
    """Pullback matrix of h o f (so classes flow target-to-source)."""
    if f.target != h.source:
        raise ValueError("target of f must be the source of h")
    rows = len(f.source)
    mids = len(f.target)
    cols = len(h.target)
    matrix = tuple(
        tuple(
            sum(
                (f.matrix[j][m] * h.matrix[m][i] for m in range(mids)),
                Fraction(0),
            )
            for i in range(cols)
        )
        for j in range(rows)
    )
    composite = HomClassMap(f.source, h.target, matrix)
    kappa = distinguished_class(h.target)
    if norm(pullback(composite, kappa)) > norm(kappa):
        raise VerificationError("composition gained norm on the distinguished class")
    return composite


def projection_leg(m: HomClassMap, i: int) -> HomClassMap:
    """The i-th coordinate map of a map into a product."""
    return HomClassMap(
        m.source,
        (m.target[i],),
        tuple((row[i],) for row in m.matrix),
    )


# ---------------------------------------------------------------------------
# Lemma fixtures.  These generate randomized (seeded) rational maps and
# check the composition lemmas as exact statements; they back the
# `verify kahler-lemmas` command and the test suite.
# ---------------------------------------------------------------------------


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


def _random_leg(
    rng: random.Random,
    source: Factors,
    target: HermitianFactor,
    tight: bool,
    signed: bool = True,
) -> tuple[Fraction, ...]:
    """Column of pullback coefficients with, or strictly below, full norm."""
    raw = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in source]
    signs = [rng.choice((1, -1)) if signed else 1 for _ in source]
    total = sum(r * f.rank for r, f in zip(raw, source))
    budget = Fraction(target.rank) if tight else Fraction(target.rank) * Fraction(
        rng.randint(1, 3), 4
    )
    scale = budget / total
    return tuple(s * r * scale for s, r, _ in zip(signs, raw, source))


def middle_factor_fixture(seed: int, tight_f: bool, tight_h: bool) -> dict:
    """One f: G1 -> G2, h: G2 -> G3 fixture with G2 simple.

    Checks that the composite is tight iff both legs are: the tight leg
    h is built with the forced coefficient +-r3/r2.
    """
    rng = random.Random(seed)
    source = tuple(_random_factor(rng) for _ in range(rng.randint(1, 3)))
    middle = _random_factor(rng)
    target = _random_factor(rng)
    f = HomClassMap(
        source, (middle,), tuple((c,) for c in _random_leg(rng, source, middle, tight_f))
    )
    if tight_h:
        coeff = rng.choice((1, -1)) * Fraction(target.rank, middle.rank)
    else:
        coeff = rng.choice((1, -1)) * Fraction(target.rank, middle.rank) * Fraction(
            rng.randint(1, 3), 4
        )
    h = HomClassMap((middle,), (target,), ((coeff,),))
    composite = compose(f, h)
    return {
        "lemma": "middle-factor",
        "tight_f": is_tight(f),
        "tight_h": is_tight(h),
        "tight_composite": is_tight(composite),
        "ok": is_tight(composite) == (is_tight(f) and is_tight(h)),
    }


def product_target_fixture(seed: int, signs: tuple[int, ...]) -> dict:
    """Map into a product: tight iff all legs tight and uniformly signed."""
    rng = random.Random(seed)
    source = tuple(_random_factor(rng) for _ in range(rng.randint(1, 2)))
    target = tuple(_random_factor(rng) for _ in signs)
    # uniform sign within each column, so every projection is positive or
    # negative as a map; the cross-factor sign pattern is what varies
    columns = [
        tuple(s * c for c in _random_leg(rng, source, tf, tight=True, signed=False))
        for s, tf in zip(signs, target)
    ]
    matrix = tuple(
        tuple(columns[i][j] for i in range(len(target)))
        for j in range(len(source))
    )
    m = HomClassMap(source, target, matrix)
    legs = [projection_leg(m, i) for i in range(len(target))]
    legs_tight = all(is_tight(leg) for leg in legs)
    uniform = all(is_positive_map(leg) for leg in legs) or all(
        is_negative_map(leg) for leg in legs
    )
    expected = legs_tight and uniform
    return {
        "lemma": "product-target",
        "signs": signs,
        "tight": is_tight(m),
        "legs_tight": legs_tight,
        "uniform": uniform,
        "ok": is_tight(m) == expected,
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
    cols = []
    slack_at = rng.randrange(len(middle))
    for i, mf in enumerate(middle):
        cols.append(_random_leg(rng, source, mf, tight=i != slack_at))
    f = HomClassMap(
        source,
        middle,
        tuple(tuple(cols[i][j] for i in range(len(middle))) for j in range(len(source))),
    )
    # h strictly positive, scaled into the target budget
    lam = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in middle]
    total = sum(l * mf.rank for l, mf in zip(lam, middle))
    lam = [l * Fraction(target.rank) / total for l in lam]
    h = HomClassMap(middle, (target,), tuple((l,) for l in lam))
    composite = compose(f, h)

    middle_sum = sum(
        (
            lam[i] * sum(abs(f.matrix[j][i]) * sf.rank for j, sf in enumerate(source))
            for i in range(len(middle))
        ),
        Fraction(0),
    )
    lam_sum = sum((l * mf.rank for l, mf in zip(lam, middle)), Fraction(0))
    chain_ok = (
        norm(pullback(composite, distinguished_class((target,)))) <= middle_sum
        and middle_sum < lam_sum
        and lam_sum <= target.rank
    )
    return {
        "lemma": "strict-positive",
        "f_nontight": not is_tight(f),
        "h_strictly_positive": is_strictly_positive_map(h),
        "composite_nontight": not is_tight(composite),
        "chain": [
            str(norm(pullback(composite, distinguished_class((target,))))),
            str(middle_sum),
            str(lam_sum),
            str(Fraction(target.rank)),
        ],
        "ok": chain_ok and not is_tight(composite),
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
