"""Bounded-class bookkeeping: norms, positivity, composition lemmas.

The Fraction implementation that ``kahler`` replaced with integer numerators
over one denominator is kept here as the oracle.
"""

import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from tightmaps import kahler, lemmas
from tightmaps.errors import VerificationError
from tightmaps.kahler import (
    HermitianFactor,
    HomClassMap,
    class_map,
    compose,
    distinguished_class,
    is_negative,
    is_negative_map,
    is_positive,
    is_positive_map,
    is_strictly_positive,
    is_strictly_positive_map,
    is_tight,
    norm,
    projection_leg,
    pullback,
    run_lemma_fixtures,
    so2n,
    so_star,
    sp,
    su,
)
from tightmaps.lemmas import (
    _random_leg,
    middle_factor_fixture,
    product_target_fixture,
    strict_positive_fixture,
)

F = Fraction


def kahler_class(factors, coefficients) -> kahler.KahlerClass:
    """The class with these int or Fraction coefficients, over their common denominator."""
    (numerators,), d = kahler._integral([coefficients])
    return kahler.KahlerClass(tuple(factors), numerators, d)


# -- the Fraction oracle -------------------------------------------------------
# Classes are coefficient tuples over a tuple of factors, maps are
# (source, target, matrix) triples of Fractions; the arithmetic and the
# fixtures are those of the Fraction implementation, draw for draw.


class OracleMap(NamedTuple):
    source: tuple
    target: tuple
    matrix: tuple


def oracle_map(source, target, matrix) -> OracleMap:
    matrix = tuple(tuple(F(x) for x in row) for row in matrix)
    if len(matrix) != len(source) or any(len(row) != len(target) for row in matrix):
        raise ValueError("matrix shape must be |source| x |target|")
    for i, tf in enumerate(target):
        col = sum((abs(matrix[j][i]) * sf.rank for j, sf in enumerate(source)), F(0))
        if col > tf.rank:
            raise ValueError(f"pullback of {tf.name} has norm {col} > rank {tf.rank}")
    return OracleMap(tuple(source), tuple(target), matrix)


def oracle_norm(factors, coefficients) -> Fraction:
    return sum((abs(c) * f.rank for c, f in zip(coefficients, factors)), F(0))


def oracle_pullback(m: OracleMap, coefficients) -> tuple:
    return tuple(
        sum((m.matrix[j][i] * coefficients[i] for i in range(len(m.target))), F(0))
        for j in range(len(m.source))
    )


def oracle_kappa(m: OracleMap) -> tuple:
    """Pullback of the target's distinguished class."""
    return oracle_pullback(m, (F(1),) * len(m.target))


def oracle_is_tight(m: OracleMap) -> bool:
    return oracle_norm(m.source, oracle_kappa(m)) == oracle_norm(m.target, [1] * len(m.target))


def oracle_compose(f: OracleMap, h: OracleMap) -> OracleMap:
    if f.target != h.source:
        raise ValueError("target of f must be the source of h")
    matrix = tuple(
        tuple(
            sum((f.matrix[j][m] * h.matrix[m][i] for m in range(len(f.target))), F(0))
            for i in range(len(h.target))
        )
        for j in range(len(f.source))
    )
    composite = oracle_map(f.source, h.target, matrix)
    pulled = oracle_norm(composite.source, oracle_kappa(composite))
    if pulled > oracle_norm(h.target, [1] * len(h.target)):
        raise VerificationError("composition gained norm on the distinguished class")
    return composite


def oracle_projection_leg(m: OracleMap, i: int) -> OracleMap:
    return oracle_map(m.source, (m.target[i],), tuple((row[i],) for row in m.matrix))


def oracle_random_factor(rng: random.Random) -> HermitianFactor:
    choice = rng.randrange(4)
    if choice == 0:
        q = rng.randint(1, 3)
        return su(q + rng.randint(0, 2), q)
    if choice == 1:
        return sp(2 * rng.randint(1, 4))
    if choice == 2:
        return so_star(2 * rng.randint(3, 6))
    return so2n(rng.randint(3, 7))


def oracle_random_leg(rng, source, target, tight, signed=True) -> tuple:
    raw = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in source]
    signs = [rng.choice((1, -1)) if signed else 1 for _ in source]
    total = sum(r * f.rank for r, f in zip(raw, source))
    budget = F(target.rank) if tight else F(target.rank) * F(rng.randint(1, 3), 4)
    scale = budget / total
    return tuple(s * r * scale for s, r, _ in zip(signs, raw, source))


def oracle_middle_factor_fixture(seed: int, tight_f: bool, tight_h: bool) -> dict:
    rng = random.Random(seed)
    source = tuple(oracle_random_factor(rng) for _ in range(rng.randint(1, 3)))
    middle = oracle_random_factor(rng)
    target = oracle_random_factor(rng)
    f = oracle_map(
        source, (middle,),
        tuple((c,) for c in oracle_random_leg(rng, source, middle, tight_f)),
    )
    if tight_h:
        coeff = rng.choice((1, -1)) * F(target.rank, middle.rank)
    else:
        coeff = rng.choice((1, -1)) * F(target.rank, middle.rank) * F(rng.randint(1, 3), 4)
    h = oracle_map((middle,), (target,), ((coeff,),))
    composite = oracle_compose(f, h)
    return {
        "lemma": "middle-factor",
        "tight_f": oracle_is_tight(f),
        "tight_h": oracle_is_tight(h),
        "tight_composite": oracle_is_tight(composite),
        "ok": oracle_is_tight(composite) == (oracle_is_tight(f) and oracle_is_tight(h)),
    }


def oracle_product_target_fixture(seed: int, signs: tuple) -> dict:
    rng = random.Random(seed)
    source = tuple(oracle_random_factor(rng) for _ in range(rng.randint(1, 2)))
    target = tuple(oracle_random_factor(rng) for _ in signs)
    columns = [
        tuple(s * c for c in oracle_random_leg(rng, source, tf, tight=True, signed=False))
        for s, tf in zip(signs, target)
    ]
    matrix = tuple(
        tuple(columns[i][j] for i in range(len(target))) for j in range(len(source))
    )
    m = oracle_map(source, target, matrix)
    legs = [oracle_projection_leg(m, i) for i in range(len(target))]
    legs_tight = all(oracle_is_tight(leg) for leg in legs)
    uniform = all(all(c >= 0 for c in oracle_kappa(leg)) for leg in legs) or all(
        all(c <= 0 for c in oracle_kappa(leg)) for leg in legs
    )
    return {
        "lemma": "product-target",
        "signs": signs,
        "tight": oracle_is_tight(m),
        "legs_tight": legs_tight,
        "uniform": uniform,
        "ok": oracle_is_tight(m) == (legs_tight and uniform),
    }


def oracle_strict_positive_fixture(seed: int) -> dict:
    rng = random.Random(seed)
    source = tuple(oracle_random_factor(rng) for _ in range(rng.randint(1, 3)))
    middle = tuple(oracle_random_factor(rng) for _ in range(rng.randint(1, 3)))
    target = oracle_random_factor(rng)
    slack_at = rng.randrange(len(middle))
    cols = [
        oracle_random_leg(rng, source, mf, tight=i != slack_at) for i, mf in enumerate(middle)
    ]
    f = oracle_map(
        source,
        middle,
        tuple(tuple(cols[i][j] for i in range(len(middle))) for j in range(len(source))),
    )
    lam = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in middle]
    total = sum(l * mf.rank for l, mf in zip(lam, middle))
    lam = [l * F(target.rank) / total for l in lam]
    h = oracle_map(middle, (target,), tuple((l,) for l in lam))
    composite = oracle_compose(f, h)
    pulled = oracle_norm(composite.source, oracle_kappa(composite))
    middle_sum = sum(
        (
            lam[i] * sum(abs(f.matrix[j][i]) * sf.rank for j, sf in enumerate(source))
            for i in range(len(middle))
        ),
        F(0),
    )
    lam_sum = sum((l * mf.rank for l, mf in zip(lam, middle)), F(0))
    chain_ok = pulled <= middle_sum and middle_sum < lam_sum and lam_sum <= target.rank
    return {
        "lemma": "strict-positive",
        "f_nontight": not oracle_is_tight(f),
        "h_strictly_positive": all(c > 0 for c in oracle_kappa(h)),
        "composite_nontight": not oracle_is_tight(composite),
        "chain": [str(pulled), str(middle_sum), str(lam_sum), str(F(target.rank))],
        "ok": chain_ok and not oracle_is_tight(composite),
    }


def oracle_run_lemma_fixtures(seed: int, count: int) -> list:
    results = []
    for i in range(count):
        for tf in (True, False):
            for th in (True, False):
                results.append(
                    oracle_middle_factor_fixture(seed + 101 * i + 7 * tf + th, tf, th)
                )
        for signs in ((1,), (1, 1), (1, -1), (-1, -1), (1, 1, 1), (1, -1, 1)):
            results.append(oracle_product_target_fixture(seed + 211 * i, signs))
        results.append(oracle_strict_positive_fixture(seed + 307 * i))
    return results


def random_rational_map(rng: random.Random, source, target) -> list:
    """Rows of a map whose columns spend a random share (0, 1/4, ..., 1) of
    their budget; all entries are nonnegative or of random signs."""
    signed = rng.random() < 0.5
    columns = []
    for tf in target:
        raw = [F(rng.randint(-9 * signed, 9), rng.randint(1, 9)) for _ in source]
        total = oracle_norm(source, raw)
        share = F(rng.randint(0, 4), 4) * tf.rank
        columns.append([x * share / total if total else x for x in raw])
    return [[col[j] for col in columns] for j in range(len(source))]


def random_factors(rng: random.Random, most: int) -> tuple:
    return tuple(oracle_random_factor(rng) for _ in range(rng.randint(1, most)))


def test_rank_and_tube_tables():
    assert su(2, 2).rank == 2 and su(2, 2).tube_type
    assert su(3, 2).rank == 2 and not su(3, 2).tube_type
    assert sp(8).rank == 4 and sp(8).tube_type
    assert so_star(10).rank == 2 and not so_star(10).tube_type
    assert so_star(12).rank == 3 and so_star(12).tube_type
    assert so2n(7).rank == 2 and so2n(7).tube_type
    # past 2**53 a float quotient would round the rank
    assert so_star(2 * (2**60 + 3)).rank == (2**60 + 3) // 2 == 576460752303423489


def test_family_constructors_reject_bad_parameters():
    with pytest.raises(ValueError):
        su(0, 0)
    with pytest.raises(ValueError):
        sp(5)
    with pytest.raises(ValueError):
        so_star(4)
    with pytest.raises(ValueError):
        so2n(2)


def test_norm_examples():
    assert norm(distinguished_class([su(2, 2)])) == 2
    assert norm(kahler_class([su(1, 1), su(1, 1)], [1, 1])) == 2
    assert norm(kahler_class([su(3, 2)], [0])) == 0
    assert norm(kahler_class([sp(6), su(1, 1)], [F(1, 3), -2])) == 3


def test_positivity_examples():
    c = kahler_class([su(1, 1), su(1, 1)], [1, 0])
    assert is_positive(c) and not is_strictly_positive(c)
    assert is_strictly_positive(kahler_class([su(1, 1), su(1, 1)], [2, 3]))
    mixed = kahler_class([su(1, 1), su(1, 1)], [1, -1])
    assert not is_positive(mixed) and not is_negative(mixed)


def test_is_tight_examples():
    identity = class_map([su(1, 1)], [su(1, 1)], [[1]])
    assert is_tight(identity)
    assert not is_tight(class_map([su(1, 1)], [su(1, 1)], [[F(1, 2)]]))
    # simple middle factor with the forced coefficient r3/r2
    forced = class_map([su(2, 2)], [sp(6)], [[F(3, 2)]])
    assert is_tight(forced)
    assert is_tight(class_map([su(2, 2)], [sp(6)], [[F(-3, 2)]]))


def test_norm_gaining_maps_rejected():
    with pytest.raises(ValueError):
        class_map([su(1, 1)], [su(1, 1)], [[2]])
    with pytest.raises(ValueError):
        class_map([su(2, 2)], [su(1, 1)], [[1]])


def test_pullback_linearity():
    m = class_map([su(1, 1)], [su(1, 1), su(2, 2)], [[F(1, 3), F(1, 4)]])
    a = kahler_class([su(1, 1), su(2, 2)], [2, 0])
    b = kahler_class([su(1, 1), su(2, 2)], [0, 2])
    ab = kahler_class([su(1, 1), su(2, 2)], [2, 2])
    assert (
        pullback(m, ab).coefficients[0]
        == pullback(m, a).coefficients[0] + pullback(m, b).coefficients[0]
    )


def test_compose_matrix_product_and_identity():
    ident = class_map([su(1, 1)], [su(1, 1)], [[1]])
    assert compose(ident, ident).matrix == ((F(1),),)
    f = class_map([su(1, 1)], [su(2, 2)], [[2]])
    h = class_map([su(2, 2)], [sp(6)], [[F(3, 2)]])
    composite = compose(f, h)
    assert composite.matrix == ((F(3),),)
    assert is_tight(composite)


def test_compose_shape_mismatch():
    f = class_map([su(1, 1)], [su(2, 2)], [[2]])
    with pytest.raises(ValueError):
        compose(f, f)


def test_tight_composition_with_positive_leg():
    f = class_map([su(1, 1)], [su(2, 2)], [[2]])  # tight
    h = class_map([su(2, 2)], [sp(6)], [[F(3, 2)]])  # tight and positive
    assert is_tight(f) and is_tight(h) and is_positive_map(h)
    assert is_tight(compose(f, h))


def test_nontight_then_strictly_positive_is_nontight():
    f = class_map([su(1, 1)], [su(2, 2)], [[1]])  # nontight: norm 1 < 2
    h = class_map([su(2, 2)], [sp(6)], [[F(3, 2)]])  # strictly positive
    assert not is_tight(compose(f, h))


def test_middle_factor_fixture_covers_both_directions():
    for seed in range(40):
        for tf in (True, False):
            for th in (True, False):
                result = middle_factor_fixture(1000 + seed, tf, th)
                assert result["ok"]
                assert result["tight_f"] == tf
                assert result["tight_h"] == th


def test_product_target_fixture_sign_patterns():
    for seed in range(30):
        for signs in ((1,), (1, 1), (1, -1), (-1, -1), (1, 1, 1), (1, -1, 1)):
            result = product_target_fixture(2000 + seed, signs)
            assert result["ok"]
            uniform = len(set(signs)) == 1
            assert result["tight"] == uniform


def test_strict_positive_fixture_chain():
    for seed in range(40):
        result = strict_positive_fixture(3000 + seed)
        assert result["ok"]
        assert result["f_nontight"] and result["h_strictly_positive"]
        assert result["composite_nontight"]
        chain = [Fraction(x) for x in result["chain"]]
        assert chain[0] <= chain[1] < chain[2] <= chain[3]


def test_run_lemma_fixtures_all_pass():
    results = run_lemma_fixtures()
    assert results and all(r["ok"] for r in results)


@pytest.mark.parametrize("seed", [7, 1, 99, 1234, 2026])
def test_lemma_fixtures_match_the_fraction_oracle(seed):
    results = run_lemma_fixtures(seed, 60)
    assert results == oracle_run_lemma_fixtures(seed, 60)
    assert all(r["ok"] for r in results)


def test_map_arithmetic_matches_the_fraction_oracle():
    rng = random.Random(20261018)
    tight_seen = set()
    for _ in range(300):
        source, middle, target = (random_factors(rng, 3) for _ in range(3))
        f_rows = random_rational_map(rng, source, middle)
        h_rows = random_rational_map(rng, middle, target)
        f, h = class_map(source, middle, f_rows), class_map(middle, target, h_rows)
        of, oh = oracle_map(source, middle, f_rows), oracle_map(middle, target, h_rows)
        assert f.matrix == of.matrix and h.matrix == oh.matrix
        assert class_map(source, middle, f.matrix) == f
        for m, om in ((f, of), (h, oh)):
            assert is_tight(m) == oracle_is_tight(om)
            kappa = oracle_kappa(om)
            assert is_positive_map(m) == all(c >= 0 for c in kappa)
            assert is_negative_map(m) == all(c <= 0 for c in kappa)
            assert is_strictly_positive_map(m) == all(c > 0 for c in kappa)
            tight_seen.add(is_tight(m))
            for i in range(len(m.target)):
                assert projection_leg(m, i).matrix == oracle_projection_leg(om, i).matrix
        assert compose(f, h).matrix == oracle_compose(of, oh).matrix
        assert is_tight(compose(f, h)) == oracle_is_tight(oracle_compose(of, oh))
        coefficients = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in middle]
        pulled = pullback(f, kahler_class(middle, coefficients))
        assert pulled.coefficients == oracle_pullback(of, coefficients)
        assert norm(pulled) == oracle_norm(source, oracle_pullback(of, coefficients))
    assert tight_seen == {True, False}


def test_equal_maps_are_equal_records():
    m = class_map([su(1, 1)], [su(2, 2)], [[F(1, 2)]])
    assert m == HomClassMap((su(1, 1),), (su(2, 2),), ((6,),), 12)
    assert (m.numerators, m.denominator) == (((1,),), 2)
    zero = HomClassMap((su(1, 1),), (su(2, 2),), ((0,),), 7)
    assert (zero.numerators, zero.denominator) == (((0,),), 1)
    assert kahler_class([su(1, 1)], [F(2, 4)]) == kahler.KahlerClass((su(1, 1),), (3,), 6)


def test_planted_faults_in_a_tight_leg_are_caught():
    rng = random.Random(5)
    for _ in range(100):
        source, target = random_factors(rng, 3), oracle_random_factor(rng)
        leg = HomClassMap(source, (target,), *lemmas._from_columns(
            [_random_leg(rng, source, target, tight=True)]))
        assert is_tight(leg)
        j = rng.randrange(len(source))
        n = leg.numerators[j][0]
        step = 1 if n > 0 else -1
        # one numerator moved by 1 towards zero loses norm
        moved = [list(row) for row in leg.numerators]
        moved[j][0] -= step
        assert not is_tight(HomClassMap(source, (target,), moved, leg.denominator))
        # over budget by exactly 1/D, D the denominator the map reduces to
        rank = source[j].rank
        over = [[x * rank for x in row] for row in leg.numerators]
        over[j][0] += step
        with pytest.raises(ValueError, match="norm"):
            HomClassMap(source, (target,), over, leg.denominator * rank)
        over[j][0] -= step
        assert HomClassMap(source, (target,), over, leg.denominator * rank) == leg


def test_integer_paths_build_no_fractions(monkeypatch):
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    rng = random.Random(3)
    maps = []
    for _ in range(40):
        source, middle, target = (random_factors(rng, 3) for _ in range(3))
        maps.append((class_map(source, middle, random_rational_map(rng, source, middle)),
                     class_map(middle, target, random_rational_map(rng, middle, target))))
    monkeypatch.setattr(kahler, "Fraction", CountingFraction)
    monkeypatch.setattr(lemmas, "Fraction", CountingFraction)
    for f, h in maps:
        composite = compose(f, h)
        HomClassMap(f.source, f.target, f.numerators, f.denominator)
        for m in (f, h, composite):
            is_tight(m), is_positive_map(m), is_negative_map(m), is_strictly_positive_map(m)
    for seed in range(20):
        for tf in (True, False):
            for th in (True, False):
                middle_factor_fixture(seed, tf, th)
        for signs in ((1,), (1, -1), (1, -1, 1)):
            product_target_fixture(seed, signs)
    assert made == []
    for seed in range(20):
        strict_positive_fixture(seed)
        assert len(made) <= 4
        made.clear()
    results = run_lemma_fixtures()
    assert len(made) <= 4 * sum(r["lemma"] == "strict-positive" for r in results)
