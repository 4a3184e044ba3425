"""The verification batteries that only ``tightmaps verify`` runs.

``kahler-lemmas`` replays the composition lemmas of bounded Kahler class
bookkeeping on seeded random rational maps; ``lemma-bla`` rebuilds the
linear constraint system that rules out a tight su(n,1) -> so*(2p).  Each
battery's report rows are laid out here too, and ``cli.cmd_verify`` wraps
them in the report.  No other command imports this module, so none of
them compiles the fixtures or loads ``random``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import VerificationError
from .kahler import (
    Factors,
    HermitianFactor,
    HomClassMap,
    Rows,
    _pulled_norm,
    compose,
    is_negative_map,
    is_positive_map,
    is_strictly_positive_map,
    is_tight,
    projection_leg,
    so2n,
    so_star,
    sp,
    su,
)


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


def run_fixtures(seed: int, count: int) -> list[dict]:
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


# -- constraint infeasibility for rank-one into so*(2p) -----------------------


class LemmaReduction(ValueError):
    """The requested parameter is handled by a reduction, not the system."""


def verify_su_n1_to_sostar(p: int) -> dict:
    """Reconstruct the linear constraint system ruling out su(n,1) -> so*(2p).

    For odd p >= 5: a tight map would branch over a maximal tube subalgebra
    so*(2(p-1)) inside su(p-1,p-1) as k*(1,0) + (n-k)*(0,1) + l*(0,0)
    pieces; tightness forces the degree-one multiplicity n = p - 1 while
    the dimension count gives 3n + l = 2p.  Together: p - 3 + l = 0, which
    contradicts l >= 0.  The verdict is a search of the line 3n + l = 2p,
    n from 0 to floor(2p/3) so that l >= 0, for the point with n = p - 1.
    """
    if p % 2 == 0:
        raise LemmaReduction(
            f"p={p} is even: the target includes tightly into so*({2 * (p + 1)}), "
            "so the question reduces to odd p"
        )
    if p == 3:
        raise LemmaReduction(
            "so*(6) is isomorphic to su(3,1); rank-one targets are handled "
            "by the unitary classification"
        )
    if p < 3:
        raise LemmaReduction(f"so*({2 * p}) is outside the Hermitian range")
    line = range(2 * p // 3 + 1)  # the n with l = 2p - 3n >= 0
    candidates, feasible = len(line), any(n == p - 1 for n in line)
    if not candidates:
        raise VerificationError(f"p={p}: the search examined no candidate (n, l)")
    n = p - 1  # tightness pins the degree-one multiplicity
    return {
        "p": p,
        "n": n,
        "l": 2 * p - 3 * n,  # dimension count 3n + l = 2p
        "constraints": ["n = p - 1", "3n + l = 2p", "l >= 0"],
        "residual": "p - 3 + l = 0",
        "candidates": candidates,
        "infeasible": not feasible,
    }


# -- report rows --------------------------------------------------------------


def kahler_lemma_rows(results: list[dict]) -> tuple[list[dict], bool]:
    """One ``verify kahler-lemmas`` row per lemma, and whether every fixture
    passed and every lemma checked a case."""
    rows = []
    for lemma in ("middle-factor", "product-target", "strict-positive"):
        cases = [r for r in results if r["lemma"] == lemma]
        passed = sum(1 for r in cases if r["ok"])
        rows.append({"lemma": lemma, "cases": len(cases), "passed": passed})
    # a lemma with no cases checked nothing, so it fails
    return rows, all(r["ok"] for r in results) and all(row["cases"] for row in rows)


def lemma_bla_rows(lo: int, hi: int) -> tuple[list[dict], bool]:
    """One ``verify lemma-bla`` row per p in lo..hi, and whether no p was feasible."""
    rows = []
    failed = False
    for p in range(lo, hi + 1):
        try:
            result = verify_su_n1_to_sostar(p)
        except LemmaReduction as reduction:
            rows.append({"p": p, "status": "reduced", "reason": str(reduction)})
            continue
        failed = failed or not result["infeasible"]
        rows.append({
            "p": p,
            "status": "infeasible" if result["infeasible"] else "feasible",
            "n": result["n"],
            "l": result["l"],
            "residual": result["residual"],
        })
    return rows, not failed
