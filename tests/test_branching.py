"""Regular subalgebras, restriction, string peeling, even witnesses."""

import itertools
import operator
import re
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_rootsys import _full_support_oracle

import tightmaps.branching
import tightmaps.rootsys
from tightmaps.branching import (
    _WITNESS_STEPS,
    BranchingResult,
    SubalgebraError,
    _failure,
    _root_name,
    _same_length_simple,
    _span_roots,
    evaluation_multiset,
    even_witness,
    make_subalgebra,
    parse_subalgebra_selector,
    restrict_rep,
    selector_of,
)
from tightmaps.errors import VerificationError
from tightmaps.rootsys import (
    WeightVector,
    _orbit,
    _weyl_numerator,
    build_root_system,
    dimension,
    eval_on_coroot,
    weight,
    weight_multiplicities,
)

A1 = build_root_system("A1")
A2 = build_root_system("A2")
C2 = build_root_system("C2")


def vsum(*vecs):
    return tuple(sum(parts) for parts in zip(*vecs))


def sub_c2_short():
    a1, a2 = C2.simple_roots
    return make_subalgebra(C2, [vsum(a1, a2)])


def sub_c2_pair():
    a1, a2 = C2.simple_roots
    return make_subalgebra(C2, [a2, vsum(a1, a1, a2)])


def sub_a2():
    return make_subalgebra(A2, [A2.simple_roots[0]])


def test_make_subalgebra_examples():
    assert sub_c2_short().rank == 1
    pair = sub_c2_pair()
    assert pair.rank == 2
    assert len(_span_roots(C2, pair.roots_b)) == 4
    assert sub_a2().rank == 1


def test_condition_one_rejected():
    a1, a2 = A2.simple_roots
    with pytest.raises(SubalgebraError, match="condition 1"):
        make_subalgebra(A2, [a1, vsum(a1, a2)])


def test_condition_two_rejected():
    a1, a2 = C2.simple_roots
    # a root and its negative are dependent; condition 1 happens to pass
    # for the pair {a1+a2, -(a1+a2)} only after condition 2 fires
    v = vsum(a1, a2)
    with pytest.raises(SubalgebraError, match="condition 2 fails: a1\\+a2,-a1-a2 are dependent"):
        make_subalgebra(C2, [v, tuple(-x for x in v)])


def test_condition_three_rejected():
    with pytest.raises(SubalgebraError, match="condition 3"):
        make_subalgebra(C2, [C2.simple_roots[0]])  # compact short root
    with pytest.raises(SubalgebraError, match="condition 3"):
        make_subalgebra(A2, [A2.simple_roots[1]])  # compact root of A2


def test_non_roots_and_products_rejected():
    with pytest.raises(SubalgebraError):
        make_subalgebra(C2, [(3, 0)])
    # no product system exists to build a subalgebra in
    with pytest.raises(ValueError, match="unsupported root-system kind"):
        build_root_system("C2+A1")


def test_rank_two_needs_orthogonal_split():
    a1, a2 = C2.simple_roots
    # a2 and a1+a2 are non-orthogonal long/short roots
    with pytest.raises(SubalgebraError):
        make_subalgebra(C2, [a2, vsum(a1, a2)])


def test_selector_grammar():
    sel = parse_subalgebra_selector(C2, "a2,2a1+a2")
    a1, a2 = C2.simple_roots
    assert sel == (a2, vsum(a1, a1, a2))
    assert selector_of(sel) == "a2,2a1+a2"
    assert parse_subalgebra_selector(A2, "a1") == (A2.simple_roots[0],)
    with pytest.raises(SubalgebraError):
        parse_subalgebra_selector(C2, "a3")
    with pytest.raises(SubalgebraError):
        parse_subalgebra_selector(C2, "b1+a2")


def test_restrict_examples():
    # (factor, copies) pairs in descending order of factor
    assert restrict_rep(weight(C2, (0, 1)), sub_c2_short()).factors == (((2,), 1), ((0,), 2))
    assert restrict_rep(weight(C2, (1, 0)), sub_c2_pair()).factors == (((1, 0), 1), ((0, 1), 1))
    assert restrict_rep(weight(A2, (1, 0)), sub_a2()).factors == (((1,), 1), ((0,), 1))


def test_dimension_conservation_sweep():
    for k in range(11):
        for l in range(11 - k):
            w = weight(C2, (k, l))
            for sub in (sub_c2_short(), sub_c2_pair()):
                result = restrict_rep(w, sub)
                assert result.factor_dimension == dimension(w)
            w = weight(A2, (k, l))
            result = restrict_rep(w, sub_a2())
            assert result.factor_dimension == dimension(w)


def test_peeling_is_involution_consistent():
    for coords in ((2, 1), (0, 3), (3, 2)):
        w = weight(C2, coords)
        for sub in (sub_c2_short(), sub_c2_pair()):
            original = _oracle_values(w, sub)
            rebuilt = Counter()
            result = restrict_rep(w, sub)
            for factor, copies in result.factors:
                for key in itertools.product(*(range(m, -m - 1, -2) for m in factor)):
                    rebuilt[key] += copies
            assert rebuilt == original


def test_evaluation_multiset_matches_the_weight_by_weight_oracle():
    # the multiset evaluates every weight of the support on B's own coroot rows
    for system, sub in ((C2, sub_c2_short()), (C2, sub_c2_pair()), (A2, sub_a2())):
        rows = [system.root_table[beta].coroot for beta in sub.roots_b]
        assert sub.coroots == tuple(rows)
        for k in range(13):
            for l in range(13 - k):
                w = weight(system, (k, l))
                oracle = Counter()
                for mu, m in weight_multiplicities(w).items():
                    oracle[tuple(sum(c * r for c, r in zip(mu.coords, row)) for row in rows)] += m
                assert evaluation_multiset(w, sub) == oracle, (system.kind, sub.roots_b, k, l)


def _peel_strings(values: Counter) -> Counter:
    """Highest weights, with their copies, of the sl2 or sl2xsl2 strings in ``values``.

    A multiset N that each sign flip of a coordinate preserves is a unique
    virtual sum of strings, with sum_s (-1)^(|s|/2) N(m + s), s over
    {0, 2}^r, strings of highest weight m: N(m) - N(m+2) for one factor,
    N(m,n) - N(m+2,n) - N(m,n+2) + N(m+2,n+2) for two.  It is a genuine
    sum iff no count is negative.

    This is the peel that division of the Weyl numerator replaced in
    ``restrict_rep``, kept as its oracle.
    """
    for key, count in values.items():
        for i, v in enumerate(key):
            if v and values[key[:i] + (-v,) + key[i + 1:]] != count:
                raise VerificationError(f"evaluation multiset is not symmetric at {key}")
    rank = len(next(iter(values), ()))
    shifts = [(s, (-1) ** (sum(s) // 2)) for s in itertools.product((0, 2), repeat=rank)]
    counts: Counter = Counter()
    for key, count in values.items():
        if min(key) >= 0:
            # N(key) enters the count of each m = key - s with m >= 0
            for s, sign in shifts:
                m = tuple(map(operator.sub, key, s))
                if min(m) >= 0:
                    counts[m] += sign * count
    for m, count in counts.items():
        if count < 0:
            raise VerificationError(f"string peeling failed at value {m}")
    return +counts


# one Freudenthal table per top, shared by the selectors that branch it
_freudenthal = lru_cache(maxsize=None)(_full_support_oracle)


def _oracle_values(w, sub):
    """Coroot evaluations on B of every weight, with multiplicity.

    The multiplicities come from Freudenthal's recursion in
    ``tests/test_rootsys.py``, not from the Weyl numerator's division, so a
    fault in ``_weyl_numerator`` or ``_divide`` cannot reach this oracle and
    the division oracle both.
    """
    values = Counter()
    for mu, m in _freudenthal(w.system, w.coords).items():
        values[tuple(sub.evaluate(mu))] += m
    return values


def _oracle_factors(w, sub):
    """The Freudenthal-and-peel branching, as ``restrict_rep`` orders it."""
    return tuple(sorted(_peel_strings(_oracle_values(w, sub)).items(), reverse=True))


# every root subset make_subalgebra accepts from the selector grammar
SELECTORS = [(C2, s) for s in ("a1+a2", "a2", "2a1+a2", "a2,2a1+a2", "2a1+a2,a2")] + [
    (A2, s) for s in ("a1", "a1+a2")
]


def _spec(system, selector):
    return make_subalgebra(system, parse_subalgebra_selector(system, selector))


@pytest.mark.parametrize(
    "system,selector", SELECTORS, ids=[f"{s.kind}-{sel}" for s, sel in SELECTORS]
)
def test_division_matches_the_freudenthal_and_peel_oracle(system, selector):
    sub = _spec(system, selector)
    for k in range(15):
        for l in range(15 - k):
            w = weight(system, (k, l))
            assert restrict_rep(w, sub).factors == _oracle_factors(w, sub), (k, l)


def test_a1_restriction_matches_the_oracle_up_to_40():
    # B is all of A1, so nothing is divided: the one factor is the top
    for root in ((1,), (-1,)):
        sub = make_subalgebra(A1, [root])
        for k in range(41):
            w = weight(A1, (k,))
            assert restrict_rep(w, sub).factors == _oracle_factors(w, sub) == (((k,), 1),)


@pytest.mark.parametrize(
    "system,selector",
    [case for case in SELECTORS if "," not in case[1]],
    ids=[f"{s.kind}-{sel}" for s, sel in SELECTORS if "," not in sel],
)
def test_rank_one_selectors_match_the_oracle_at_60_60(system, selector):
    sub = _spec(system, selector)
    w = weight(system, (60, 60))
    assert restrict_rep(w, sub).factors == _oracle_factors(w, sub)


def test_negative_roots_branch_as_their_positives():
    # -beta spans beta's sl2, so the highest weights are the same
    for system, roots in ((C2, [(0, -1), (2, 1)]), (C2, [(-1, -1)]), (A2, [(-1, 0)])):
        sub = make_subalgebra(system, roots)
        for top in ((0, 0), (1, 0), (2, 3), (5, 1)):
            w = weight(system, top)
            assert restrict_rep(w, sub).factors == _oracle_factors(w, sub), (roots, top)


def test_same_length_conjugation_follows_the_cartan_data():
    # each root is W-conjugate to the simple root of its half squared length,
    # read off the Cartan data: the orbit of its fundamental coordinates holds it
    for system in (A1, A2, C2):
        for beta, entry in system.root_table.items():
            simple = _same_length_simple(system, beta)
            assert simple in system.simple_roots
            assert system.root_table[simple].half_norm == entry.half_norm
            orbit = set(_orbit(system, entry.fundamental))
            assert system.root_table[simple].fundamental in orbit, (system.kind, beta)
    a1, a2 = C2.simple_roots
    assert [_same_length_simple(C2, r) for r in C2.positive_roots] == [a1, a2, a1, a2]
    assert {_same_length_simple(A2, r) for r in A2.root_table} == {A2.simple_roots[0]}


def _division_factors(highest, sub):
    """The branching by Kostant's division: the body ``restrict_rep`` ran
    before the interlacing rules, kept as their oracle.

    For B of G's rank with positive roots among G's, A(lam + rho) divided by
    1 - e^-alpha for each alpha in Phi+ - Phi+_B is e^(rho - rho_B) sum_nu
    m_nu A_B(nu + rho_B), so the copies m_nu of the factor <nu, beta^vee>,
    beta in B in B's order, are the quotient's coefficient at nu + rho for
    B-dominant nu.  A rank-one B = {beta} becomes the Levi of the simple root
    of beta's length: the two are W-conjugate, so the W-invariant character
    branches alike.  The numerator and the division are read off
    ``tightmaps.rootsys`` at each call, where a test plants its faults; an
    inexact division, a negative count and a lost dimension each raise.
    """
    rootsys = tightmaps.rootsys
    system, top = highest.system, highest.coords
    roots_b = tuple(max(r, tuple(-c for c in r)) for r in sub.roots_b)  # the positive of +-beta
    if sub.rank == 1:
        roots_b = (_same_length_simple(system, roots_b[0]),)
    divisors = [r for r in system.positive_roots if r not in roots_b]
    if not divisors:  # B is all of A1: the restriction is the irreducible itself
        return BranchingResult(((top, 1),))
    quotient = rootsys._weyl_numerator(system, top)
    for root in divisors:
        quotient = rootsys._divide(quotient, system.root_table[root].fundamental)
        if quotient is None:
            raise _failure(highest, sub, "the Weyl numerator is not divisible by "
                                         f"1 - e^-({_root_name(root)})")
    rows = [system.root_table[r].coroot for r in roots_b]
    counts = Counter()
    for x, c in quotient.items():
        # the factor <x - rho, beta^vee> per root of B, at the B-dominant points
        factor = tuple(sum(map(operator.mul, x, row)) - sum(row) for row in rows)
        if min(factor) >= 0:
            if c < 0:
                raise _failure(highest, sub, f"factor {factor} counts {c} copies")
            counts[factor] += c
    result = BranchingResult(tuple(sorted(counts.items(), reverse=True)))
    found, expected = result.factor_dimension, dimension(highest)
    if found != expected:
        raise _failure(highest, sub, f"lost dimensions: {found} != {expected}")
    return result


def _differs_from_division(restrict, system, sub, top):
    """What ``restrict`` got wrong at ``top``, against the division oracle, or None."""
    w = weight(system, top)
    try:
        found = restrict(w, sub).factors
    except VerificationError as error:
        return str(error)
    expected = _division_factors(w, sub).factors
    return None if found == expected else f"{found[:3]}... != {expected[:3]}..."


# the seven selectors, then B all of A1
DIFFERENTIAL = SELECTORS + [(A1, "a1")]


@pytest.mark.parametrize(
    "system,selector", DIFFERENTIAL, ids=[f"{s.kind}-{sel}" for s, sel in DIFFERENTIAL]
)
def test_interlacing_matches_the_division_oracle_to_40(system, selector):
    sub = _spec(system, selector)
    tops = [t for t in itertools.product(range(41), repeat=system.rank) if sum(t) <= 40]
    assert len(tops) == (861 if system.rank == 2 else 41)
    for top in tops:
        assert _differs_from_division(restrict_rep, system, sub, top) is None, top


@given(case=st.sampled_from(SELECTORS), k=st.integers(0, 200), share=st.fractions(0, 1))
@settings(deadline=None, max_examples=100)
def test_interlacing_matches_the_division_oracle_on_drawn_tops_to_200(case, k, share):
    # a top of coordinate sum k, split between its two coordinates by ``share``
    system, selector = case
    top = (int(k * share), k - int(k * share))
    assert _differs_from_division(restrict_rep, system, _spec(system, selector), top) is None


# Faults planted in the interlacing rules: an exact edit of branching.py's
# source, which must occur there once, and a top where it first shows
MUTANTS = {
    "gl3-bound-off-by-one": ("max(0, b - m) + 1", "max(0, b - m + 1) + 1"),
    "spin4-bound-off-by-one": ("abs(x - a) - 1, -2)", "abs(x - a), -2)"),
    "long-pair-order-swapped": ("[(pair, 1) for pair in pairs]", "[((y, x), 1) for x, y in pairs]"),
    "clebsch-gordan-cut-to-its-top": ("range(x + y, abs(x - y) - 1, -2)", "(x + y,)"),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_a_planted_interlacing_fault_is_caught(name):
    # each fault either raises from the dimension check or differs from the
    # division oracle on some selector at some top to sum 8; a fault that no
    # check catches fails here
    path = tightmaps.branching.__file__
    source = open(path).read()
    old, new = MUTANTS[name]
    assert source.count(old) == 1, old
    mutant = {"__name__": "tightmaps.branching", "__package__": "tightmaps"}
    exec(compile(source.replace(old, new), path, "exec"), mutant)
    caught = [(system.kind, selector, top, found)
              for system, selector in SELECTORS
              for top in itertools.product(range(9), repeat=2) if sum(top) <= 8
              if (found := _differs_from_division(mutant["restrict_rep"], system,
                                                  _spec(system, selector), top))]
    assert caught, name


def test_a_non_dominant_top_is_refused_before_any_work(monkeypatch):
    # the rules would read empty ranges off a negative coordinate, so the top
    # is refused before they run; the numerator's orbit error is not reached
    monkeypatch.setattr(tightmaps.branching, "_interlacing",
                        lambda *args: pytest.fail("the rules ran on a non-dominant top"))
    for system, selector, top in ((C2, "a2,2a1+a2", (-1, 3)), (C2, "a1+a2", (2, -1)),
                                  (A2, "a1", (-1, 2)), (A1, "a1", (-1,))):
        with pytest.raises(ValueError, match=re.escape(f"weight {top} is not dominant")):
            restrict_rep(WeightVector(top, system), _spec(system, selector))


def _counting_numerator(system, top):
    """A(top + rho) from the orbit of top + rho, eps(w) being -1 to the number
    of positive coroots negative on w(top + rho): the numerator the sign walk
    replaced, kept as its oracle."""
    coroots = [system.root_table[r].coroot for r in system.positive_roots]
    start = tuple(t + 1 for t in top)
    return {x: (-1) ** sum(sum(map(operator.mul, x, c)) < 0 for c in coroots)
            for x in _orbit(system, start)}


def test_sign_walk_numerator_matches_the_coroot_counting_oracle():
    for system in (A1, A2, C2):
        tops = itertools.product(range(21), repeat=system.rank)
        for top in (t for t in tops if sum(t) <= 20):
            numerator = _weyl_numerator(system, top)
            assert numerator == _counting_numerator(system, top), (system.kind, top)
            assert len(numerator) == system.weyl_order


@pytest.mark.parametrize("system,top,points", [(A1, (-1,), 1), (A2, (-1, 2), 3), (C2, (3, -1), 4)],
                         ids=["A1", "A2", "C2"])
def test_a_short_numerator_orbit_is_a_verification_error(system, top, points):
    # top + rho on a wall has a stabiliser, so the walk closes early
    message = re.escape(f"the orbit of {system.kind} {top} + rho has {points} points, "
                        f"not |W| = {system.weyl_order}")
    with pytest.raises(VerificationError, match=message):
        _weyl_numerator(system, top)
    if system.rank == 2:  # restrict_rep refuses such a top before any work
        sub = make_subalgebra(system, [system.positive_roots[-1]])
        with pytest.raises(VerificationError, match=message):
            _division_factors(weight(system, top), sub)


def test_a_planted_numerator_fault_is_a_verification_error(monkeypatch):
    # the division oracle reads the numerator off rootsys, where the fault is planted
    real = tightmaps.rootsys._weyl_numerator
    w = weight(C2, (2, 3))
    for sub in (sub_c2_short(), sub_c2_pair()):
        top_term = tuple(t + 1 for t in w.coords)
        for fault in (lambda n: {**n, top_term: -1},
                      lambda n: {x: c for x, c in n.items() if x != top_term}):
            monkeypatch.setattr(tightmaps.rootsys, "_weyl_numerator",
                                lambda system, top, fault=fault: fault(real(system, top)))
            with pytest.raises(VerificationError, match=r"C2 \(2, 3\) on .*not divisible by"):
                _division_factors(w, sub)


def test_a_negated_numerator_is_a_negative_count(monkeypatch):
    # -A(lambda + rho) divides exactly, so the oracle's sign check must catch it
    real = tightmaps.rootsys._weyl_numerator
    monkeypatch.setattr(tightmaps.rootsys, "_weyl_numerator",
                        lambda system, top: {x: -c for x, c in real(system, top).items()})
    for system, sub in ((C2, sub_c2_short()), (C2, sub_c2_pair()), (A2, sub_a2())):
        with pytest.raises(VerificationError, match=rf"^branching {system.kind} \(2, 3\) on "
                                                    r"[a0-9+,]+: factor \([0-9, ]+\) counts -1 copies$"):
            _division_factors(weight(system, (2, 3)), sub)


def test_an_empty_numerator_loses_every_dimension(monkeypatch):
    monkeypatch.setattr(tightmaps.rootsys, "_weyl_numerator", lambda system, top: {})
    # the kind, the top and B, then what failed
    with pytest.raises(VerificationError,
                       match=r"^branching C2 \(1, 1\) on a1\+a2: lost dimensions: 0 != 16$"):
        _division_factors(weight(C2, (1, 1)), sub_c2_short())


def _greedy_peel(values):
    """Peel strings off the top, in descending order of key: a key still
    counted once every higher string is off is the highest weight of all
    the strings through it, so all its copies come off at once.

    This is the peel the second-difference counts replaced, kept as their
    oracle for one factor and for two; it gives the factor multiset.
    """
    remaining = Counter(values)
    factors = Counter()
    for top in sorted(values, reverse=True):
        copies = remaining[top]
        if copies == 0:
            continue
        if min(top) < 0:
            raise ValueError("evaluation multiset is not symmetric")
        for key in itertools.product(*(range(m, -m - 1, -2) for m in top)):
            if remaining[key] < copies:
                raise ValueError(f"string peeling failed at value {key}")
            remaining[key] -= copies
        factors[top] = copies
    return factors


def _sign_flips(key):
    return {tuple(s * x for s, x in zip(signs, key))
            for signs in itertools.product((1, -1), repeat=len(key))}


def _perturbed(values):
    """Multisets near ``values`` that no sum of strings gives.

    One unit of the top entry is dropped, an unpaired entry is added above
    the top, or one unit of the top entry moves down by 2; each breaks the
    sign symmetry.  The last adds every sign flip of an entry 4 above the
    top: symmetric, but its string has no interior, so a count goes
    negative.
    """
    top = max(values)
    one = Counter({top: 1})
    return [
        values - one,
        values + Counter({(top[0] + 2,) + top[1:]: 1}),
        values - one + Counter({(top[0] - 2,) + top[1:]: 1}),
        values + Counter(_sign_flips((top[0] + 4,) + top[1:])),
    ]


@pytest.mark.parametrize(
    "system,sub", [(C2, sub_c2_short), (C2, sub_c2_pair), (A2, sub_a2)],
    ids=["c2-a1+a2", "c2-a2,2a1+a2", "a2-a1"],
)
def test_second_difference_peel_matches_greedy_oracle(system, sub):
    sub = sub()
    for k in range(13):
        for l in range(13 - k):
            values = evaluation_multiset(weight(system, (k, l)), sub)
            peeled = _peel_strings(values)
            assert peeled == _greedy_peel(values), (k, l)
            assert min(peeled.values()) >= 1, (k, l)  # only positive counts
            if max(values) == (0,) * sub.rank:
                continue  # the trivial multiset has no nonzero top to move
            for bad in _perturbed(values):
                with pytest.raises(VerificationError):
                    _peel_strings(bad)
                with pytest.raises(ValueError):
                    _greedy_peel(bad)


@pytest.mark.parametrize(
    "system,sub", [(C2, sub_c2_short), (C2, sub_c2_pair), (A2, sub_a2)],
    ids=["c2-a1+a2", "c2-a2,2a1+a2", "a2-a1"],
)
def test_restrict_rep_is_the_greedy_peel_multiset(system, sub):
    # each distinct factor once, descending, with the greedy peel's count; the
    # oracle walks every string entry, 13.8 million for (60, 60) on the long pair
    sub = sub()
    tops = [(k, l) for k in range(15) for l in range(15 - k)] + [(60, 60)] * (sub.rank == 1)
    for coords in tops:
        w = weight(system, coords)
        factors = restrict_rep(w, sub).factors
        assert dict(factors) == _greedy_peel(_oracle_values(w, sub)), coords
        distinct = [f for f, _ in factors]
        assert distinct == sorted(set(distinct), reverse=True), coords
        assert min(n for _, n in factors) >= 1, coords


def test_large_branching_counts_copies():
    # C2 (80, 80) on a1+a2: 398 601 factor copies of 121 distinct factors
    factors = restrict_rep(weight(C2, (80, 80)), sub_c2_short()).factors
    assert len(factors) == 121
    assert sum(n for _, n in factors) == 398601


def test_even_witness_examples():
    w, _ = even_witness(weight(A2, (0, 2)), sub_a2())
    assert w == (-2, 0)
    assert eval_on_coroot(weight(A2, w), A2.simple_roots[0]) == -2

    for l in (1, 2, 3):
        w, _ = even_witness(weight(C2, (0, l)), sub_c2_short())
        assert w == (0, l)

    assert even_witness(weight(A2, (1, 0)), sub_a2()) is None
    assert even_witness(weight(A2, (0, 1)), sub_a2()) is None
    assert even_witness(weight(C2, (1, 0)), sub_c2_pair()) is None


def test_witness_steps_are_the_proof_chain_roots():
    # A2: alpha_1 + alpha_2 once and twice, then alpha_2; C2: alpha_1 + alpha_2
    for system, depths in ((A2, ((1, 1), (2, 2), (0, 1))), (C2, ((1, 1),))):
        columns = list(zip(*system.cartan_matrix))
        expected = tuple(
            tuple(sum(n * column[i] for n, column in zip(depth, columns)) for i in range(2))
            for depth in depths
        )
        assert _WITNESS_STEPS[system.kind] == expected, system.kind


def test_even_witness_exists_for_all_nontight_c2_weights():
    # outside (0,0) and (1,0) one of the two tight subalgebras always
    # produces an even nonzero evaluation
    for k in range(11):
        for l in range(11 - k):
            if (k, l) in ((0, 0), (1, 0)):
                continue
            found = any(
                even_witness(weight(C2, (k, l)), sub) is not None
                for sub in (sub_c2_short(), sub_c2_pair())
            )
            assert found, (k, l)


def test_even_witness_exists_for_all_large_a2_weights():
    for k in range(11):
        for l in range(11 - k):
            if k + l < 2:
                continue
            assert even_witness(weight(A2, (k, l)), sub_a2()) is not None, (k, l)
