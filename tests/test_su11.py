"""Symmetric-power models, pairings, and the diagonal-disc criterion."""

import operator
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tightmaps.su11
from tightmaps.classify import Witness, _pairing_verdict, constructive_verdict, cross_check, sweep
from tightmaps.rootsys import build_root_system, weight, weight_multiplicities
from tightmaps.su11 import (
    StructureChoice,
    _block_sum,
    best_tensor_pairing,
    clebsch_gordan,
    disc_pairing_value,
    doubled_disc_pairing,
    doubled_pairings,
    pairing,
    signature,
    structure_representatives,
    sym_power_pairing,
    sym_power_rep,
    sym_power_signature,
    tensor_pairing,
    tensor_rep,
    tensor_signature,
)

F = Fraction
BlockSums = tuple[int, int]  # (sum over the positive block, over the negative)


# -- the central-element oracle ----------------------------------------------
# su11 reads every doubled pairing as a positive-block sum.  These helpers
# reach the same values the long way: the model's block sums, laid out in
# the tensor basis, paired with (p+q) times the central element of su(p,q).


def _scaled_z_element(p: int, q: int) -> BlockSums:
    """(p+q) times the central element of su(p,q), by block: the value q
    on each of the p positive vectors and -p on each of the q negative ones."""
    if p < q or q < 0:
        raise ValueError("expected p >= q >= 0")
    if p + q < 2:
        raise ValueError("su(p,q) needs p+q >= 2")
    return q, -p


def diagonal_disc_z(p: int, q: int) -> BlockSums:
    """Block sums of the doubled Z-image of the diagonal disc of su(p,q).

    Explicit block-diagonal embedding: min(p,q) blocks pair one positive
    with one negative basis vector and carry eigenvalues +-1/2 (doubled
    +-1); leftover positive directions are untouched.  So the positive
    block holds min(p,q) ones and then zeros, and the negative block q
    minus ones.
    """
    return min(p, q), -q


def _doubled_pairing(sums: BlockSums, p: int, q: int) -> int:
    """Twice the pairing of a doubled diagonal, given by its block sums, with
    the central element of su(p,q); fails unless that is an int."""
    n = pairing(sums, _scaled_z_element(p, q))
    assert n % (p + q) == 0, (sums, p, q)
    return n // (p + q)


def _in_tensor_basis(sums: BlockSums, other) -> BlockSums:
    """Block sums of one factor's Z-contribution laid out in the tensor basis
    of :func:`tensor_rep`, where each positive entry meets the ``other``
    factor's p positive vectors in the positive block and its q negative
    ones in the negative block, and each negative entry the other way round."""
    pos, neg = sums
    return other.p * pos + other.q * neg, other.q * pos + other.p * neg


def central_element_pairings(*degrees):
    """(doubled pairings, doubled disc value) of ``degrees`` by the oracle."""
    sig = signature(*degrees)
    if len(degrees) == 1:
        columns = [sym_power_rep(*degrees).block_sums]
    else:
        one, two = (sym_power_rep(k) for k in degrees)
        columns = [_in_tensor_basis(one.block_sums, two.signature),
                   _in_tensor_basis(two.block_sums, one.signature)]
    pairings = tuple(_doubled_pairing(col, *sig) for col in columns)
    return pairings, _doubled_pairing(diagonal_disc_z(*sig), *sig)


def z_element(p, q):
    """Diagonal of the central element of su(p,q), positive block first.

    i*diag(q/(p+q), ..., -p/(p+q), ...); the restriction to any 2x2 block of
    a diagonal disc has eigenvalues +-1/2.  Expanded from the per-block
    values of ``_scaled_z_element``, which rejects an invalid (p, q).
    """
    pos, neg = _scaled_z_element(p, q)
    return (F(pos, p + q),) * p + (F(neg, p + q),) * q


def z_diagonal(rep):
    """A model's Z-image diagonal itself, in exact rationals."""
    return tuple(F(d, 2) for d in rep.z_doubled)


def test_sym_power_examples():
    rep = sym_power_rep(2)
    assert (rep.signature.p, rep.signature.q) == (2, 1)
    assert z_diagonal(rep) == (F(1), F(-1), F(0))

    rep = sym_power_rep(3)
    assert (rep.signature.p, rep.signature.q) == (2, 2)
    assert z_diagonal(rep) == (F(3, 2), F(-1, 2), F(1, 2), F(-3, 2))

    rep = sym_power_rep(0)
    assert (rep.signature.p, rep.signature.q) == (1, 0)
    assert z_diagonal(rep) == (F(0),)


def test_sym_power_signature_split():
    for k in range(0, 21):
        rep = sym_power_rep(k)
        if k % 2 == 0:
            assert (rep.signature.p, rep.signature.q) == (k // 2 + 1, k // 2)
        else:
            assert (rep.signature.p, rep.signature.q) == ((k + 1) // 2, (k + 1) // 2)
        assert rep.signature.dim == rep.dim == k + 1
        assert sym_power_signature(k) == rep.signature
        assert sum(z_diagonal(rep)) == 0
    for build in (sym_power_signature, sym_power_rep):
        with pytest.raises(ValueError):
            build(-1)


def test_signature_dispatches_on_the_number_of_degrees():
    for k in range(8):
        assert signature(k) == sym_power_signature(k)
        for l in range(8):
            assert signature(k, l) == tensor_signature(k, l) == tensor_rep(
                k, l, structure_representatives()[0]).signature


def test_sym_power_diagonal_matches_the_monomial_order():
    for k in range(61):
        order = [*range(0, k + 1, 2), *range(1, k + 1, 2)]
        assert sym_power_rep(k).z_doubled == tuple(k - 2 * m for m in order)


def _tensor_order(one, two, p1, p2):
    """Pairs of basis entries of two models in tensor basis order.

    ``p1`` and ``p2`` are the positive block sizes.  Block order (positive
    vectors first): pos(x)pos, neg(x)neg, pos(x)neg, neg(x)pos, each block
    first-factor major.
    """
    pos1, neg1, pos2, neg2 = one[:p1], one[p1:], two[:p2], two[p2:]
    blocks = ((pos1, pos2), (neg1, neg2), (pos1, neg2), (neg1, pos2))
    return [(a, b) for xs, ys in blocks for a in xs for b in ys]


def tensor_columns(k, l):
    """Doubled Z-entries of both factor models, in tensor basis order.

    The oracle walk over all (k+1)(l+1) tensor basis vectors.
    """
    one, two = sym_power_rep(k), sym_power_rep(l)
    return _tensor_order(one.z_doubled, two.z_doubled, one.signature.p, two.signature.p)


def entrywise_pairing(doubled, p, q):
    """Oracle: a whole doubled diagonal paired entry by entry with the
    integer element (p+q) Z, divided once by 2(p+q)."""
    scaled = (q,) * p + (-p,) * q
    assert len(doubled) == len(scaled)
    return F(sum(map(operator.mul, doubled, scaled)), 2 * (p + q))


def disc_diagonal(p, q):
    """The diagonal disc's doubled Z-image, every entry written out."""
    r = min(p, q)
    return (1,) * r + (0,) * (p - r) + (-1,) * q


def basis_labels(rep):
    """Names of the basis vectors, in the order of ``z_doubled``.

    The degree-k model's entry d names e1^((k+d)/2) e2^((k-d)/2).
    """
    if len(rep.degrees) == 1:
        k = rep.degrees[0]
        return tuple(f"e1^{(k + d) // 2} e2^{(k - d) // 2}" for d in rep.z_doubled)
    one, two = (sym_power_rep(k) for k in rep.degrees)
    labels = basis_labels(one), basis_labels(two), one.signature.p, two.signature.p
    return tuple(f"({a}) (x) ({b})" for a, b in _tensor_order(*labels))


def test_sym_power_basis_labels_track_monomials():
    rep = sym_power_rep(4)
    assert basis_labels(rep)[0] == "e1^4 e2^0"
    assert basis_labels(rep)[rep.signature.p] == "e1^3 e2^1"


@given(k=st.integers(0, 16))
@settings(deadline=None)
def test_doubled_diagonal_is_the_sl2_weight_multiset(k):
    a1 = build_root_system("A1")
    support = weight_multiplicities(weight(a1, (k,)))
    weights = sorted(int(w.coords[0]) for w in support)
    assert sorted(2 * d for d in z_diagonal(sym_power_rep(k))) == weights


def test_z_element_examples():
    assert z_element(2, 2) == (F(1, 2), F(1, 2), F(-1, 2), F(-1, 2))
    assert z_element(2, 1) == (F(1, 3), F(1, 3), F(-2, 3))
    assert z_element(1, 1) == (F(1, 2), F(-1, 2))
    with pytest.raises(ValueError):
        z_element(1, 0)
    with pytest.raises(ValueError):
        z_element(1, 2)


def test_z_element_trace_free():
    for p in range(1, 8):
        for q in range(0, p + 1):
            if p + q < 2:
                continue
            assert sum(z_element(p, q)) == 0


def test_pairing_examples():
    assert pairing(z_element(2, 2), z_element(2, 2)) == 1
    assert pairing(z_diagonal(sym_power_rep(3)), z_element(2, 2)) == 1
    assert pairing((F(0),) * 4, z_element(2, 2)) == 0
    with pytest.raises(ValueError):
        pairing((F(1),), (F(1), F(2)))


@given(
    xs=st.lists(st.fractions(min_value=-3, max_value=3), min_size=3, max_size=3),
    ys=st.lists(st.fractions(min_value=-3, max_value=3), min_size=3, max_size=3),
    c=st.fractions(min_value=-3, max_value=3),
)
@settings(deadline=None, max_examples=50)
def test_pairing_symmetric_bilinear(xs, ys, c):
    xs, ys = tuple(xs), tuple(ys)
    assert pairing(xs, ys) == pairing(ys, xs)
    scaled = tuple(c * x for x in xs)
    assert pairing(scaled, ys) == c * pairing(xs, ys)


def test_diagonal_disc_value_is_half_the_rank():
    for p in range(1, 7):
        for q in range(1, p + 1):
            assert disc_pairing_value(p, q) == F(min(p, q), 2)
            disc, entries = diagonal_disc_z(p, q), disc_diagonal(p, q)
            assert disc == (sum(entries[:p]), sum(entries[p:])) and sum(disc) == 0


# Acceptance criteria 1 and 2 run these two criteria over k <= 50 and
# k, l <= 12.


def _su11_tight(k):
    # the pairing criterion for k >= 1, the zero class at k = 0
    return constructive_verdict("su11", (k,))[0]


def _pairing_tight(k, l):
    # the pairing criterion itself, also on pairs of equal parity
    return _pairing_verdict(*best_tensor_pairing(k, l))[0]


def test_tight_iff_odd_examples():
    assert _su11_tight(3) is True
    assert _su11_tight(2) is False
    assert _su11_tight(1) is True
    assert _su11_tight(0) is False


def test_clebsch_gordan_examples():
    assert clebsch_gordan(2, 1) == (3, 1)
    assert clebsch_gordan(1, 1) == (2, 0)
    assert clebsch_gordan(7, 0) == (7,)


@given(k=st.integers(0, 20), l=st.integers(0, 20))
@settings(deadline=None, max_examples=80)
def test_clebsch_gordan_dimension_identity(k, l):
    assert sum(m + 1 for m in clebsch_gordan(k, l)) == (k + 1) * (l + 1)


def test_structure_representatives():
    reps = structure_representatives()
    assert tuple(s.signs for s in reps) == ((1, 1), (1, -1))
    with pytest.raises(ValueError):
        StructureChoice((1, 2))


def test_tensor_rep_examples():
    rep = tensor_rep(2, 1, StructureChoice((1, 1)))
    assert (rep.signature.p, rep.signature.q) == (3, 3)
    assert pairing(z_diagonal(rep), z_element(3, 3)) == F(1, 2)

    rep = tensor_rep(0, 0, StructureChoice((1, 1)))
    assert (rep.signature.p, rep.signature.q) == (1, 0)
    assert z_diagonal(rep) == (F(0),)


def test_tensor_rep_block_structure():
    # four blocks ordered pos x pos, neg x neg, pos x neg, neg x pos
    k, l = 2, 3
    rep = tensor_rep(k, l, StructureChoice((1, 1)))
    a, b = sym_power_rep(k).signature.p, sym_power_rep(k).signature.q
    c, d = sym_power_rep(l).signature.p, sym_power_rep(l).signature.q
    assert rep.signature.p == a * c + b * d
    assert rep.signature.q == a * d + b * c
    assert sum(z_diagonal(rep)) == 0
    assert basis_labels(rep)[0] == "(e1^2 e2^0) (x) (e1^3 e2^0)"


@given(k=st.integers(0, 6), l=st.integers(0, 6))
@settings(deadline=None, max_examples=40)
def test_structure_flip_negates_pairing(k, l):
    if (k, l) == (0, 0):
        return
    for structure in structure_representatives():
        flipped = StructureChoice(tuple(-s for s in structure.signs))
        assert tensor_pairing(k, l, structure) == -tensor_pairing(k, l, flipped)


@given(k=st.integers(0, 6), l=st.integers(0, 6))
@settings(deadline=None, max_examples=40)
def test_factor_pairings_decompose_the_pairing(k, l):
    if (k, l) == (0, 0):
        return
    d1, d2 = doubled_pairings(k, l)
    assert type(d1) is type(d2) is int
    for structure in structure_representatives():
        s1, s2 = structure.signs
        assert _exactly(tensor_pairing(k, l, structure), F(s1 * d1 + s2 * d2, 2))


def test_tight_tensor_examples():
    assert _pairing_tight(2, 1) is False
    assert _pairing_tight(0, 1) is True
    assert _pairing_tight(1, 1) is False
    assert constructive_verdict("su11xsu11", (0, 0)) == (False, Witness("zero_class"))


def test_mixed_parity_pairing_values():
    # even k = 2q, odd l = 2p-1: structure values are p/2 and -p/2 and the
    # diagonal-disc value is p(2q+1)/2
    for q in range(0, 6):
        for p in range(1, 6):
            k, l = 2 * q, 2 * p - 1
            values = {
                tensor_pairing(k, l, s) for s in structure_representatives()
            }
            assert values == {F(p, 2), F(-p, 2)}
            sig = tensor_signature(k, l)
            assert (sig.p, sig.q) == (p * (2 * q + 1), p * (2 * q + 1))
            assert disc_pairing_value(sig.p, sig.q) == F(p * (2 * q + 1), 2)


def _fraction_disc(p, q):
    # the diagonal disc's Z-image in rationals, built independently of su11
    r = min(p, q)
    return (F(1, 2),) * r + (F(0),) * (p - r) + (F(-1, 2),) * q


def _exactly(value, expected):
    return type(value) is Fraction and value == expected


def _doubled_exactly(doubled, expected):
    """Ints, each twice the matching expected pairing."""
    return all(type(d) is int for d in doubled) and list(doubled) == [2 * x for x in expected]


def test_integer_pairings_match_the_fraction_oracle():
    for k in [*range(1, 61), 999, 1000]:
        rep = sym_power_rep(k)
        p, q = rep.signature.p, rep.signature.q
        lhs, disc = sym_power_pairing(k)
        assert _exactly(lhs, pairing(z_diagonal(rep), z_element(p, q))), k
        assert _exactly(disc, pairing(_fraction_disc(p, q), z_element(p, q))), k
    for k in range(13):
        for l in range(13):
            if (k, l) == (0, 0):
                continue
            sig = tensor_signature(k, l)
            for s in structure_representatives():
                oracle = pairing(z_diagonal(tensor_rep(k, l, s)), z_element(sig.p, sig.q))
                assert _exactly(tensor_pairing(k, l, s), oracle), (k, l, s)
    for p in range(1, 30):
        for q in range(1, min(p, 30 - p) + 1):
            oracle = pairing(_fraction_disc(p, q), z_element(p, q))
            assert _exactly(disc_pairing_value(p, q), oracle), (p, q)


def test_block_pairings_match_the_entrywise_oracle():
    for k in range(1, 400):
        rep = sym_power_rep(k)
        p, q = rep.signature
        lhs, disc = sym_power_pairing(k)
        assert _exactly(lhs, entrywise_pairing(rep.z_doubled, p, q)), k
        assert _exactly(disc, entrywise_pairing(disc_diagonal(p, q), p, q)), k
        assert _doubled_exactly(doubled_pairings(k), [lhs]), k
    for degrees in ((0,), (0, 0)):
        with pytest.raises(ValueError):
            doubled_pairings(*degrees)
    with pytest.raises(ValueError):
        sym_power_pairing(0)
    for k in range(60):
        for l in range(60):
            if (k, l) == (0, 0):
                continue
            sig = tensor_signature(k, l)
            columns = tensor_columns(k, l)
            factors = [entrywise_pairing(col, *sig) for col in zip(*columns)]
            assert _doubled_exactly(doubled_pairings(k, l), factors), (k, l)
            for s in structure_representatives():
                s1, s2 = s.signs
                oracle = entrywise_pairing([s1 * a + s2 * b for a, b in columns], *sig)
                assert _exactly(tensor_pairing(k, l, s), oracle), (k, l, s)
    for p in range(1, 60):
        for q in range(1, p + 1):
            oracle = entrywise_pairing(disc_diagonal(p, q), p, q)
            assert _exactly(disc_pairing_value(p, q), oracle), (p, q)


def test_tensor_rep_walks_the_tensor_basis():
    for k in range(9):
        for l in range(9):
            for s in structure_representatives():
                s1, s2 = s.signs
                expected = tuple(s1 * a + s2 * b for a, b in tensor_columns(k, l))
                assert tensor_rep(k, l, s).z_doubled == expected, (k, l, s)


def test_a_range_block_sums_in_closed_form():
    # every step sign and size to 4, every length 0..12, and every residue
    # of start and stop modulo the step
    for step in (-4, -3, -2, -1, 1, 2, 3, 4):
        for start in range(-2 * abs(step), 2 * abs(step)):
            for stop in range(start - 13 * abs(step), start + 13 * abs(step)):
                block = range(start, stop, step)
                assert _block_sum(block) == sum(block), block
    for n in range(13):
        assert sum(range(n * 13, -n * 13 - 1, -4)) == _block_sum(range(n * 13, -n * 13 - 1, -4))
    assert _block_sum((3, -1, 5)) == 7  # a tensor block is a tuple


@pytest.mark.parametrize("algebra,w", [("su11", (2000001,)), ("su11xsu11", (2001, 2000))])
def test_large_models_cross_check_in_constant_memory(algebra, w):
    # a degree-2000001 model, or the 4004002-dimensional tensor product,
    # pairs through its block sums: no diagonal is ever stored
    tracemalloc.start()
    try:
        cross_check(algebra, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_no_structure_pairing_exceeds_the_disc_value():
    # best_tensor_pairing reports only the largest pairing for the criterion
    for k in range(25):
        for l in range(25):
            if (k, l) == (0, 0):
                continue
            sig = tensor_signature(k, l)
            disc = disc_pairing_value(sig.p, sig.q)
            for s in structure_representatives():
                assert abs(tensor_pairing(k, l, s)) <= disc, (k, l, s)


def test_positive_block_sums_match_the_central_element_oracle():
    # twice a pairing is its column's positive-block sum, and the disc's
    # doubled value is the rank
    cases = [*((k,) for k in range(1, 5000)),
             *((k, l) for k in range(200) for l in range(200) if k or l)]
    assert len(cases) == 44998
    for degrees in cases:
        pairings, disc = central_element_pairings(*degrees)
        got, got_disc = doubled_pairings(*degrees), doubled_disc_pairing(*degrees)[1]
        assert (got, got_disc) == (pairings, disc) and disc == signature(*degrees).rank, degrees
        assert all(type(d) is int for d in (*got, got_disc)), degrees


def test_the_rank_one_commands_pair_no_whole_diagonal(monkeypatch):
    # the bench's rank1-models commands pair through block sums alone, so
    # su11.pairing, which pairs two whole diagonals, is never called
    calls = []
    real = tightmaps.su11.pairing
    monkeypatch.setattr(tightmaps.su11, "pairing", lambda *a: calls.append(a) or real(*a))
    assert len(sweep("su11xsu11", 16)["rows"]) > 100
    assert cross_check("su11", (50001,)).tight is True
    assert calls == []


@pytest.fixture
def model_builds(monkeypatch):
    """Degrees of the ``sym_power_rep`` builds made while the test runs.

    The name is rebound in every ``tightmaps`` module that holds it, since
    ``from .su11 import sym_power_rep`` copies it.
    """
    builds = []

    def counting(k):
        builds.append(k)
        return sym_power_rep(k)

    for name, module in list(sys.modules.items()):
        holds = vars(module).get("sym_power_rep") is sym_power_rep
        if holds and name.split(".")[0] == "tightmaps":
            monkeypatch.setattr(module, "sym_power_rep", counting)
    return builds


def test_each_factor_model_is_built_once(model_builds):
    for k, l in ((2, 1), (0, 5), (4, 4), (7, 0)):
        for compute, expected in (
            (best_tensor_pairing, 2),
            (doubled_pairings, 2),
            (tensor_signature, 0),
        ):
            model_builds.clear()
            compute(k, l)
            assert len(model_builds) == expected, (compute.__name__, k, l)
