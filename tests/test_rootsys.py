"""Root-system data, orbits, supports, multiplicities, dimensions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightmaps.rootsys import (
    _multiplicity_table,
    build_root_system,
    dimension,
    dot,
    eval_on_coroot,
    weight,
    weight_multiplicities,
    weight_support,
    weyl_orbit,
)

A1 = build_root_system("A1")
A2 = build_root_system("A2")
C2 = build_root_system("C2")
SYSTEMS = (A1, A2, C2, build_root_system("C2+A1"), build_root_system("A1+A1"))


def vsum(*vecs):
    return tuple(sum(parts) for parts in zip(*vecs))


def test_unsupported_kind_rejected():
    with pytest.raises(ValueError):
        build_root_system("B2")
    with pytest.raises(ValueError):
        build_root_system("")


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.kind)
def test_dual_basis_property(system):
    for i, w in enumerate(system.fundamental_weights):
        for j, a in enumerate(system.simple_roots):
            assert 2 * dot(w, a) / dot(a, a) == (1 if i == j else 0)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.kind)
def test_cartan_matrix_matches_realisation(system):
    for i, ai in enumerate(system.simple_roots):
        for j, aj in enumerate(system.simple_roots):
            assert system.cartan_matrix[i][j] == 2 * dot(aj, ai) / dot(ai, ai)


def test_standard_cartan_matrices():
    assert A1.cartan_matrix == ((2,),)
    assert A2.cartan_matrix == ((2, -1), (-1, 2))
    assert C2.cartan_matrix == ((2, -2), (-1, 2))


def test_c2_long_root_convention():
    a1, a2 = C2.simple_roots
    assert dot(a2, a2) > dot(a1, a1)
    assert C2.is_noncompact_root(a2)
    assert not C2.is_noncompact_root(a1)


def test_fundamental_weight_relations():
    a1, a2 = C2.simple_roots
    assert C2.fundamental_weights[0] == tuple(x / 2 for x in vsum(a1, a1, a2))
    assert C2.fundamental_weights[1] == vsum(a1, a2)
    b1, b2 = A2.simple_roots
    assert A2.fundamental_weights[0] == tuple(x / 3 for x in vsum(b1, b1, b2))
    assert A2.fundamental_weights[1] == tuple(x / 3 for x in vsum(b1, b2, b2))
    (alpha,) = A1.simple_roots
    assert A1.fundamental_weights[0] == tuple(x / 2 for x in alpha)
    assert A1.roots() == (alpha, tuple(-x for x in alpha))


def test_eval_on_coroot_examples():
    a1, a2 = C2.simple_roots
    assert eval_on_coroot(weight(C2, (0, 3)), vsum(a1, a2)) == 6
    assert eval_on_coroot(weight(C2, (2, 1)), vsum(a1, a1, a2)) == 3
    assert eval_on_coroot(weight(A2, (4, 0)), A2.simple_roots[0]) == 4


def test_eval_on_coroot_rejects_non_roots():
    with pytest.raises(ValueError):
        eval_on_coroot(weight(C2, (1, 0)), (Fraction(3), Fraction(0)))


@given(k=st.integers(0, 8), l=st.integers(0, 8))
@settings(deadline=None, max_examples=40)
def test_c2_coroot_identities(k, l):
    a1, a2 = C2.simple_roots
    w = weight(C2, (k, l))
    assert eval_on_coroot(w, vsum(a1, a2)) == k + 2 * l
    assert eval_on_coroot(w, vsum(a1, a1, a2)) == k + l


ORACLE_COORDS = tuple(range(-3, 4)) + (Fraction(1, 2), Fraction(-3, 2))


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.kind)
def test_eval_on_coroot_matches_euclidean_oracle(system):
    roots = system.roots()
    assert len(roots) == 2 * len(system.positive_roots)
    for coords in itertools.product(ORACLE_COORDS, repeat=system.rank):
        w = weight(system, coords)
        e = w.euclid()
        for r in roots:
            assert eval_on_coroot(w, r) == 2 * dot(e, r) / dot(r, r), (coords, r)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.kind)
def test_dimension_matches_euclidean_weyl_product(system):
    rho = tuple(sum(parts) for parts in zip(*system.fundamental_weights))
    for top in itertools.product(range(7), repeat=system.rank):
        if sum(top) > 6:
            continue
        lam_rho = tuple(a + b for a, b in zip(weight(system, top).euclid(), rho))
        expected = Fraction(1)
        for alpha in system.positive_roots:
            expected *= dot(lam_rho, alpha) / dot(rho, alpha)
        assert dimension(weight(system, top)) == expected, top


def test_weyl_orbit_examples():
    orbit = weyl_orbit(weight(A2, (1, 0)))
    assert {tuple(int(c) for c in w.coords) for w in orbit} == {
        (1, 0),
        (-1, 1),
        (0, -1),
    }
    assert weyl_orbit(weight(A2, (0, 0))) == frozenset({weight(A2, (0, 0))})
    assert len(weyl_orbit(weight(C2, (1, 0)))) == 4


def test_a2_weyl_images_derived_from_reflections():
    # the six images of a generic dominant weight
    k, l = 2, 5
    orbit = weyl_orbit(weight(A2, (k, l)))
    expected = {
        (k, l),
        (-k, k + l),
        (k + l, -l),
        (l, -k - l),
        (-k - l, k),
        (-l, -k),
    }
    assert {tuple(int(c) for c in w.coords) for w in orbit} == expected


@given(
    kind=st.sampled_from(["A1", "A2", "C2"]),
    coords=st.lists(st.integers(-4, 4), min_size=2, max_size=2),
)
@settings(deadline=None, max_examples=60)
def test_orbit_size_divides_weyl_order(kind, coords):
    system = build_root_system(kind)
    w = weight(system, coords[: system.rank])
    assert system.weyl_order % len(weyl_orbit(w)) == 0


@given(
    kind=st.sampled_from(["A1", "A2", "C2"]),
    coords=st.lists(st.integers(0, 5), min_size=2, max_size=2),
    root_index=st.integers(0, 7),
)
@settings(deadline=None, max_examples=60)
def test_integral_weights_evaluate_integrally(kind, coords, root_index):
    system = build_root_system(kind)
    w = weight(system, coords[: system.rank])
    roots = system.roots()
    value = eval_on_coroot(w, roots[root_index % len(roots)])
    assert value.denominator == 1


def test_weight_support_examples():
    support = weight_support(weight(A1, (3,)))
    assert sorted(int(w.coords[0]) for w in support) == [-3, -1, 1, 3]
    assert len(weight_support(weight(A2, (1, 1)))) == 7
    support = weight_support(weight(C2, (0, 1)))
    assert len(support) == 5
    assert weight(C2, (0, 0)) in support


def test_weight_support_rejects_bad_input():
    with pytest.raises(ValueError):
        weight_support(weight(A2, (-1, 0)))
    with pytest.raises(ValueError):
        weight_support(weight(A2, (Fraction(1, 2), 0)))


@given(
    kind=st.sampled_from(["A2", "C2"]),
    coords=st.lists(st.integers(0, 4), min_size=2, max_size=2),
)
@settings(deadline=None, max_examples=30)
def test_support_closed_under_simple_reflections(kind, coords):
    from tightmaps.rootsys import reflect_simple

    system = build_root_system(kind)
    support = weight_support(weight(system, coords))
    for w in support:
        for i in range(system.rank):
            assert reflect_simple(w, i) in support


def test_multiplicity_examples():
    mults = weight_multiplicities(weight(A2, (1, 1)))
    assert mults[weight(A2, (0, 0))] == 2
    assert sum(mults.values()) == 8
    assert all(m == 1 for w, m in mults.items() if w.coords != (0, 0))

    mults = weight_multiplicities(weight(A1, (5,)))
    assert sorted(int(w.coords[0]) for w in mults) == [-5, -3, -1, 1, 3, 5]
    assert set(mults.values()) == {1}

    mults = weight_multiplicities(weight(C2, (1, 0)))
    assert len(mults) == 4 and set(mults.values()) == {1}


def test_multiplicity_constant_on_orbits():
    mults = weight_multiplicities(weight(C2, (2, 2)))
    for w, m in mults.items():
        for v in weyl_orbit(w):
            assert mults[v] == m


def test_dimension_examples():
    assert dimension(weight(C2, (1, 0))) == 4
    assert dimension(weight(C2, (0, 1))) == 5
    assert dimension(weight(A2, (1, 0))) == 3
    assert dimension(weight(A2, (1, 1))) == 8


def test_dimension_agrees_with_freudenthal_up_to_ten():
    for system in (A1, A2, C2):
        if system.rank == 1:
            tops = [(k,) for k in range(11)]
        else:
            tops = [(k, l) for k in range(11) for l in range(11 - k)]
        for top in tops:
            w = weight(system, top)
            assert sum(weight_multiplicities(w).values()) == dimension(w)


def test_product_system_factorises():
    prod = build_root_system("C2+A1")
    w = weight(prod, (1, 0, 2))
    assert dimension(w) == 4 * 3
    support = weight_support(w)
    assert len(support) == 12
    mults = weight_multiplicities(weight(prod, (1, 1, 1)))
    assert sum(mults.values()) == 16 * 2


def _full_support_oracle(system, top):
    """Freudenthal on every weight of the support, found by a member walk.

    The support is walked down simple roots from the top; a candidate mu
    belongs to it iff its dominant representative lies below the top.  This
    is the recursion the dominant-only table replaced, kept as its oracle.
    """
    cartan, rank = system.cartan_matrix, system.rank

    def member(mu, depth):
        cur, depth = list(mu), list(depth)
        while True:
            neg = next((i for i, c in enumerate(cur) if c < 0), None)
            if neg is None:
                return all(n >= 0 for n in depth)
            mi = cur[neg]
            depth[neg] += mi
            for j in range(rank):
                cur[j] -= mi * cartan[j][neg]

    support = {top: (0,) * rank}
    frontier = [top]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(rank):
                cand = tuple(mu[j] - cartan[j][i] for j in range(rank))
                depth = tuple(d + (j == i) for j, d in enumerate(support[mu]))
                if cand not in support and member(cand, depth):
                    support[cand] = depth
                    nxt.append(cand)
        frontier = nxt

    positive = [system.root_table[r] for r in system.positive_roots]
    simple_half = [system.root_table[a].half_norm for a in system.simple_roots]
    mults = {top: 1}
    for mu in sorted(support, key=lambda mu: sum(support[mu])):
        if mu == top:
            continue
        num = 0
        for entry in positive:
            value = sum(m * c for m, c in zip(mu, entry.coroot))
            up, k = mu, 1
            while True:
                up = tuple(u + a for u, a in zip(up, entry.fundamental))
                if up not in support:
                    break
                num += entry.half_norm * (value + 2 * k) * mults[up]
                k += 1
        denom = sum(
            h * n * (t + m + 2)
            for h, n, t, m in zip(simple_half, support[mu], top, mu)
        )
        assert (2 * num) % denom == 0
        mults[mu] = 2 * num // denom
    return mults


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.kind)
def test_multiplicity_table_matches_full_support_oracle(system):
    for top in itertools.product(range(13), repeat=system.rank):
        if sum(top) > 12:
            continue
        table = _multiplicity_table(system, top)
        assert table == _full_support_oracle(system, top), top
        support = weight_support(weight(system, top))
        assert support == {weight(system, mu) for mu in table}, top


def test_support_equals_multiplicity_support():
    w = weight(C2, (2, 1))
    assert weight_support(w) == frozenset(weight_multiplicities(w))


@given(
    kind=st.sampled_from(["A1", "A2", "C2"]),
    coords=st.lists(
        st.fractions(min_value=-4, max_value=4), min_size=2, max_size=2
    ),
)
@settings(deadline=None, max_examples=40)
def test_euclid_round_trip(kind, coords):
    from tightmaps.rootsys import weight_from_euclid

    system = build_root_system(kind)
    w = weight(system, coords[: system.rank])
    assert weight_from_euclid(system, w.euclid()) == w
