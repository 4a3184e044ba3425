"""Root-system data, orbits, supports, multiplicities, dimensions."""

import itertools
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tightmaps.rootsys
from tightmaps.branching import SubalgebraError, make_subalgebra
from tightmaps.errors import VerificationError
from tightmaps.rootsys import (
    _KIND_DATA,
    WeightVector,
    _multiplicity_table,
    build_root_system,
    dimension,
    eval_on_coroot,
    is_weight,
    weight,
    weight_multiplicities,
    weyl_orbit,
)

A1 = build_root_system("A1")
A2 = build_root_system("A2")
C2 = build_root_system("C2")
SYSTEMS = (A1, A2, C2)


def vsum(*vecs):
    return tuple(sum(parts) for parts in zip(*vecs))


# The oracle: a Euclidean realisation over the rationals, with the standard
# dot product, as (simple roots, fundamental weights) per kind.
#   A1:  alpha = (1, -1) in Q^2
#   A2:  alpha_1 = e1 - e2, alpha_2 = e2 - e3 in the sum-zero subspace of Q^3
#   C2:  alpha_1 = (1, -1), alpha_2 = (0, 2) in Q^2  (alpha_2 is the long root)
EUCLID = {
    "A1": ([(1, -1)], [(Fraction(1, 2), Fraction(-1, 2))]),
    "A2": (
        [(1, -1, 0), (0, 1, -1)],
        [(Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)),
         (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))],
    ),
    "C2": ([(1, -1), (0, 2)], [(1, 0), (1, 1)]),
}


def _realised(system, part):
    """Simple roots (part 0) or fundamental weights (part 1)."""
    return tuple(tuple(map(Fraction, v)) for v in EUCLID[system.kind][part])


def simple_vectors(system):
    return _realised(system, 0)


def fundamental_vectors(system):
    return _realised(system, 1)


def dot(x, y):
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def combine(coeffs, vectors):
    """sum_i c_i v_i."""
    out = (Fraction(0),) * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        out = tuple(o + c * x for o, x in zip(out, v))
    return out


def euclid(w):
    """A weight as a Euclidean vector, from its fundamental coordinates."""
    return combine(w.coords, fundamental_vectors(w.system))


def root_vector(system, root):
    """A root as a Euclidean vector, from its simple-root coefficients."""
    return combine(root, simple_vectors(system))


def test_unsupported_kind_rejected():
    # only the three simple kinds, spelled exactly: no direct sums, in
    # either spelling, and no case folding
    for kind in ("B2", "", "C2+A1", "A1+A1", "c2", ("C2", "A1")):
        with pytest.raises(ValueError, match="unsupported root-system kind"):
            build_root_system(kind)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.kind)
def test_dual_basis_property(system):
    for i, w in enumerate(fundamental_vectors(system)):
        for j, a in enumerate(simple_vectors(system)):
            assert 2 * dot(w, a) / dot(a, a) == (1 if i == j else 0)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.kind)
def test_cartan_matrix_matches_realisation(system):
    for i, ai in enumerate(simple_vectors(system)):
        for j, aj in enumerate(simple_vectors(system)):
            assert system.cartan_matrix[i][j] == 2 * dot(aj, ai) / dot(ai, ai)


def test_standard_cartan_matrices():
    assert A1.cartan_matrix == ((2,),)
    assert A2.cartan_matrix == ((2, -1), (-1, 2))
    assert C2.cartan_matrix == ((2, -2), (-1, 2))


def test_c2_long_root_convention():
    a1, a2 = simple_vectors(C2)
    assert dot(a2, a2) > dot(a1, a1)
    s1, s2 = C2.simple_roots
    assert C2.root_table[s2].half_norm > C2.root_table[s1].half_norm
    assert C2.is_noncompact_root(s2)
    assert not C2.is_noncompact_root(s1)


def test_fundamental_weight_relations():
    a1, a2 = simple_vectors(C2)
    assert fundamental_vectors(C2)[0] == tuple(x / 2 for x in vsum(a1, a1, a2))
    assert fundamental_vectors(C2)[1] == vsum(a1, a2)
    b1, b2 = simple_vectors(A2)
    assert fundamental_vectors(A2)[0] == tuple(x / 3 for x in vsum(b1, b1, b2))
    assert fundamental_vectors(A2)[1] == tuple(x / 3 for x in vsum(b1, b2, b2))
    (alpha,) = simple_vectors(A1)
    assert fundamental_vectors(A1)[0] == tuple(x / 2 for x in alpha)
    assert A1.roots() == ((1,), (-1,))


def _reflection_closure(vectors):
    """The orbit of ``vectors`` under the reflections in their own members."""
    found, frontier = set(vectors), list(vectors)
    for v in frontier:
        for a in vectors:
            image = tuple(x - 2 * dot(v, a) / dot(a, a) * y for x, y in zip(v, a))
            if image not in found:
                found.add(image)
                frontier.append(image)
    return found


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.kind)
def test_root_table_matches_euclidean_oracle(system):
    # the table derived from Cartan data alone, negative roots included,
    # against the Euclidean formulas; its keys realise the whole root set,
    # which for a reduced system is the Weyl orbit of the simple roots
    simple, fundamental = simple_vectors(system), fundamental_vectors(system)
    assert len(system.root_table) == 2 * len(system.positive_roots)
    vectors = {root: root_vector(system, root) for root in system.root_table}
    assert set(vectors.values()) == _reflection_closure(simple)
    for root, entry in system.root_table.items():
        beta = vectors[root]
        norm = dot(beta, beta)
        assert all(type(x) is int for x in (*entry.coroot, *entry.fundamental, entry.half_norm))
        assert entry.coroot == tuple(2 * dot(w, beta) / norm for w in fundamental), root
        assert entry.fundamental == tuple(2 * dot(beta, a) / dot(a, a) for a in simple), root
        assert entry.half_norm == norm / 2, root


def test_rank_two_subalgebras_are_exactly_the_orthogonal_long_pairs():
    # every ordered pair of distinct roots through make_subalgebra: A2 has no
    # rank-two subalgebra here, C2 exactly +-a2 with +-(2a1+a2) in either
    # order, and each accepted pair is orthogonal in the Euclidean oracle
    accepted = {}
    for system in (A2, C2):
        accepted[system.kind] = []
        for x, y in itertools.permutations(system.roots(), 2):
            try:
                make_subalgebra(system, [x, y])
            except SubalgebraError:
                continue
            accepted[system.kind].append((x, y))
    long_roots = [(0, 1), (2, 1), (0, -1), (-2, -1)]
    expected = [(x, y) for x in long_roots for y in long_roots
                if x != y and x != tuple(-c for c in y)]
    assert accepted["A2"] == []
    assert len(expected) == 8 and sorted(accepted["C2"]) == sorted(expected)
    for x, y in accepted["C2"]:
        assert dot(root_vector(C2, x), root_vector(C2, y)) == 0, (x, y)


def test_swapped_c2_half_norms_fail_the_build(monkeypatch):
    # a planted fault in the Cartan data: with alpha_1 taken as the long root,
    # (a1+a2, a1+a2) = 1 and the half norm is not an integer.  The uncached
    # build runs, so the interned C2 stays as it is.
    assert build_root_system.__wrapped__("C2").root_table == C2.root_table
    monkeypatch.setitem(_KIND_DATA, "C2", _KIND_DATA["C2"]._replace(half_norms=(2, 1)))
    with pytest.raises(VerificationError, match="non-integral"):
        build_root_system.__wrapped__("C2")
    assert build_root_system("C2") is C2


def test_weight_rejects_non_integral_coordinates():
    with pytest.raises(ValueError, match=r"weight \(1/2, 0\) is not integral"):
        weight(A2, (Fraction(1, 2), 0))
    w = weight(A2, (Fraction(4, 2), 1))
    assert w.coords == (2, 1) and all(type(c) is int for c in w.coords)


def test_eval_on_coroot_examples():
    a1, a2 = C2.simple_roots
    assert eval_on_coroot(weight(C2, (0, 3)), vsum(a1, a2)) == 6
    assert eval_on_coroot(weight(C2, (2, 1)), vsum(a1, a1, a2)) == 3
    assert eval_on_coroot(weight(A2, (4, 0)), A2.simple_roots[0]) == 4


def test_eval_on_coroot_rejects_non_roots():
    with pytest.raises(ValueError):
        eval_on_coroot(weight(C2, (1, 0)), (3, 0))


@given(k=st.integers(0, 8), l=st.integers(0, 8))
@settings(deadline=None, max_examples=40)
def test_c2_coroot_identities(k, l):
    a1, a2 = C2.simple_roots
    w = weight(C2, (k, l))
    assert eval_on_coroot(w, vsum(a1, a2)) == k + 2 * l
    assert eval_on_coroot(w, vsum(a1, a1, a2)) == k + l


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.kind)
def test_eval_on_coroot_matches_euclidean_oracle(system):
    roots = system.roots()
    assert len(roots) == 2 * len(system.positive_roots)
    for coords in itertools.product(range(-3, 4), repeat=system.rank):
        w = weight(system, coords)
        e = euclid(w)
        for r in roots:
            v = root_vector(system, r)
            assert eval_on_coroot(w, r) == 2 * dot(e, v) / dot(v, v), (coords, r)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.kind)
def test_dimension_matches_euclidean_weyl_product(system):
    rho = combine((1,) * system.rank, fundamental_vectors(system))
    for top in itertools.product(range(7), repeat=system.rank):
        if sum(top) > 6:
            continue
        lam_rho = tuple(a + b for a, b in zip(euclid(weight(system, top)), rho))
        expected = Fraction(1)
        for root in system.positive_roots:
            alpha = root_vector(system, root)
            expected *= dot(lam_rho, alpha) / dot(rho, alpha)
        assert dimension(weight(system, top)) == expected, top


def test_weyl_orbit_examples():
    orbit = weyl_orbit(weight(A2, (1, 0)))
    assert {w.coords for w in orbit} == {
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
    assert {w.coords for w in orbit} == expected


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
    assert type(value) is int


def reflect_simple(w, i):
    """Simple reflection s_i in fundamental-weight coordinates."""
    mi = w.coords[i]
    new = tuple(c - mi * w.system.cartan_matrix[j][i] for j, c in enumerate(w.coords))
    return WeightVector(new, w.system)


def weight_from_euclid(system, vec):
    """Inverse of ``euclid`` on the weight lattice.

    Coordinates are read off by evaluating against the simple coroots, so
    converting a weight to Euclidean coordinates and back is the identity.
    """
    return weight(system, (2 * dot(vec, a) / dot(a, a) for a in simple_vectors(system)))


def weight_support(highest):
    """All weights of the irreducible representation with this highest weight."""
    return frozenset(weight_multiplicities(highest))


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


def _full_support_oracle(system, top):
    """Freudenthal on the dominant weights of the support, spread over orbits.

    The dominant weights below the top are walked down positive roots from
    it (Stembridge: each is reached through dominant weights).  They are
    taken in order of depth, Freudenthal's recursion gives each one's
    multiplicity from weights higher up, and the multiplicity is written at
    every point of its Weyl orbit, walked by simple reflections
    (Moody-Patera).  Each mu + k alpha the recursion reads is higher than
    mu, and so is its dominant representative, so its orbit is written by
    then.  This recursion is independent of the Weyl numerator, and is the
    oracle of the character table that dividing it builds.
    """
    rank = system.rank
    positive = [(r, system.root_table[r]) for r in system.positive_roots]
    depths = {top: (0,) * rank}
    frontier = [top]
    while frontier:
        nxt = []
        for mu in frontier:
            for r, entry in positive:
                cand = tuple(m - f for m, f in zip(mu, entry.fundamental))
                if min(cand) >= 0 and cand not in depths:
                    depths[cand] = tuple(d + c for d, c in zip(depths[mu], r))
                    nxt.append(cand)
        frontier = nxt

    simple_half = [system.root_table[a].half_norm for a in system.simple_roots]
    mults = {}
    for mu in sorted(depths, key=lambda mu: sum(depths[mu])):
        count = 1
        if mu != top:
            num = 0
            for _, entry in positive:
                value = sum(m * c for m, c in zip(mu, entry.coroot))
                up, k = mu, 1
                while True:
                    up = tuple(u + a for u, a in zip(up, entry.fundamental))
                    if up not in mults:
                        break
                    num += entry.half_norm * (value + 2 * k) * mults[up]
                    k += 1
            denom = sum(
                h * n * (t + m + 2)
                for h, n, t, m in zip(simple_half, depths[mu], top, mu)
            )
            assert (2 * num) % denom == 0
            count = 2 * num // denom
        mults.update(dict.fromkeys(_orbit_signs(system, mu), count))
    return mults


def test_an_inexact_character_is_a_verification_error(monkeypatch):
    # a division planted to be inexact, then a Weyl dimension off by one:
    # each raises, naming the kind and the top, and nothing is cached
    real = tightmaps.rootsys._weyl_dimension
    faults = (
        ("_divide", lambda values, alpha: None, (A2, C2), "not divisible by 1 - e\\^-"),
        ("_weyl_dimension", lambda system, top: real(system, top) + 1, SYSTEMS, "sum to"),
    )
    for name, fault, systems, reason in faults:
        _multiplicity_table.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(tightmaps.rootsys, name, fault)
            for system in systems:
                top = (2, 1)[: system.rank]
                message = rf"^character of {system.kind} {re.escape(str(top))}: .*{reason}"
                with pytest.raises(VerificationError, match=message):
                    weight_multiplicities(weight(system, top))
        assert _multiplicity_table.cache_info().currsize == 0
    _multiplicity_table.cache_clear()


def test_an_inexact_weyl_dimension_names_the_system():
    # no root system has the coroots (1, 0) and (1, 1), which give (0, 1) the
    # dimension 3/2, so a stand-in reaches the raise
    table = {"a": SimpleNamespace(coroot=(1, 0)), "b": SimpleNamespace(coroot=(1, 1))}
    system = SimpleNamespace(kind="X2", positive_roots=("a", "b"), root_table=table)
    with pytest.raises(VerificationError, match=r"^Weyl dimension of X2 \(0, 1\) is 3/2$"):
        tightmaps.rootsys._weyl_dimension(system, (0, 1))


def _orbit_signs(system, v):
    """The Weyl orbit of v, walked by simple reflections, each flipping a sign.

    For a regular v the images are in bijection with W, and the sign of
    w(v) is sign(w).
    """
    columns = list(zip(*system.cartan_matrix))
    images, frontier = {v: 1}, [v]
    for x in frontier:
        for i, column in enumerate(columns):
            y = tuple(a - x[i] * col for a, col in zip(x, column))
            if y not in images:
                images[y] = -images[x]
                frontier.append(y)
    return images


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.kind)
def test_multiplicity_table_matches_full_support_oracle(system):
    # every A2 and C2 top with coordinate sum up to 20, and A1 up to 40
    bound = 40 if system.rank == 1 else 20
    for top in itertools.product(range(bound + 1), repeat=system.rank):
        if sum(top) > bound:
            continue
        table = _multiplicity_table(system, top)
        assert table == _full_support_oracle(system, top), top
        assert {w.coords for w in weight_multiplicities(weight(system, top))} == set(table), top


def _tops(bound):
    return [(k, l) for k in range(bound + 1) for l in range(bound + 1 - k)]


def _simple_root_coords(system, delta):
    """``delta``, in fundamental coordinates, in the simple-root basis (rank two).

    Solves delta_i = sum_j cartan[i][j] c_j by Cramer's rule; None when
    ``delta`` is off the root lattice.
    """
    (a, b), (c, d) = system.cartan_matrix
    det = a * d - b * c
    coords = (
        Fraction(delta[0] * d - b * delta[1], det),
        Fraction(a * delta[1] - delta[0] * c, det),
    )
    if any(x.denominator != 1 for x in coords):
        return None
    return tuple(int(x) for x in coords)


def _partition_counts(system, size):
    """Kostant's partition function on [0, size]^2, by DP over the positive roots.

    P(c) counts the ways to write sum_i c_i alpha_i as a sum of positive
    roots; each root is a coin that may be used any number of times.
    """
    rank = system.rank
    counts = dict.fromkeys(itertools.product(range(size + 1), repeat=rank), 0)
    counts[(0,) * rank] = 1
    for root in system.positive_roots:
        coin = root
        for c in sorted(counts):  # c - coin sorts before c
            prev = tuple(x - y for x, y in zip(c, coin))
            if min(prev) >= 0:
                counts[c] += counts[prev]
    return counts


@pytest.mark.parametrize("system", (A2, C2), ids=lambda s: s.kind)
def test_multiplicities_match_the_kostant_formula(system):
    # m(mu) = sum_w sign(w) P(w(lam + rho) - (mu + rho)) (Kostant, 1959),
    # checked on every weight and on every simple-root neighbour outside
    # the support, where it must vanish
    size = 20
    counts = _partition_counts(system, size)
    columns = list(zip(*system.cartan_matrix))
    for top in _tops(8):
        mults = {
            w.coords: m
            for w, m in weight_multiplicities(weight(system, top)).items()
        }
        images = _orbit_signs(system, tuple(t + 1 for t in top))

        def kostant(mu):
            total = 0
            for image, sign in images.items():
                c = _simple_root_coords(system, tuple(x - m - 1 for x, m in zip(image, mu)))
                if c is not None and min(c) >= 0:
                    assert max(c) <= size
                    total += sign * counts[c]
            return total

        neighbours = {
            tuple(x + s * col for x, col in zip(mu, column))
            for mu in mults
            for column in columns
            for s in (1, -1)
        }
        for mu in set(mults) | neighbours:
            assert kostant(mu) == mults.get(mu, 0), (top, mu)


def _convex_hull(points):
    """Vertices of the convex hull of integer points, by the monotone chain."""
    points = sorted(set(points))
    if len(points) <= 2:
        return points

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(points) + half(points[::-1])


@pytest.mark.parametrize("system", (A2, C2), ids=lambda s: s.kind)
def test_support_size_matches_picks_theorem(system):
    # the support is the coset top + Q inside the convex hull of the Weyl
    # orbit, so in simple-root coordinates of top - mu it is the lattice
    # points of a polygon: area + boundary/2 + 1 (Pick)
    for top in _tops(15):
        orbit = weyl_orbit(weight(system, top))
        hull = _convex_hull(
            _simple_root_coords(system, tuple(t - int(c) for t, c in zip(top, w.coords)))
            for w in orbit
        )
        edges = list(zip(hull, hull[1:] + hull[:1]))
        twice_area = abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges))
        boundary = sum(math.gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in edges)
        assert len(weight_support(weight(system, top))) == (twice_area + boundary) // 2 + 1, top


def multiplicity(highest, mu):
    """Multiplicity of the int coordinates ``mu``, reflected to dominant; 0 off the support.

    The table lookup that ``is_weight`` replaced on the command path.
    """
    columns = list(zip(*highest.system.cartan_matrix))
    while min(mu) < 0:
        i = mu.index(min(mu))
        mu = tuple(m - mu[i] * c for m, c in zip(mu, columns[i]))
    return _multiplicity_table(highest.system, highest.coords).get(mu, 0)


@pytest.mark.parametrize("system", (A2, C2), ids=lambda s: s.kind)
def test_is_weight_is_table_membership(system):
    # every top with coordinates up to 20, against every dominant weight of
    # a box past the top's dominant weights: the dominant keys of the table
    for top in itertools.product(range(21), repeat=2):
        dominant = {mu for mu in _multiplicity_table(system, top) if min(mu) >= 0}
        bound = max(max(mu) for mu in dominant) + 3
        highest = weight(system, top)
        found = {mu for mu in itertools.product(range(bound), repeat=2)
                 if is_weight(highest, mu)}
        assert found == dominant, top
    for top in itertools.product(range(9), repeat=2):  # and every weight of a +-12 box
        highest = weight(system, top)
        for mu in itertools.product(range(-12, 13), repeat=2):
            assert is_weight(highest, mu) == bool(multiplicity(highest, mu)), (top, mu)
    _multiplicity_table.cache_clear()


def test_is_weight_on_a1_and_bad_input():
    highest = weight(A1, (5,))
    assert [k for k in range(-7, 8) if is_weight(highest, (k,))] == [-5, -3, -1, 1, 3, 5]
    with pytest.raises(ValueError, match="not dominant"):
        is_weight(weight(A2, (-1, 0)), (0, 0))


@pytest.mark.parametrize("system", (A2, C2), ids=lambda s: s.kind)
def test_multiplicity_reflects_into_the_dominant_table(system):
    # every weight of a box around the support is answered by reflecting it
    # to its dominant representative (0 off it): the table is W-invariant
    for top in _tops(6):
        highest = weight(system, top)
        mults = {w.coords: m
                 for w, m in weight_multiplicities(highest).items()}
        low = min(min(mu) for mu in mults) - 1
        high = max(max(mu) for mu in mults) + 1
        for mu in itertools.product(range(low, high + 1), repeat=2):
            assert multiplicity(highest, mu) == mults.get(mu, 0), (top, mu)


def test_support_equals_multiplicity_support():
    w = weight(C2, (2, 1))
    assert {v.coords for v in weight_support(w)} == set(_full_support_oracle(C2, (2, 1)))


@given(
    kind=st.sampled_from(["A1", "A2", "C2"]),
    coords=st.lists(st.integers(-4, 4), min_size=2, max_size=2),
)
@settings(deadline=None, max_examples=40)
def test_euclid_round_trip(kind, coords):
    system = build_root_system(kind)
    w = weight(system, coords[: system.rank])
    assert weight_from_euclid(system, euclid(w)) == w
