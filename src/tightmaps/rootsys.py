"""Exact root-system data for the simple kinds A1, A2 and C2.

Each system is derived from its Cartan data alone: the Cartan matrix,
cartan[i][j] = <alpha_j, alpha_i^vee>, and the half squared lengths
D_i = (alpha_i, alpha_i)/2 of the simple roots (C2's alpha_2 is the long
root).  A root is named by its simple-root coefficients, and a weight by its
coordinates in the fundamental-weight basis, both integer tuples.  Each
system holds one integer table giving every root's coroot functional,
fundamental coordinates and half squared length, and everything here runs
on integers through it.  Membership of a weight is a dominance test, with
no multiplicities; the Freudenthal table on the dominant weights is kept
for multiplicity queries, off the commands' path.  A Euclidean realisation
of the roots is the oracle the tests check the table against.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import VerificationError


class _CartanData(NamedTuple):
    """What a simple kind is built from."""

    positive: tuple[tuple[int, ...], ...]  # positive roots, simple-root coefficients
    cartan: tuple[tuple[int, ...], ...]  # cartan[i][j] = <alpha_j, alpha_i^vee>
    half_norms: tuple[int, ...]  # (alpha_i, alpha_i) / 2
    weyl_order: int
    noncompact: tuple[int, ...]  # indices of the noncompact simple roots


_KIND_DATA = {
    "A1": _CartanData(((1,),), ((2,),), (1,), 2, (0,)),
    "A2": _CartanData(((1, 0), (0, 1), (1, 1)), ((2, -1), (-1, 2)), (1, 1), 6, (0,)),
    "C2": _CartanData(((1, 0), (0, 1), (1, 1), (2, 1)), ((2, -2), (-1, 2)), (1, 2), 8, (1,)),
}


class RootEntry(NamedTuple):
    """Integer data of one root beta, derived from the Cartan data."""

    coroot: tuple[int, ...]  # <omega_i, beta^vee> for each fundamental weight
    fundamental: tuple[int, ...]  # <beta, alpha_j^vee>, i.e. beta as a weight
    half_norm: int  # (beta, beta) / 2


class RootSystemData:
    """Root-system data, with read-only fields.

    Instances are interned by :func:`build_root_system`; identity comparison
    is therefore the intended notion of equality.
    """

    kind: str
    simple_roots: tuple[tuple[int, ...], ...]  # the unit coefficient tuples
    positive_roots: tuple[tuple[int, ...], ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    noncompact_marking: frozenset[int]
    weyl_order: int
    # every root, positive ones first, keyed by its simple-root coefficients
    root_table: dict[tuple[int, ...], RootEntry]
    __slots__ = tuple(__annotations__)  # the annotated names above

    def __init__(self, **fields):
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):  # a copy or unpickled system is the interned one
        return build_root_system, (self.kind,)

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    def roots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.root_table)

    def is_noncompact_root(self, root: tuple[int, ...]) -> bool:
        """A root is noncompact iff its noncompact-simple coefficient is odd.

        For the Hermitian systems handled here the marked simple root occurs
        with coefficient 0 or 1 in every positive root, so parity is exact.
        """
        if root not in self.root_table:
            raise ValueError(f"{root} is not a root of {self.kind}")
        return sum(root[i] for i in self.noncompact_marking) % 2 == 1


@lru_cache(maxsize=None)
def build_root_system(kind: str) -> RootSystemData:
    """Build (and intern) the root system of ``kind``: ``"A1"``, ``"A2"`` or ``"C2"``."""
    if kind not in _KIND_DATA:
        raise ValueError(f"unsupported root-system kind: {kind!r}")
    data = _KIND_DATA[kind]
    rank = len(data.cartan)

    def integer(num: int, den: int, root: tuple[int, ...]) -> int:
        if num % den:
            raise VerificationError(
                f"{kind}: root {root} has the non-integral table entry {num}/{den}"
            )
        return num // den

    # the integer root table: with beta = sum_i c_i alpha_i, (alpha_i, beta)
    # = D_i <beta, alpha_i^vee> and (omega_i, alpha_j) = D_i delta_ij
    table = {}
    for root in data.positive:
        fundamental = tuple(sum(map(operator.mul, root, row)) for row in data.cartan)
        norm = sum(c * d * f for c, d, f in zip(root, data.half_norms, fundamental))
        table[root] = RootEntry(
            tuple(integer(2 * c * d, norm, root) for c, d in zip(root, data.half_norms)),
            fundamental,
            integer(norm, 2, root),
        )
    for root, entry in list(table.items()):
        negated = [tuple(-c for c in v) for v in (root, entry.coroot, entry.fundamental)]
        table[negated[0]] = RootEntry(*negated[1:], entry.half_norm)

    return RootSystemData(
        kind=kind,
        simple_roots=tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank)),
        positive_roots=data.positive,
        cartan_matrix=data.cartan,
        noncompact_marking=frozenset(data.noncompact),
        weyl_order=data.weyl_order,
        root_table=table,
    )


class _WeightVector(NamedTuple):
    coords: tuple[int, ...]
    system: RootSystemData


class WeightVector(_WeightVector):
    """A weight, stored by its integer fundamental-weight coordinates."""

    __slots__ = ()

    def __new__(cls, coords: tuple[int, ...], system: RootSystemData):
        if len(coords) != system.rank:
            raise ValueError(f"expected {system.rank} coordinates, got {len(coords)}")
        return super().__new__(cls, coords, system)

    def __hash__(self):
        return hash((self.coords, id(self.system)))

    def __eq__(self, other):
        return (
            isinstance(other, WeightVector)
            and self.system is other.system
            and self.coords == other.coords
        )

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)


def weight(system: RootSystemData, coords: Iterable) -> WeightVector:
    """The weight with these fundamental coordinates, each an integer."""
    coords = tuple(coords)
    ints = tuple(int(c) for c in coords)
    if ints != coords:
        raise ValueError(f"weight ({', '.join(map(str, coords))}) is not integral")
    return WeightVector(ints, system)


def eval_on_coroot(w: WeightVector, root: tuple[int, ...]) -> int:
    """<w, root^vee> = sum_i m_i <omega_i, root^vee>, from the root table."""
    entry = w.system.root_table.get(tuple(root))
    if entry is None:
        raise ValueError(f"{tuple(root)} is not a root of {w.system.kind}")
    return sum(m * c for m, c in zip(w.coords, entry.coroot))


def weyl_orbit(w: WeightVector) -> frozenset[WeightVector]:
    """Closure of ``w`` under all simple reflections."""
    return frozenset(WeightVector(nu, w.system) for (nu,) in _orbit(w.system, (w.coords,)))


def _require_dominant(w: WeightVector) -> None:
    if not w.is_dominant:
        raise ValueError(f"weight {w.coords} is not dominant")


def _orbit(system: RootSystemData, weights: tuple[tuple, ...]) -> list[tuple]:
    """Closure of a tuple of weights under simultaneous simple reflections, itself first.

    s_i subtracts x_i alpha_i from each weight x; alpha_i is column i of the Cartan matrix.
    """
    columns = list(zip(*system.cartan_matrix))
    orbit, seen = [weights], {weights}
    for xs in orbit:
        for i, column in enumerate(columns):
            if any(x[i] for x in xs):
                image = tuple(tuple([a - x[i] * c for a, c in zip(x, column)]) for x in xs)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    return orbit


def coroot_images(system: RootSystemData, roots) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Coroot rows of the distinct Weyl images of the root tuple ``roots``, itself first."""
    by_weight = {entry.fundamental: entry for entry in system.root_table.values()}
    start = tuple(system.root_table[r].fundamental for r in roots)
    return tuple(tuple(by_weight[b].coroot for b in image) for image in _orbit(system, start))


def _to_dominant(columns: list[tuple[int, ...]], mu: tuple, beta: tuple) -> tuple[tuple, tuple]:
    """(w mu, w beta), w reflecting mu in its most negative coordinate until dominant."""
    while min(mu) < 0:
        i = mu.index(min(mu))
        mi, bi, column = mu[i], beta[i], columns[i]
        mu = tuple([m - mi * c for m, c in zip(mu, column)])
        beta = tuple([b - bi * c for b, c in zip(beta, column)])
    return mu, beta


def orbit_size(system: RootSystemData, mu: tuple[int, ...]) -> int:
    """|W| / |W_mu| for a dominant ``mu``.

    W_mu is the parabolic subgroup on the zero coordinates of mu: all of W
    when mu is 0, and otherwise, in rank at most two, one reflection per zero.
    """
    if not any(mu):
        return 1
    return system.weyl_order // 2 ** mu.count(0)


def _dominant_depths(system: RootSystemData, top: tuple[int, ...]) -> dict[tuple, tuple]:
    """The dominant weights of V(top), each with its depth top - mu in simple
    roots.  Dominant mu < nu are joined by a chain of dominant weights whose
    steps are positive roots (Stembridge, 1998), so descent reaches them all."""
    positive = [system.root_table[r].fundamental for r in system.positive_roots]
    depths = {top: (0,) * system.rank}
    found = [top]
    for mu in found:
        for root, fundamental in zip(system.positive_roots, positive):
            cand = tuple(map(operator.sub, mu, fundamental))
            if min(cand) >= 0 and cand not in depths:
                depths[cand] = tuple(map(operator.add, depths[mu], root))
                found.append(cand)
    return depths


def is_weight(highest: WeightVector, mu: tuple[int, ...]) -> bool:
    """Whether the int coordinates ``mu`` are a weight of the irrep: reflected
    to dominant, top - mu = C n (C the Cartan matrix, whose columns are the
    simple roots) has n >= 0 integral (Humphreys, section 21.3)."""
    _require_dominant(highest)
    cartan = highest.system.cartan_matrix
    mu, _ = _to_dominant(list(zip(*cartan)), tuple(mu), tuple(mu))
    delta = tuple(map(operator.sub, highest.coords, mu))
    if len(cartan) == 1:
        return delta[0] >= 0 and delta[0] % cartan[0][0] == 0
    (a, b), (c, d) = cartan
    det = a * d - b * c
    return all(n >= 0 and n % det == 0
               for n in (d * delta[0] - b * delta[1], a * delta[1] - c * delta[0]))


@lru_cache(maxsize=None)
def _multiplicity_table(system: RootSystemData, top: tuple[int, ...]) -> dict[tuple, int]:
    """Freudenthal recursion on the dominant weights alone (Moody-Patera, 1982).

    The keys are the dominant weights of the irrep; any other weight has the
    multiplicity of its dominant Weyl representative.  With lambda = top and
    top - mu = sum n_i alpha_i, and rho = (1, ..., 1),

        |lambda + rho|^2 - |mu + rho|^2
            = sum_i n_i (alpha_i, alpha_i)/2 * (lambda_i + mu_i + 2)

    times m(mu) is twice the sum of the string tails T(mu, alpha), alpha > 0.
    For a dominant d and a root beta of half squared length h,

        T(d, beta) = sum_(k >= 1) h (<d, beta^vee> + 2k) m(d + k beta)
                   = h (<d, beta^vee> + 2) m(d') + T(d', w beta),

    w carrying d + beta to its dominant representative d'; T is 0 when d' is
    not a weight, since strings are unbroken.  Each d' lies strictly above
    mu, so m(d') is known, and tails are memoised within the one build.  The
    multiplicities times the orbit sizes must sum to the Weyl dimension.
    """
    depths = _dominant_depths(system, top)
    positive = [system.root_table[r] for r in system.positive_roots]
    by_weight = {entry.fundamental: entry for entry in system.root_table.values()}
    columns = list(zip(*system.cartan_matrix))
    simple_half = [system.root_table[a].half_norm for a in system.simple_roots]
    mults: dict[tuple[int, ...], int] = {top: 1}
    tails: dict[tuple, int] = {}

    def tail(d: tuple[int, ...], beta: tuple[int, ...]) -> int:
        # walk up the string to a known or empty tail, then fill back down
        walked = []
        while (d, beta) not in tails:
            up, image = _to_dominant(columns, tuple(map(operator.add, d, beta)), beta)
            if up not in depths:
                tails[d, beta] = 0
                break
            walked.append((d, beta, mults[up]))
            d, beta = up, image
        total = tails[d, beta]
        for d, beta, m in reversed(walked):
            entry = by_weight[beta]
            total += entry.half_norm * (sum(map(operator.mul, d, entry.coroot)) + 2) * m
            tails[d, beta] = total
        return total

    for mu in sorted(depths, key=lambda mu: (sum(depths[mu]), mu)):
        if mu == top:
            continue
        num = sum(tail(mu, entry.fundamental) for entry in positive)
        denom = sum(
            h * n * (t + m + 2)
            for h, n, t, m in zip(simple_half, depths[mu], top, mu)
        )
        if denom <= 0 or (2 * num) % denom != 0 or 2 * num <= 0:
            raise VerificationError(
                f"Freudenthal at {mu} below {top} in {system.kind}: 2*{num}/{denom}"
            )
        mults[mu] = (2 * num) // denom
    total = sum(m * orbit_size(system, mu) for mu, m in mults.items())
    if total != (dim := _weyl_dimension(system, top)):
        raise VerificationError(
            f"multiplicities of {top} in {system.kind} sum to {total}, not {dim}"
        )
    return mults


def dominant_multiplicities(highest: WeightVector) -> dict[tuple[int, ...], int]:
    """The shared cached table, dominant int coordinates to multiplicity; do not mutate."""
    _require_dominant(highest)
    return _multiplicity_table(highest.system, highest.coords)


def weight_multiplicities(highest: WeightVector) -> dict[WeightVector, int]:
    """Weight multiplicities of the irrep, the dominant table expanded along orbits."""
    system = highest.system
    return {
        WeightVector(nu, system): m
        for mu, m in dominant_multiplicities(highest).items()
        for (nu,) in _orbit(system, (mu,))
    }


def dimension(highest: WeightVector) -> int:
    """Weyl dimension formula, prod <lam+rho, alpha^vee> / <rho, alpha^vee>."""
    _require_dominant(highest)
    return _weyl_dimension(highest.system, highest.coords)


def _weyl_dimension(system: RootSystemData, top: tuple[int, ...]) -> int:
    num = 1
    den = 1
    for root in system.positive_roots:
        coroot = system.root_table[root].coroot
        num *= sum((t + 1) * c for t, c in zip(top, coroot))
        den *= sum(coroot)
    if num % den != 0:
        raise VerificationError(f"Weyl dimension of {top} is {num}/{den}")
    return num // den
