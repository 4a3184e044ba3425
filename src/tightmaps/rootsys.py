"""Exact root-system data for the simple kinds A1, A2 and C2.

Each system is derived from its Cartan data alone: the Cartan matrix,
cartan[i][j] = <alpha_j, alpha_i^vee>, and the half squared lengths
D_i = (alpha_i, alpha_i)/2 of the simple roots (C2's alpha_2 is the long
root).  A root is named by its simple-root coefficients, and a weight by its
coordinates in the fundamental-weight basis, both integer tuples.  Each
system holds one integer table giving every root's coroot functional,
fundamental coordinates and half squared length, and everything here runs
on integers through it.  Membership of a weight is a dominance test, with
no multiplicities.  One kernel, the Weyl numerator divided by 1 - e^-alpha
(``_weyl_numerator`` and ``_divide``), gives both the branchings of
``tightmaps.branching`` and, divided by every positive root, the character
that multiplicity queries read, off the commands' path.  A Euclidean
realisation of the roots, and Freudenthal's recursion, are the oracles the
tests check these against.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import lru_cache

from .errors import VerificationError


# What a simple kind is built from.
_CartanData = namedtuple("_CartanData", (
    "positive",  # positive roots, simple-root coefficients
    "cartan",  # cartan[i][j] = <alpha_j, alpha_i^vee>
    "half_norms",  # (alpha_i, alpha_i) / 2
    "weyl_order",
    "noncompact",  # indices of the noncompact simple roots
))


_KIND_DATA = {
    "A1": _CartanData(((1,),), ((2,),), (1,), 2, (0,)),
    "A2": _CartanData(((1, 0), (0, 1), (1, 1)), ((2, -1), (-1, 2)), (1, 1), 6, (0,)),
    "C2": _CartanData(((1, 0), (0, 1), (1, 1), (2, 1)), ((2, -2), (-1, 2)), (1, 2), 8, (1,)),
}


# Integer data of one root beta, derived from the Cartan data.
RootEntry = namedtuple("RootEntry", (
    "coroot",  # <omega_i, beta^vee> for each fundamental weight
    "fundamental",  # <beta, alpha_j^vee>, i.e. beta as a weight
    "half_norm",  # (beta, beta) / 2
))


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


class WeightVector(namedtuple("_WeightVector", "coords system")):
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
    return frozenset(WeightVector(nu, w.system) for nu in _orbit(w.system, w.coords))


def _require_dominant(w: WeightVector) -> None:
    if not w.is_dominant:
        raise ValueError(f"weight {w.coords} is not dominant")


def _orbit(system: RootSystemData, mu: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Closure of a weight under the simple reflections, itself first.

    s_i subtracts x_i alpha_i from a weight x; alpha_i is column i of the Cartan matrix.
    """
    columns = list(zip(*system.cartan_matrix))
    orbit, seen = [mu], {mu}
    for x in orbit:
        for i, column in enumerate(columns):
            if x[i]:
                image = tuple([a - x[i] * c for a, c in zip(x, column)])
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    return orbit


def _dominant_weights(system: RootSystemData, top: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The dominant weights of V(top), top first.  Dominant mu < nu are
    joined by a chain of dominant weights whose steps are positive roots
    (Stembridge, 1998), so descent reaches them all."""
    positive = [system.root_table[r].fundamental for r in system.positive_roots]
    found, seen = [top], {top}
    for mu in found:
        for fundamental in positive:
            cand = tuple(map(operator.sub, mu, fundamental))
            if min(cand) >= 0 and cand not in seen:
                seen.add(cand)
                found.append(cand)
    return found


def is_weight(highest: WeightVector, mu: tuple[int, ...]) -> bool:
    """Whether the int coordinates ``mu`` are a weight of the irrep: reflected
    to dominant, top - mu = C n (C the Cartan matrix, whose columns are the
    simple roots) has n >= 0 integral (Humphreys, section 21.3)."""
    _require_dominant(highest)
    cartan = highest.system.cartan_matrix
    columns, mu = list(zip(*cartan)), tuple(mu)
    while min(mu) < 0:  # reflect in the most negative coordinate
        i = mu.index(min(mu))
        mi = mu[i]
        mu = tuple([m - mi * c for m, c in zip(mu, columns[i])])
    delta = tuple(map(operator.sub, highest.coords, mu))
    if len(cartan) == 1:
        return delta[0] >= 0 and delta[0] % cartan[0][0] == 0
    (a, b), (c, d) = cartan
    det = a * d - b * c
    return all(n >= 0 and n % det == 0
               for n in (d * delta[0] - b * delta[1], a * delta[1] - c * delta[0]))


def _weyl_numerator(system: RootSystemData, top: tuple[int, ...]) -> dict[tuple, int]:
    """A(top + rho) as {w(top + rho): eps(w)}, walked from top + rho by the
    simple reflections in turn, each of which flips eps: in the dihedral W of
    rank at most two the walk meets every w once in |W| steps.  top + rho is
    regular, so its orbit is free; an orbit short of |W| points raises."""
    columns = list(zip(*system.cartan_matrix))
    x = tuple([t + 1 for t in top])
    terms: dict[tuple, int] = {}
    for step in range(system.weyl_order):
        terms[x] = -1 if step % 2 else 1
        i = step % len(columns)
        xi = x[i]
        x = tuple([a - xi * c for a, c in zip(x, columns[i])])  # s_i x = x - x_i alpha_i
    if len(terms) != system.weyl_order:
        raise VerificationError(
            f"the orbit of {system.kind} {top} + rho has {len(terms)} points, "
            f"not |W| = {system.weyl_order}"
        )
    return terms


def _divide(values: dict[tuple, int], alpha: tuple[int, int]) -> dict[tuple, int] | None:
    """``values`` / (1 - e^-alpha) in rank two, or None when it is not exact.

    Q(mu) = values(mu) + Q(mu + alpha) is a running sum down each alpha-line,
    exact iff every line sums to 0.  The points of ``values`` are taken in
    descending coordinate i, one with alpha_i > 0, so the sum from above has
    reached each of them; from there it is written down the line to just
    above its next point.  A sum still running below the lowest coordinate i
    of ``values`` is a line that does not sum to 0."""
    a0, a1 = alpha
    i = 0 if a0 >= a1 else 1
    order = sorted(values, key=operator.itemgetter(i), reverse=True)
    floor = order[-1][i] if order else 0
    out: dict[tuple, int] = {}
    for x in order:
        total = values[x] + out.get((x[0] + a0, x[1] + a1), 0)
        while total:
            out[x] = total
            x = (x[0] - a0, x[1] - a1)
            if x in values:
                break  # the point below takes the sum on
            if x[i] < floor:
                return None
    return out


@lru_cache(maxsize=None)
def _multiplicity_table(system: RootSystemData, top: tuple[int, ...]) -> dict[tuple, int]:
    """Every weight of V(top), int coordinates to multiplicity; do not mutate.

    A(top + rho) divided by 1 - e^-alpha for every positive root alpha is
    e^rho ch V(top) (Weyl's character formula), read back by rho = (1, ..., 1);
    in A1 the irrep is the string top, top - 2, ..., -top.  An inexact
    division, a count below 1 and a total other than the Weyl dimension each
    raise.
    """
    if system.rank == 1:
        (k,) = top
        mults = {(m,): 1 for m in range(k, -k - 1, -2)}
    else:
        quotient = _weyl_numerator(system, top)
        for root in system.positive_roots:
            quotient = _divide(quotient, system.root_table[root].fundamental)
            if quotient is None:
                raise VerificationError(f"character of {system.kind} {top}: the Weyl "
                                        f"numerator is not divisible by 1 - e^-{root}")
        mults = {(x0 - 1, x1 - 1): c for (x0, x1), c in quotient.items()}
    if (low := min(mults.values())) < 1:
        raise VerificationError(f"character of {system.kind} {top}: a weight counts {low}")
    if (total := sum(mults.values())) != (dim := _weyl_dimension(system, top)):
        raise VerificationError(f"character of {system.kind} {top}: "
                                f"multiplicities sum to {total}, not {dim}")
    return mults


def weight_multiplicities(highest: WeightVector) -> dict[WeightVector, int]:
    """Weight multiplicities of the irrep, from the character table."""
    _require_dominant(highest)
    system = highest.system
    return {WeightVector(mu, system): m
            for mu, m in _multiplicity_table(system, highest.coords).items()}


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
