"""Exact root-system data for A1, A2, C2 and their finite direct sums.

Each system is realised inside a small Euclidean space over the rationals,
with the standard dot product:

    A1:  alpha = (1, -1) in Q^2
    A2:  alpha_1 = e1 - e2, alpha_2 = e2 - e3 in the sum-zero subspace of Q^3
    C2:  alpha_1 = (1, -1), alpha_2 = (0, 2) in Q^2  (alpha_2 is the long root)

Products concatenate coordinate blocks.  The Euclidean realisation is the
validated fixture: each system derives from it, once, an integer table
holding every root's simple-root coefficients, coroot functional,
fundamental coordinates and half squared length.  Weights are stored by
their coordinates in the fundamental-weight basis, and coroot evaluation,
Freudenthal multiplicities and the Weyl dimension formula all run on
integers through that table.  The multiplicity table holds the dominant
weights only, and Freudenthal's string sums run on them alone through
tails memoised within one build.  Any other weight is reflected into the
dominant chamber and looked up; the support is the union of the dominant
weights' orbits, walked only on request.  Euclidean vectors remain the
names of roots, and the oracle the tests check the table against.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import VerificationError

Vector = tuple[Fraction, ...]

SIMPLE_KINDS = ("A1", "A2", "C2")

# Per-kind data: simple roots, positive roots (with simple-root coefficients),
# Cartan matrix entries cartan[i][j] = <alpha_j, alpha_i^vee>, fundamental
# weights, Weyl group order and indices of noncompact simple roots.
_KIND_DATA = {
    "A1": {
        "simple": [[1, -1]],
        "positive": {(1,): [1, -1]},
        "cartan": [[2]],
        "fundamental": [[Fraction(1, 2), Fraction(-1, 2)]],
        "weyl_order": 2,
        "noncompact": (0,),
    },
    "A2": {
        "simple": [[1, -1, 0], [0, 1, -1]],
        "positive": {(1, 0): [1, -1, 0], (0, 1): [0, 1, -1], (1, 1): [1, 0, -1]},
        "cartan": [[2, -1], [-1, 2]],
        "fundamental": [
            [Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)],
            [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)],
        ],
        "weyl_order": 6,
        "noncompact": (0,),
    },
    "C2": {
        "simple": [[1, -1], [0, 2]],
        "positive": {(1, 0): [1, -1], (0, 1): [0, 2], (1, 1): [1, 1], (2, 1): [2, 0]},
        "cartan": [[2, -2], [-1, 2]],
        "fundamental": [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]],
        "weyl_order": 8,
        "noncompact": (1,),
    },
}


def _vec(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


def dot(x: Vector, y: Vector) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def show_vector(vec: Iterable) -> str:
    """A vector as ``(a, b, ...)`` with rationals written ``p/q``."""
    return "(" + ", ".join(str(x) for x in vec) + ")"


class RootEntry(NamedTuple):
    """Integer data of one root beta, derived from the Euclidean fixture."""

    coefficients: tuple[int, ...]  # beta in the simple-root basis
    coroot: tuple[int, ...]  # <omega_i, beta^vee> for each fundamental weight
    fundamental: tuple[int, ...]  # <beta, alpha_j^vee>, i.e. beta as a weight
    half_norm: int  # (beta, beta) / 2


class RootSystemData:
    """Validated root-system fixture, with read-only fields.

    Instances are interned by :func:`build_root_system`; identity comparison
    is therefore the intended notion of equality.
    """

    kinds: tuple[str, ...]
    simple_roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    fundamental_weights: tuple[Vector, ...]
    noncompact_marking: frozenset[int]
    weyl_order: int
    # every root, positive ones first, keyed by its Euclidean vector
    root_table: dict[Vector, RootEntry]
    __slots__ = tuple(__annotations__)  # the annotated names above

    def __init__(self, **fields):
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):  # a copy or unpickled system is the interned one
        return build_root_system, (self.kinds,)

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    @property
    def is_product(self) -> bool:
        return len(self.kinds) > 1

    @property
    def kind(self) -> str:
        return "+".join(self.kinds)

    def roots(self) -> tuple[Vector, ...]:
        return tuple(self.root_table)

    def root_coefficients(self, root: Vector) -> tuple[int, ...] | None:
        """Simple-root coefficients of ``root``, or None if not a root."""
        entry = self.root_table.get(tuple(root))
        return None if entry is None else entry.coefficients

    def is_root(self, vec: Vector) -> bool:
        return tuple(vec) in self.root_table

    def is_noncompact_root(self, root: Vector) -> bool:
        """A root is noncompact iff its noncompact-simple coefficient is odd.

        For the Hermitian systems handled here the marked simple root occurs
        with coefficient 0 or 1 in every positive root, so parity is exact.
        """
        coeffs = self.root_coefficients(root)
        if coeffs is None:
            raise ValueError(f"{show_vector(root)} is not a root of {self.kind}")
        return sum(coeffs[i] for i in self.noncompact_marking) % 2 == 1


def _normalize_kind(kind) -> tuple[str, ...]:
    if isinstance(kind, str):
        parts = tuple(p.strip().upper() for p in kind.split("+"))
    else:
        parts = tuple(str(p).strip().upper() for p in kind)
    for p in parts:
        if p not in SIMPLE_KINDS:
            raise ValueError(f"unsupported root-system kind: {p!r}")
    if not parts:
        raise ValueError("empty root-system kind")
    return parts


@lru_cache(maxsize=None)
def _build_cached(kinds: tuple[str, ...]) -> RootSystemData:
    blocks = [_KIND_DATA[k] for k in kinds]
    dims = [len(data["simple"][0]) for data in blocks]
    ranks = [len(data["simple"]) for data in blocks]

    def pad(v, sizes: list[int], b: int) -> tuple:
        """Block ``b`` of a direct sum whose blocks have these sizes."""
        return (0,) * sum(sizes[:b]) + tuple(v) + (0,) * sum(sizes[b + 1:])

    simple, fundamental, positive, pos_coeffs, cartan = [], [], [], [], []
    for b, data in enumerate(blocks):
        simple += [_vec(pad(v, dims, b)) for v in data["simple"]]
        fundamental += [_vec(pad(w, dims, b)) for w in data["fundamental"]]
        positive += [_vec(pad(v, dims, b)) for v in data["positive"].values()]
        pos_coeffs += [pad(c, ranks, b) for c in data["positive"]]
        cartan += [pad(row, ranks, b) for row in data["cartan"]]
    kind = "+".join(kinds)

    def integer(value: Fraction, root: Vector) -> int:
        if value.denominator != 1:
            raise VerificationError(
                f"{kind}: root {show_vector(root)} has the non-integral table entry {value}"
            )
        return int(value)

    # the integer root table, read off the Euclidean realisation
    table = {}
    for coeffs, root in zip(pos_coeffs, positive):
        norm = dot(root, root)
        table[root] = RootEntry(
            coeffs,
            tuple(integer(2 * dot(w, root) / norm, root) for w in fundamental),
            tuple(integer(2 * dot(root, a) / dot(a, a), root) for a in simple),
            integer(norm / 2, root),
        )
    for root, entry in list(table.items()):
        negated = (tuple(-c for c in part) for part in entry[:3])
        table[tuple(-c for c in root)] = RootEntry(*negated, entry.half_norm)

    return RootSystemData(
        kinds=kinds,
        simple_roots=tuple(simple),
        positive_roots=tuple(positive),
        cartan_matrix=tuple(cartan),
        fundamental_weights=tuple(fundamental),
        noncompact_marking=frozenset(
            sum(ranks[:b]) + i for b, data in enumerate(blocks) for i in data["noncompact"]
        ),
        weyl_order=math.prod(data["weyl_order"] for data in blocks),
        root_table=table,
    )


def build_root_system(kind) -> RootSystemData:
    """Build (and intern) the root system named by ``kind``.

    ``kind`` is one of ``"A1"``, ``"A2"``, ``"C2"`` or a product, given
    either as ``"C2+A1"`` or as a sequence of simple kinds.
    """
    system = _build_cached(_normalize_kind(kind))
    _validate(system)
    return system


@lru_cache(maxsize=None)
def _validate(system: RootSystemData) -> None:
    def check(ok: bool, what: str) -> None:
        if not ok:
            raise VerificationError(f"{system.kind}: {what}")

    # dual-basis property <omega_i, alpha_j^vee> = delta_ij
    for i, w in enumerate(system.fundamental_weights):
        for j, a in enumerate(system.simple_roots):
            expected = 1 if i == j else 0
            check(2 * dot(w, a) / dot(a, a) == expected, f"omega_{i + 1} is not dual")
    # Cartan entries match the realisation
    for i, ai in enumerate(system.simple_roots):
        for j, aj in enumerate(system.simple_roots):
            entry = 2 * dot(aj, ai) / dot(ai, ai)
            check(system.cartan_matrix[i][j] == entry, f"Cartan entry ({i}, {j})")
    # positive roots are nonnegative integer combinations of simple roots
    for root in system.positive_roots:
        coeffs = system.root_table[root].coefficients
        check(all(c >= 0 for c in coeffs), f"negative coefficients {coeffs}")
        rebuilt = [Fraction(0)] * len(root)
        for c, a in zip(coeffs, system.simple_roots):
            rebuilt = [r + c * x for r, x in zip(rebuilt, a)]
        check(tuple(rebuilt) == root, f"coefficients {coeffs} do not rebuild a root")


class _WeightVector(NamedTuple):
    coords: tuple[Fraction, ...]
    system: RootSystemData


class WeightVector(_WeightVector):
    """A weight, stored by its fundamental-weight coordinates."""

    __slots__ = ()

    def __new__(cls, coords: tuple[Fraction, ...], system: RootSystemData):
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
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def euclid(self) -> Vector:
        out = [Fraction(0)] * len(self.system.fundamental_weights[0])
        for m, w in zip(self.coords, self.system.fundamental_weights):
            out = [o + m * x for o, x in zip(out, w)]
        return tuple(out)


def weight(system: RootSystemData, coords: Iterable) -> WeightVector:
    return WeightVector(tuple(Fraction(c) for c in coords), system)


def eval_on_coroot(w: WeightVector, root: Vector) -> int | Fraction:
    """<w, root^vee> = sum_i m_i <omega_i, root^vee>, from the root table."""
    entry = w.system.root_table.get(tuple(root))
    if entry is None:
        raise ValueError(f"{show_vector(root)} is not a root of {w.system.kind}")
    return sum(m * c for m, c in zip(w.coords, entry.coroot))


def weyl_orbit(w: WeightVector) -> frozenset[WeightVector]:
    """Closure of ``w`` under all simple reflections."""
    return frozenset(WeightVector(nu, w.system) for (nu,) in _orbit(w.system, (w.coords,)))


def _require_dominant_integral(w: WeightVector) -> None:
    if not w.is_integral:
        raise ValueError(f"weight {show_vector(w.coords)} is not integral")
    if not w.is_dominant:
        raise ValueError(f"weight {show_vector(w.coords)} is not dominant")


def weight_support(highest: WeightVector) -> frozenset[WeightVector]:
    """All weights of the irreducible representation with this highest weight."""
    return frozenset(weight_multiplicities(highest))


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
    start = tuple(system.root_table[tuple(r)].fundamental for r in roots)
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

    W_mu is the parabolic subgroup on the zero coordinates of mu, per simple
    block: the block's whole Weyl group, or else one reflection per zero.
    """
    stabiliser, start = 1, 0
    for kind in system.kinds:
        data = _KIND_DATA[kind]
        rank = len(data["simple"])
        zeros = mu[start:start + rank].count(0)
        stabiliser *= data["weyl_order"] if zeros == rank else 2 ** zeros
        start += rank
    return system.weyl_order // stabiliser


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
    # The dominant weights below the top, each with its depth (top - mu in
    # simple roots).  Two dominant weights mu < nu are joined by a chain of
    # dominant weights whose steps are positive roots (Stembridge, 1998), so
    # descending by positive roots through dominant weights reaches them all.
    positive = [system.root_table[r] for r in system.positive_roots]
    depths = {top: (0,) * system.rank}
    found = [top]
    for mu in found:
        for entry in positive:
            cand = tuple(map(operator.sub, mu, entry.fundamental))
            if min(cand) >= 0 and cand not in depths:
                depths[cand] = tuple(map(operator.add, depths[mu], entry.coefficients))
                found.append(cand)
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
    _require_dominant_integral(highest)
    return _multiplicity_table(highest.system, tuple(int(c) for c in highest.coords))


def multiplicity(highest: WeightVector, mu: tuple[int, ...]) -> int:
    """Multiplicity of the int coordinates ``mu``, reflected to dominant; 0 off the support."""
    dominant, _ = _to_dominant(list(zip(*highest.system.cartan_matrix)), mu, mu)
    return dominant_multiplicities(highest).get(dominant, 0)


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
    _require_dominant_integral(highest)
    return _weyl_dimension(highest.system, tuple(int(c) for c in highest.coords))


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
