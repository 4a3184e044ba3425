"""Exact root-system data for A1, A2, C2 and their finite direct sums.

Everything is done over the rationals.  Each system is realised inside a
small Euclidean space with the standard dot product:

    A1:  alpha = (1, -1) in Q^2
    A2:  alpha_1 = e1 - e2, alpha_2 = e2 - e3 in the sum-zero subspace of Q^3
    C2:  alpha_1 = (1, -1), alpha_2 = (0, 2) in Q^2  (alpha_2 is the long root)

Products concatenate coordinate blocks.  Weights are stored by their
coefficients in the fundamental-weight basis; dominant integral weights
support Freudenthal multiplicities and the Weyl dimension formula, which
serve as independent oracles for each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import VerificationError

Vector = tuple[Fraction, ...]

SIMPLE_KINDS = ("A1", "A2", "C2")

# Per-kind data: simple roots, positive roots (with simple-root coefficients),
# Cartan matrix entries cartan[i][j] = <alpha_j, alpha_i^vee>, fundamental
# weights, Weyl group order, indices of noncompact simple roots, and an
# integer scale making every listed vector integral (used by fast paths).
_KIND_DATA = {
    "A1": {
        "simple": [[1, -1]],
        "positive": {(1,): [1, -1]},
        "cartan": [[2]],
        "fundamental": [[Fraction(1, 2), Fraction(-1, 2)]],
        "weyl_order": 2,
        "noncompact": (0,),
        "scale": 2,
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
        "scale": 3,
    },
    "C2": {
        "simple": [[1, -1], [0, 2]],
        "positive": {(1, 0): [1, -1], (0, 1): [0, 2], (1, 1): [1, 1], (2, 1): [2, 0]},
        "cartan": [[2, -2], [-1, 2]],
        "fundamental": [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]],
        "weyl_order": 8,
        "noncompact": (1,),
        "scale": 1,
    },
}


def _vec(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


def dot(x: Vector, y: Vector) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


@dataclass(frozen=True, eq=False)
class RootSystemData:
    """Validated root-system fixture.

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
    # simple-root coefficient tuple for every positive root, same order
    positive_root_coefficients: tuple[tuple[int, ...], ...]
    # inverse Cartan matrix, for expanding weights in the simple-root basis
    inverse_cartan: tuple[tuple[Fraction, ...], ...]
    # integer-scaled copies of the Euclidean realisation (per-factor scaling
    # of the invariant form, legitimate since the form is unique up to a
    # positive scalar on each simple factor)
    int_fundamental: tuple[tuple[int, ...], ...]
    int_positive: tuple[tuple[int, ...], ...]
    int_rho: tuple[int, ...]

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
        return self.positive_roots + tuple(
            tuple(-c for c in r) for r in self.positive_roots
        )

    def root_coefficients(self, root: Vector) -> tuple[int, ...] | None:
        """Simple-root coefficients of ``root``, or None if not a root."""
        for coeffs, pos in zip(self.positive_root_coefficients, self.positive_roots):
            if pos == root:
                return coeffs
            if tuple(-c for c in pos) == root:
                return tuple(-c for c in coeffs)
        return None

    def is_root(self, vec: Vector) -> bool:
        return self.root_coefficients(vec) is not None

    def is_noncompact_root(self, root: Vector) -> bool:
        """A root is noncompact iff its noncompact-simple coefficient is odd.

        For the Hermitian systems handled here the marked simple root occurs
        with coefficient 0 or 1 in every positive root, so parity is exact.
        """
        coeffs = self.root_coefficients(root)
        if coeffs is None:
            raise ValueError(f"{root} is not a root of {self.kind}")
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


def _invert(matrix: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        factor = aug[col][col]
        aug[col] = [x / factor for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                scale = aug[r][col]
                aug[r] = [x - scale * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@lru_cache(maxsize=None)
def _build_cached(kinds: tuple[str, ...]) -> RootSystemData:
    simple: list[Vector] = []
    positive: list[Vector] = []
    pos_coeffs: list[tuple[int, ...]] = []
    cartan_rows: list[list[int]] = []
    fundamental: list[Vector] = []
    noncompact: set[int] = set()
    int_fund: list[tuple[int, ...]] = []
    int_pos: list[tuple[int, ...]] = []
    weyl_order = 1

    dim_offset = 0
    idx_offset = 0
    total_rank = sum(len(_KIND_DATA[k]["simple"]) for k in kinds)
    total_dim = sum(len(_KIND_DATA[k]["simple"][0]) for k in kinds)

    for k in kinds:
        data = _KIND_DATA[k]
        block_rank = len(data["simple"])
        block_dim = len(data["simple"][0])
        scale = data["scale"]
        weyl_order *= data["weyl_order"]

        def embed(v) -> Vector:
            out = [Fraction(0)] * total_dim
            for i, e in enumerate(v):
                out[dim_offset + i] = Fraction(e)
            return tuple(out)

        def embed_int(v, s) -> tuple[int, ...]:
            out = [0] * total_dim
            for i, e in enumerate(v):
                scaled = Fraction(e) * s
                if scaled.denominator != 1:
                    raise VerificationError(f"{k}: scale {s} leaves {e} non-integral")
                out[dim_offset + i] = int(scaled)
            return tuple(out)

        for v in data["simple"]:
            simple.append(embed(v))
        for w in data["fundamental"]:
            fundamental.append(embed(w))
            int_fund.append(embed_int(w, scale))
        for coeffs, v in data["positive"].items():
            positive.append(embed(v))
            int_pos.append(embed_int(v, scale))
            full = [0] * total_rank
            for i, c in enumerate(coeffs):
                full[idx_offset + i] = c
            pos_coeffs.append(tuple(full))
        for i, row in enumerate(data["cartan"]):
            full_row = [0] * total_rank
            for j, c in enumerate(row):
                full_row[idx_offset + j] = c
            cartan_rows.append(full_row)
        for i in data["noncompact"]:
            noncompact.add(idx_offset + i)

        dim_offset += block_dim
        idx_offset += block_rank

    cartan = tuple(tuple(row) for row in cartan_rows)
    rho2 = [sum(col) for col in zip(*int_pos)]
    if any(c % 2 for c in rho2):
        raise VerificationError(f"{'+'.join(kinds)}: 2 rho = {rho2} is not even")
    int_rho = tuple(c // 2 for c in rho2)

    return RootSystemData(
        kinds=kinds,
        simple_roots=tuple(simple),
        positive_roots=tuple(positive),
        cartan_matrix=cartan,
        fundamental_weights=tuple(fundamental),
        noncompact_marking=frozenset(noncompact),
        weyl_order=weyl_order,
        positive_root_coefficients=tuple(pos_coeffs),
        inverse_cartan=_invert(cartan),
        int_fundamental=tuple(int_fund),
        int_positive=tuple(int_pos),
        int_rho=int_rho,
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
    for coeffs, root in zip(
        system.positive_root_coefficients, system.positive_roots
    ):
        check(all(c >= 0 for c in coeffs), f"negative coefficients {coeffs}")
        rebuilt = [Fraction(0)] * len(root)
        for c, a in zip(coeffs, system.simple_roots):
            rebuilt = [r + c * x for r, x in zip(rebuilt, a)]
        check(tuple(rebuilt) == root, f"coefficients {coeffs} do not rebuild a root")


@dataclass(frozen=True)
class WeightVector:
    """A weight, stored by its fundamental-weight coordinates."""

    coords: tuple[Fraction, ...]
    system: RootSystemData

    def __post_init__(self):
        if len(self.coords) != self.system.rank:
            raise ValueError(
                f"expected {self.system.rank} coordinates, got {len(self.coords)}"
            )

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


def weight_from_euclid(system: RootSystemData, vec: Iterable) -> WeightVector:
    """Inverse of :meth:`WeightVector.euclid` on the weight span.

    Coordinates are read off by evaluating against the simple coroots, so
    converting a weight to Euclidean coordinates and back is the identity.
    """
    v = _vec(vec)
    coords = tuple(
        2 * dot(v, a) / dot(a, a) for a in system.simple_roots
    )
    return WeightVector(coords, system)


def eval_on_coroot(w: WeightVector, root: Vector) -> Fraction:
    """<w, root^vee> = 2 <w, root> / <root, root>."""
    root = _vec(root)
    if not w.system.is_root(root):
        raise ValueError(f"{root} is not a root of {w.system.kind}")
    e = w.euclid()
    return 2 * dot(e, root) / dot(root, root)


def reflect_simple(w: WeightVector, i: int) -> WeightVector:
    """Simple reflection s_i in fundamental-weight coordinates."""
    cartan = w.system.cartan_matrix
    mi = w.coords[i]
    new = tuple(
        c - mi * cartan[j][i] for j, c in enumerate(w.coords)
    )
    return WeightVector(new, w.system)


def weyl_orbit(w: WeightVector) -> frozenset[WeightVector]:
    """Closure of ``w`` under all simple reflections."""
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(w.system.rank):
                r = reflect_simple(v, i)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return frozenset(seen)


def _require_dominant_integral(w: WeightVector) -> None:
    if not w.is_integral:
        raise ValueError(f"weight {w.coords} is not integral")
    if not w.is_dominant:
        raise ValueError(f"weight {w.coords} is not dominant")


def _simple_root_coefficients(
    system: RootSystemData, diff: tuple[int, ...]
) -> tuple[Fraction, ...]:
    """Expand a fundamental-coordinate vector in the simple-root basis."""
    inv = system.inverse_cartan
    return tuple(
        sum((inv[i][j] * diff[j] for j in range(system.rank)), Fraction(0))
        for i in range(system.rank)
    )


def _support_coords(system: RootSystemData, top: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Integer fundamental coordinates of all weights of the irrep ``top``.

    A candidate mu (in top - Q+) belongs to the support iff its dominant
    Weyl representative mu+ satisfies top - mu+ in Q+.  Candidates are
    generated by walking down simple roots from the highest weight; every
    weight of an irrep is reachable this way.
    """
    cartan = system.cartan_matrix
    rank = system.rank

    def lower(mu: tuple[int, ...], i: int) -> tuple[int, ...]:
        return tuple(mu[j] - cartan[j][i] for j in range(rank))

    def dominant(mu: tuple[int, ...]) -> tuple[int, ...]:
        cur = list(mu)
        while True:
            neg = next((i for i, c in enumerate(cur) if c < 0), None)
            if neg is None:
                return tuple(cur)
            mi = cur[neg]
            for j in range(rank):
                cur[j] -= mi * cartan[j][neg]
        # unreachable

    def member(mu: tuple[int, ...]) -> bool:
        dom = dominant(mu)
        diff = tuple(t - d for t, d in zip(top, dom))
        coeffs = _simple_root_coefficients(system, diff)
        return all(c.denominator == 1 and c >= 0 for c in coeffs)

    support = {top}
    frontier = [top]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(rank):
                cand = lower(mu, i)
                if cand not in support and member(cand):
                    support.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return support


def weight_support(highest: WeightVector) -> frozenset[WeightVector]:
    """All weights of the irreducible representation with this highest weight."""
    _require_dominant_integral(highest)
    system = highest.system
    top = tuple(int(c) for c in highest.coords)
    return frozenset(
        WeightVector(tuple(Fraction(c) for c in mu), system)
        for mu in _support_coords(system, top)
    )


def _int_euclid(system: RootSystemData, coords: tuple[int, ...]) -> tuple[int, ...]:
    n = len(system.int_fundamental[0])
    out = [0] * n
    for m, w in zip(coords, system.int_fundamental):
        for i in range(n):
            out[i] += m * w[i]
    return tuple(out)


def _idot(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    return sum(a * b for a, b in zip(x, y))


@lru_cache(maxsize=None)
def _multiplicity_table(
    system: RootSystemData, top: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """Freudenthal recursion over the integer-scaled realisation.

    The recursion runs level by level (by height of top - mu); the choice of
    invariant form cancels between numerator and denominator, so the
    per-factor integer scaling gives the same multiplicities as the exact
    rational realisation.
    """
    system_rank = system.rank
    cartan = system.cartan_matrix
    support = _support_coords(system, top)

    def height(mu: tuple[int, ...]) -> Fraction:
        diff = tuple(t - m for t, m in zip(top, mu))
        return sum(_simple_root_coefficients(system, diff))

    ordered = sorted(support, key=lambda mu: (height(mu), mu))
    euclid = {mu: _int_euclid(system, mu) for mu in support}
    rho = system.int_rho
    top_e = euclid[top]
    lam_rho = tuple(a + b for a, b in zip(top_e, rho))
    lam_norm = _idot(lam_rho, lam_rho)

    # fundamental coordinates of each positive root
    alpha_fund = [
        tuple(
            sum(coeffs[i] * cartan[j][i] for i in range(system_rank))
            for j in range(system_rank)
        )
        for coeffs in system.positive_root_coefficients
    ]

    mults: dict[tuple[int, ...], int] = {top: 1}
    for mu in ordered:
        if mu == top:
            continue
        mu_e = euclid[mu]
        num = 0
        for af, alpha_e in zip(alpha_fund, system.int_positive):
            k = 1
            while True:
                up = tuple(m + k * a for m, a in zip(mu, af))
                if up not in support:
                    break
                # mu + k*alpha sits strictly above mu, so it is already done
                up_e = tuple(a + k * b for a, b in zip(mu_e, alpha_e))
                num += _idot(up_e, alpha_e) * mults[up]
                k += 1
        mu_rho = tuple(a + b for a, b in zip(mu_e, rho))
        denom = lam_norm - _idot(mu_rho, mu_rho)
        if denom <= 0 or (2 * num) % denom != 0 or 2 * num <= 0:
            raise VerificationError(
                f"Freudenthal at {mu} below {top} in {system.kind}: 2*{num}/{denom}"
            )
        mults[mu] = (2 * num) // denom
    return mults


def weight_multiplicities(highest: WeightVector) -> dict[WeightVector, int]:
    """Weight multiplicities of the irrep, via the Freudenthal recursion."""
    _require_dominant_integral(highest)
    system = highest.system
    top = tuple(int(c) for c in highest.coords)
    table = _multiplicity_table(system, top)
    return {
        WeightVector(tuple(Fraction(c) for c in mu), system): m
        for mu, m in table.items()
    }


def dimension(highest: WeightVector) -> int:
    """Weyl dimension formula, prod <lam+rho, alpha> / <rho, alpha>."""
    _require_dominant_integral(highest)
    system = highest.system
    top = tuple(int(c) for c in highest.coords)
    lam = _int_euclid(system, top)
    rho = system.int_rho
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    num = 1
    den = 1
    for alpha_e in system.int_positive:
        num *= _idot(lam_rho, alpha_e)
        den *= _idot(rho, alpha_e)
    if num % den != 0:
        raise VerificationError(f"Weyl dimension of {top} is {num}/{den}")
    return num // den
