"""Restriction of A1/A2/C2 irreducibles to regular rank-one and rank-two
subalgebras of Hermitian type.

A subalgebra is specified by a subset B of the roots, each named by its
simple-root coefficients, subject to three conditions: differences of
B-elements are not roots, B is linearly independent, and each Dynkin
component of B contains exactly one noncompact root.  Branching reads the
irreducible factors, with their numbers of copies, off Gelfand-Tsetlin
interlacing (GL3 to GL2 for A2, Spin(5) to Spin(4) for C2); even-witness
candidates are tested for membership by dominance.
"""

from __future__ import annotations

import operator
from collections import Counter, namedtuple

from .errors import VerificationError
from .rootsys import (
    RootSystemData,
    WeightVector,
    _dominant_weights,
    _orbit,
    _require_dominant,
    dimension,
    is_weight,
    weight_multiplicities,
)


class SubalgebraError(ValueError):
    """A root subset violating one of the regularity conditions."""


Root = tuple[int, ...]  # simple-root coefficients


class SubalgebraSpec(namedtuple("SubalgebraSpec", (
    "system",
    "roots_b",
    "coroots",  # the coroot row of each root of B
))):
    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.roots_b)

    def evaluate(self, mu: tuple[int, ...]) -> list[int]:
        """<mu, beta^vee> for each beta in B, from int coordinates."""
        return [sum(map(operator.mul, mu, row)) for row in self.coroots]


def _span_roots(system: RootSystemData, roots: tuple[Root, ...]) -> tuple[Root, ...]:
    """ZB intersected with the root set, for two independent roots of a
    rank-two system, tested by Cramer's rule over their simple-root
    coefficients.
    """
    (x0, x1), (y0, y1) = roots
    det = x0 * y1 - x1 * y0

    def in_span(r: Root) -> bool:
        r0, r1 = r
        return (r0 * y1 - r1 * y0) % det == 0 and (x0 * r1 - x1 * r0) % det == 0

    return tuple(r for r in system.roots() if in_span(r))


def make_subalgebra(system: RootSystemData, roots) -> SubalgebraSpec:
    """Validate a root subset B and build the regular subalgebra it spans."""
    b = tuple(map(tuple, roots))
    if not b:
        raise SubalgebraError("B must be nonempty")
    if len(b) > 2:
        raise SubalgebraError("only rank-one and rank-two subalgebras are supported")
    for r in b:
        if r not in system.root_table:
            raise SubalgebraError(f"{_root_name(r)} is not a root of {system.kind}")
    if len(set(b)) != len(b):
        raise SubalgebraError("B has repeated roots")

    # the invariant form (x, y) = sum_i x_i (alpha_i, alpha_i)/2 <y, alpha_i^vee>
    half = [system.root_table[a].half_norm for a in system.simple_roots]

    def form(x: Root, y: Root) -> int:
        return sum(c * d * f for c, d, f in zip(x, half, system.root_table[y].fundamental))

    # condition 1: alpha - beta is never a root for alpha, beta in B
    for x in b:
        for y in b:
            if x != y and tuple(map(operator.sub, x, y)) in system.root_table:
                raise SubalgebraError(
                    f"condition 1 fails: {_root_name(x)} minus {_root_name(y)} is a root"
                )

    # condition 2: linear independence
    if len(b) == 2:
        x, y = b
        if form(x, x) * form(y, y) == form(x, y) ** 2:
            raise SubalgebraError(f"condition 2 fails: {selector_of(b)} are dependent")

    # condition 3: one noncompact root per Dynkin component of B
    components: list[list[Root]] = []
    for r in b:
        attached = [c for c in components if any(form(r, s) != 0 for s in c)]
        merged = [r] + [s for c in attached for s in c]
        components = [c for c in components if c not in attached] + [merged]
    for comp in components:
        noncompact = sum(1 for r in comp if system.is_noncompact_root(r))
        if noncompact != 1:
            raise SubalgebraError(
                f"condition 3 fails: component [{selector_of(comp)}] "
                f"has {noncompact} noncompact roots (expected exactly 1)"
            )

    if len(b) == 2:
        # ZB holding no root but +-B leaves x + y and x - y out, so (x, y) = 0
        split = set(b) | {tuple(-c for c in r) for r in b}
        if set(_span_roots(system, b)) != split:
            raise SubalgebraError("rank-two subalgebra must split as two orthogonal sl2 blocks")
    return SubalgebraSpec(system, b, tuple(system.root_table[r].coroot for r in b))


def parse_subalgebra_selector(system: RootSystemData, text: str) -> tuple[Root, ...]:
    """Parse selectors like ``a1+a2`` or ``a2,2a1+a2`` into coefficient tuples."""
    roots = []
    for part in text.split(","):
        part = part.strip().lower().replace(" ", "")
        if not part:
            raise SubalgebraError(f"empty component in selector {text!r}")
        root = [0] * system.rank
        for term in part.split("+"):
            # ASCII digits, 1 when there are none, then 'a' and a simple root's index
            count, a, index = term.partition("a")
            count = count or "1"
            if not (a and index in ("1", "2") and count.isascii() and count.isdigit()):
                raise SubalgebraError(f"cannot parse selector term {term!r}")
            idx = int(index) - 1
            if idx >= system.rank:
                raise SubalgebraError(
                    f"simple root a{idx + 1} does not exist in {system.kind}"
                )
            root[idx] += int(count)
        roots.append(tuple(root))
    return tuple(roots)


def _root_name(root: Root) -> str:
    """A root in the selector grammar; a negative term reads ``-a1``."""
    name = ""
    for i, c in enumerate(root):
        if c:
            sign = "-" if c < 0 else "+" if name else ""
            name += f"{sign}{abs(c) if abs(c) != 1 else ''}a{i + 1}"
    return name or "0"


def selector_of(roots: tuple[Root, ...]) -> str:
    """Inverse of the selector grammar, for reporting."""
    return ",".join(map(_root_name, roots))


# factors: (factor, copies) pairs, factors descending; a factor is one sl2 highest weight
# per root of B, in B's order: (m,) on one root, (a2 value, 2a1+a2 value) on the long pair
class BranchingResult(namedtuple("BranchingResult", "factors")):
    __slots__ = ()

    @property
    def factor_dimension(self) -> int:
        total = 0
        for factor, n in self.factors:
            for m in factor:
                n *= m + 1
            total += n
        return total


def evaluation_multiset(highest: WeightVector, sub: SubalgebraSpec) -> Counter:
    """Coroot evaluations on B of every weight, with multiplicity: off the
    command path, the input of the string-peel oracle in the tests."""
    out: Counter = Counter()
    for mu, m in weight_multiplicities(highest).items():
        out[tuple(sub.evaluate(mu.coords))] += m
    return out


def _same_length_simple(system: RootSystemData, beta: Root) -> Root:
    """The simple root of beta's length; in A1, A2 and C2 it is W-conjugate to beta."""
    half = system.root_table[beta].half_norm
    return next(a for a in system.simple_roots if system.root_table[a].half_norm == half)


def _failure(highest: WeightVector, sub: SubalgebraSpec, message: str) -> VerificationError:
    return VerificationError(
        f"branching {highest.system.kind} {highest.coords} on {selector_of(sub.roots_b)}: {message}"
    )


def _interlacing(system: RootSystemData, top: tuple[int, ...],
                 roots_b: tuple[Root, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The (factor, copies) pairs of V(top) on B, factors descending, by
    Gelfand-Tsetlin interlacing."""
    if system.rank == 1:  # B is all of A1: the restriction is the irreducible itself
        return [(top, 1)]
    a, b = top
    if system.kind == "A2":
        # GL3 to GL2: the top is (a + b, b, 0), and each b <= mu1 <= a + b, 0 <= mu2 <= b
        # gives the factor mu1 - mu2, so m counts mu2 in [max(0, b - m), min(b, a + b - m)]
        return [((m,), min(b, a + b - m) - max(0, b - m) + 1) for m in range(a + b, -1, -1)]
    # Spin(5) to Spin(4): the doubled top (M1, M2) = (a + 2b, a) gives P1 = M2, M2 + 2,
    # ..., M1 and P2 = -M2, ..., M2 in steps of 2, and each (P1, P2) the factor
    # (x, y) = ((P1 + P2)/2, (P1 - P2)/2) on (a2, 2a1+a2); by x, then y, descending,
    # |x - M2| <= y <= min(x + M2, M1 - x).  (P1, -P2) swaps x and y and keeps the
    # set, so 2a1+a2,a2, the same rule with each pair reversed, reads the same factors.
    pairs = [(x, y) for x in range(a + b, -1, -1)
             for y in range(min(x + a, a + 2 * b - x), abs(x - a) - 1, -2)]
    if len(roots_b) == 2:
        return [(pair, 1) for pair in pairs]
    counts = [0] * (a + 2 * b + 1)
    if _same_length_simple(system, roots_b[0]) == system.simple_roots[1]:
        for x, y in pairs:  # a long root, W-conjugate to a2: y + 1 copies of x
            counts[x] += y + 1
    else:
        for x, y in pairs:  # the short root a1+a2: the Clebsch-Gordan range of x and y
            for m in range(x + y, abs(x - y) - 1, -2):
                counts[m] += 1
    return [((m,), n) for m in range(len(counts) - 1, -1, -1) if (n := counts[m])]


def restrict_rep(highest: WeightVector, sub: SubalgebraSpec) -> BranchingResult:
    """Decompose the restriction of a dominant irreducible into sl2 factors.

    The branchings to these regular subalgebras are multiplicity-free
    interlacing (Gelfand-Tsetlin, 1950; Zhelobenko, 1973): GL3 to GL2 on A2,
    and Spin(5) to Spin(4) = SU2 x SU2 on C2's long pair.  A single long root
    of C2 keeps one SU2 of each pair factor; the short root a1+a2, whose sl2
    has the neutral element of the pair's diagonal sl2, takes their
    Clebsch-Gordan product.  A lost or extra dimension raises; Kostant's
    division of the Weyl numerator is the oracle in the tests.
    """
    _require_dominant(highest)
    result = BranchingResult(tuple(_interlacing(highest.system, highest.coords, sub.roots_b)))
    found, expected = result.factor_dimension, dimension(highest)
    if found != expected:
        raise _failure(highest, sub, f"lost dimensions: {found} != {expected}")
    return result


# Proof-chain witness steps below the top, in fundamental coordinates: A2 goes
# down alpha_1 + alpha_2 = (1, 1) twice, then alpha_2; C2 down alpha_1 + alpha_2 = (0, 1).
_WITNESS_STEPS = {"A2": ((1, 1), (2, 2), (-1, 2)), "C2": ((0, 1),)}


def even_witness(
    highest: WeightVector, sub: SubalgebraSpec
) -> tuple[tuple[int, ...], int] | None:
    """Fundamental coordinates of a weight with an even nonzero coroot
    evaluation, and that value, or None.

    Such a weight certifies a branching factor of even nonzero highest
    weight in the matching coordinate, hence a nontight factor.  Preference
    goes to the highest weight and then the proof-chain candidates; a
    deterministic scan of the full support is the fallback.
    """
    system, top = highest.system, highest.coords
    steps = _WITNESS_STEPS.get(system.kind, ())
    chain = [top] + [tuple(map(operator.sub, top, step)) for step in steps]

    def candidates():
        yield from (coords for coords in chain if is_weight(highest, coords))
        # the support: the orbits of the dominant weights, found by descent
        yield from sorted((nu for mu in _dominant_weights(system, top)
                           for nu in _orbit(system, mu)), reverse=True)

    for coords in candidates():
        for value in sub.evaluate(coords):
            if value != 0 and value % 2 == 0:
                return coords, value
    return None
