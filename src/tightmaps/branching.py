"""Restriction of A1/A2/C2 irreducibles to regular rank-one and rank-two
subalgebras of Hermitian type.

A subalgebra is specified by a subset B of the roots, each named by its
simple-root coefficients, subject to three conditions: differences of
B-elements are not roots, B is linearly independent, and each Dynkin
component of B contains exactly one noncompact root.  Branching divides the
Weyl numerator of the irreducible by 1 - e^-alpha for each positive root
alpha outside B (Kostant's branching form of the Weyl character formula),
which gives the decomposition into irreducible factors with their numbers of
copies; even-witness candidates are tested for membership by dominance.
"""

from __future__ import annotations

import operator
import re
from collections import Counter, namedtuple

from .errors import VerificationError
from .rootsys import (
    RootSystemData,
    WeightVector,
    _divide,
    _dominant_weights,
    _orbit,
    _weyl_numerator,
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
            m = re.match(r"^([0-9]*)a([12])$", term)  # compiled on first use, then cached
            if not m:
                raise SubalgebraError(f"cannot parse selector term {term!r}")
            idx = int(m.group(2)) - 1
            if idx >= system.rank:
                raise SubalgebraError(
                    f"simple root a{idx + 1} does not exist in {system.kind}"
                )
            root[idx] += int(m.group(1)) if m.group(1) else 1
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


def restrict_rep(highest: WeightVector, sub: SubalgebraSpec) -> BranchingResult:
    """Decompose the restriction of an irreducible into sl2 factors.

    For B of G's rank with positive roots among G's, A(lam + rho) divided by
    1 - e^-alpha for each alpha in Phi+ - Phi+_B is e^(rho - rho_B) sum_nu
    m_nu A_B(nu + rho_B) (Kostant's branching form), so the copies m_nu of
    the factor <nu, beta^vee>, beta in B in B's order, are the quotient's
    coefficient at nu + rho for B-dominant nu.  A rank-one B = {beta} becomes
    the Levi of the simple root of beta's length: the two are W-conjugate,
    so the W-invariant character branches alike.  An inexact division, a
    negative count and a lost dimension each raise.
    """
    system, top = highest.system, highest.coords
    roots_b = tuple(max(r, tuple(-c for c in r)) for r in sub.roots_b)  # the positive of +-beta
    if sub.rank == 1:
        roots_b = (_same_length_simple(system, roots_b[0]),)
    divisors = [r for r in system.positive_roots if r not in roots_b]
    if not divisors:  # B is all of A1: the restriction is the irreducible itself
        return BranchingResult(((top, 1),))
    quotient = _weyl_numerator(system, top)
    for root in divisors:
        quotient = _divide(quotient, system.root_table[root].fundamental)
        if quotient is None:
            raise _failure(highest, sub, "the Weyl numerator is not divisible by "
                                         f"1 - e^-({_root_name(root)})")
    rows = [system.root_table[r].coroot for r in roots_b]
    # the B-dominant points, each with its factor <x - rho, beta^vee> per root
    # of B: the second coroot row is evaluated only where the first passes
    if len(rows) == 1:
        ((p0, p1),) = rows
        dominant = (((f,), c) for (x0, x1), c in quotient.items()
                    if (f := p0 * x0 + p1 * x1 - p0 - p1) >= 0)
    else:
        (p0, p1), (q0, q1) = rows
        dominant = (((f, g), c) for (x0, x1), c in quotient.items()
                    if (f := p0 * x0 + p1 * x1 - p0 - p1) >= 0
                    and (g := q0 * x0 + q1 * x1 - q0 - q1) >= 0)
    counts: dict[tuple[int, ...], int] = {}
    for factor, c in dominant:
        if c < 0:
            raise _failure(highest, sub, f"factor {factor} counts {c} copies")
        counts[factor] = counts.get(factor, 0) + c
    result = BranchingResult(tuple(sorted(counts.items(), reverse=True)))
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
