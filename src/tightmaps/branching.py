"""Restriction of A2/C2 irreducibles to regular rank-one and rank-two
subalgebras of Hermitian type.

A subalgebra is specified by a subset B of the roots, each named by its
simple-root coefficients, subject to three conditions: differences of
B-elements are not roots, B is linearly independent, and each Dynkin
component of B contains exactly one noncompact root.  Branching evaluates
each dominant weight, for its whole orbit, on the Weyl images of the chosen
coroots and peels the resulting multiset into strings, giving the
decomposition into irreducible factors with their numbers of copies.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import Counter
from typing import NamedTuple

from .errors import VerificationError
from .rootsys import (
    RootSystemData,
    WeightVector,
    coroot_images,
    dimension,
    dominant_multiplicities,
    multiplicity,
    orbit_size,
    weight_multiplicities,
)


class SubalgebraError(ValueError):
    """A root subset violating one of the regularity conditions."""


Root = tuple[int, ...]  # simple-root coefficients


class SubalgebraSpec(NamedTuple):
    system: RootSystemData
    roots_b: tuple[Root, ...]
    # coroot rows of the distinct Weyl images of B, B's own rows first
    coroot_images: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.roots_b)

    def evaluate(self, mu: tuple[int, ...]) -> list[int]:
        """<mu, beta^vee> for each beta in B, from int coordinates."""
        return [sum(map(operator.mul, mu, row)) for row in self.coroot_images[0]]


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
    return SubalgebraSpec(system, b, coroot_images(system, b))


_TERM_RE = re.compile(r"^(\d*)a([12])$")


def parse_subalgebra_selector(system: RootSystemData, text: str) -> tuple[Root, ...]:
    """Parse selectors like ``a1+a2`` or ``a2,2a1+a2`` into coefficient tuples."""
    roots = []
    for part in text.split(","):
        part = part.strip().lower().replace(" ", "")
        if not part:
            raise SubalgebraError(f"empty component in selector {text!r}")
        root = [0] * system.rank
        for term in part.split("+"):
            m = _TERM_RE.match(term)
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


class BranchingResult(NamedTuple):
    # (factor, copies) pairs, factors descending; a factor is one sl2 highest weight
    # per root of B, in B's order: (m,) on one root, (a2 value, 2a1+a2 value) on the long pair
    factors: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def factor_dimension(self) -> int:
        return sum(n * math.prod(m + 1 for m in factor) for factor, n in self.factors)


def evaluation_multiset(highest: WeightVector, sub: SubalgebraSpec) -> Counter:
    """Coroot evaluations of every weight, with multiplicity.

    No orbit is listed: <w mu, beta^vee> = <mu, (w^-1 beta)^vee>, so the
    orbit of a dominant mu evaluates as mu does against the n Weyl images of
    B's coroot rows, and a key that c images give counts
    c |Stab B| m(mu) / |W_mu| = c m(mu) |W mu| / n weights.
    """
    images = sub.coroot_images
    out: Counter = Counter()
    for mu, m in dominant_multiplicities(highest).items():
        share, keys = m * orbit_size(highest.system, mu), {}
        for rows in images:
            key = tuple([sum(map(operator.mul, mu, r)) for r in rows])
            keys[key] = keys.get(key, 0) + share
        for key, total in keys.items():
            weights, rest = divmod(total, len(images))
            if rest:
                raise VerificationError(f"{key} counts {total}/{len(images)} weights at {mu}")
            out[key] += weights
    return out


def _peel_strings(values: Counter) -> Counter:
    """Highest weights, with their copies, of the sl2 or sl2xsl2 strings in ``values``.

    A multiset N that each sign flip of a coordinate preserves is a unique
    virtual sum of strings, with sum_s (-1)^(|s|/2) N(m + s), s over
    {0, 2}^r, strings of highest weight m: N(m) - N(m+2) for one factor,
    N(m,n) - N(m+2,n) - N(m,n+2) + N(m+2,n+2) for two.  It is a genuine
    sum iff no count is negative.
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


def restrict_rep(highest: WeightVector, sub: SubalgebraSpec) -> BranchingResult:
    """Decompose the restriction of an irreducible into sl2 strings.

    Peels the evaluation multiset by second differences into factors, one
    highest weight per root of B in B's order, each paired with its number
    of copies and listed in descending order.  The result is checked for
    dimension conservation against the ambient irreducible.
    """
    counts = _peel_strings(evaluation_multiset(highest, sub))
    result = BranchingResult(tuple(sorted(counts.items(), reverse=True)))
    if result.factor_dimension != dimension(highest):
        raise VerificationError(
            "branching lost dimensions: "
            f"{result.factor_dimension} != {dimension(highest)}"
        )
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
    top = highest.coords
    steps = _WITNESS_STEPS.get(highest.system.kind, ())
    chain = [top] + [tuple(map(operator.sub, top, step)) for step in steps]

    def candidates():
        yield from (coords for coords in chain if multiplicity(highest, coords))
        yield from sorted((w.coords for w in weight_multiplicities(highest)), reverse=True)

    for coords in candidates():
        for value in sub.evaluate(coords):
            if value != 0 and value % 2 == 0:
                return coords, value
    return None
