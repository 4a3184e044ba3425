"""Explicit symmetric-power models of irreducible su(1,1)-representations.

The degree-k model lives on the symmetric power of the standard
representation, carries an invariant indefinite Hermitian form, and is
stored by its doubled central element: every Z-image is ``i*diag(d/2)``
with ``d`` a trace-zero tuple of integers, basis ordered positive vectors
first.  Signatures depend on k alone and are read without a model.
Pairing ``d`` against the integer element ``(p+q) Z`` of su(p,q), divided
once by ``2(p+q)``, gives the values that the diagonal-disc criterion in
``classify`` compares.  Pairing is linear, so one walk of a tensor basis
gives per-factor values P1 and P2, and structure signs (s1, s2) pair to
``s1*P1 + s2*P2``.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

Diagonal = tuple[int, ...]  # doubled: d for the Z-image i*diag(d/2)
Exact = int | Fraction


class _SignaturePair(NamedTuple):
    p: int
    q: int


class SignaturePair(_SignaturePair):
    """Signature (p, q) of an invariant indefinite Hermitian form."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if p < 0 or q < 0:
            raise ValueError("signature entries must be nonnegative")
        return super().__new__(cls, p, q)

    @property
    def dim(self) -> int:
        return self.p + self.q

    @property
    def rank(self) -> int:
        return min(self.p, self.q)


class _ExplicitRep(NamedTuple):
    dim: int
    signature: SignaturePair
    z_doubled: Diagonal
    degrees: tuple[int, ...]


class ExplicitRep(_ExplicitRep):
    """A representation given by its form signature and doubled Z-image.

    ``degrees`` is (k,) for the degree-k model and (k, l) for the tensor
    product of the degree-k and degree-l models.
    """

    __slots__ = ()

    def __new__(cls, dim: int, signature: SignaturePair, z_doubled: Diagonal,
                degrees: tuple[int, ...]):
        if signature.dim != dim:
            raise ValueError("signature does not sum to the dimension")
        if len(z_doubled) != dim:
            raise ValueError("diagonal/basis length mismatch")
        if math.prod(d + 1 for d in degrees) != dim:
            raise ValueError("degrees do not match the dimension")
        if sum(z_doubled) != 0:
            raise ValueError("Z-image must be trace free")
        return super().__new__(cls, dim, signature, z_doubled, degrees)


class _StructureChoice(NamedTuple):
    signs: tuple[int, ...]


class StructureChoice(_StructureChoice):
    """Signs of the complex structure on each su(1,1) factor of the domain."""

    __slots__ = ()

    def __new__(cls, signs: tuple[int, ...]):
        if not signs or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        return super().__new__(cls, signs)


def structure_representatives(n_factors: int = 2) -> tuple[StructureChoice, ...]:
    """One representative per {J, -J} pair: first sign pinned to +1."""
    tails = itertools.product((1, -1), repeat=n_factors - 1)
    return tuple(StructureChoice((1,) + tail) for tail in tails)


def sym_power_signature(k: int) -> SignaturePair:
    """Signature of the degree-k model: e1^(k-m) e2^m is positive iff m is even."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return SignaturePair(k // 2 + 1, (k + 1) // 2)


def sym_power_rep(k: int) -> ExplicitRep:
    """Degree-k symmetric power of the standard su(1,1)-representation.

    Basis ordered positive vectors first: monomials e1^(k-m) e2^m with m
    even, then m odd; the Z-eigenvalue on e1^(k-m) e2^m is (k-2m)/2, stored
    doubled as k-2m.
    """
    return ExplicitRep(
        dim=k + 1,
        signature=sym_power_signature(k),  # raises for k < 0
        z_doubled=(*range(k, -k - 1, -4), *range(k - 2, -k - 1, -4)),
        degrees=(k,),
    )


def _scaled_z_element(p: int, q: int) -> tuple[int, ...]:
    """(p+q) times the central element of su(p,q): q, ..., -p, ..."""
    if p < q or q < 0:
        raise ValueError("expected p >= q >= 0")
    if p + q < 2:
        raise ValueError("su(p,q) needs p+q >= 2")
    return (q,) * p + (-p,) * q


def diagonal_disc_z(p: int, q: int) -> Diagonal:
    """Doubled Z-image of the diagonal disc of su(p,q).

    Explicit block-diagonal embedding: min(p,q) blocks pair one positive
    with one negative basis vector and carry eigenvalues +-1/2 (doubled
    +-1); leftover positive directions are untouched.
    """
    r = min(p, q)
    return (1,) * r + (0,) * (p - r) + (-1,) * q


def pairing(x: tuple[Exact, ...], y: tuple[Exact, ...]) -> Exact:
    """tr(X* Y) for X = i*diag(x), Y = i*diag(y): the exact sum of x_j * y_j."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(map(operator.mul, x, y))


def _pair_with_z(doubled: Diagonal, p: int, q: int) -> Fraction:
    """Pairing of a doubled diagonal with the central element of su(p,q)."""
    return Fraction(pairing(doubled, _scaled_z_element(p, q)), 2 * (p + q))


def disc_pairing_value(p: int, q: int) -> Fraction:
    """Pairing of the diagonal disc of su(p,q) against its central element."""
    return _pair_with_z(diagonal_disc_z(p, q), p, q)


def sym_power_pairing(k: int) -> tuple[Fraction, Fraction]:
    """(<rho(Z), Z_(p,q)>, diagonal-disc value of su(p,q)) for the degree-k model.

    Needs k >= 1: the degree-0 model carries no su(p,q) with p + q >= 2.
    """
    rep = sym_power_rep(k)
    sig = rep.signature
    return _pair_with_z(rep.z_doubled, sig.p, sig.q), disc_pairing_value(sig.p, sig.q)


def clebsch_gordan(k: int, l: int) -> tuple[int, ...]:
    """Highest weights of the factors of the degree-(k,l) tensor product."""
    if k < 0 or l < 0:
        raise ValueError("degrees must be nonnegative")
    return tuple(range(k + l, abs(k - l) - 1, -2))


def _tensor_order(one: list, two: list, p1: int, p2: int) -> list[tuple]:
    """Pairs of basis entries of two models in tensor basis order.

    ``p1`` and ``p2`` are the positive block sizes.  Block order (positive
    vectors first): pos(x)pos, neg(x)neg, pos(x)neg, neg(x)pos, each block
    first-factor major.
    """
    pos1, neg1, pos2, neg2 = one[:p1], one[p1:], two[:p2], two[p2:]
    blocks = ((pos1, pos2), (neg1, neg2), (pos1, neg2), (neg1, pos2))
    return [(a, b) for xs, ys in blocks for a in xs for b in ys]


def _tensor_columns(k: int, l: int) -> list[tuple[int, int]]:
    """Doubled Z-entries of both factor models, in tensor basis order."""
    rep1, rep2 = sym_power_rep(k), sym_power_rep(l)
    return _tensor_order(rep1.z_doubled, rep2.z_doubled, rep1.signature.p, rep2.signature.p)


def _two_signs(structure: StructureChoice) -> tuple[int, int]:
    if len(structure.signs) != 2:
        raise ValueError("two-factor structure choice expected")
    return structure.signs


def tensor_rep(k: int, l: int, structure: StructureChoice) -> ExplicitRep:
    """Tensor product of the degree-k and degree-l models.

    The basis follows :func:`_tensor_order`.  The structure signs flip the
    Z-contribution of the corresponding factor.
    """
    s1, s2 = _two_signs(structure)
    return ExplicitRep(
        dim=(k + 1) * (l + 1),
        signature=tensor_signature(k, l),
        z_doubled=tuple([s1 * a + s2 * b for a, b in _tensor_columns(k, l)]),
        degrees=(k, l),
    )


def tensor_signature(k: int, l: int) -> SignaturePair:
    one, two = sym_power_signature(k), sym_power_signature(l)
    return SignaturePair(one.p * two.p + one.q * two.q, one.p * two.q + one.q * two.p)


def tensor_factor_pairings(k: int, l: int) -> tuple[Fraction, Fraction]:
    """Per-factor contributions (P1, P2) to the diagonal-disc pairing.

    P_t pairs the Z-contribution of factor t alone, laid out in the tensor
    basis, against the ambient central element; the pairing under structure
    signs (s1, s2) is s1*P1 + s2*P2.  Needs (k, l) != (0, 0).
    """
    sig = tensor_signature(k, l)
    return tuple(_pair_with_z(col, sig.p, sig.q) for col in zip(*_tensor_columns(k, l)))


def tensor_pairing(k: int, l: int, structure: StructureChoice) -> Fraction:
    s1, s2 = _two_signs(structure)
    p1, p2 = tensor_factor_pairings(k, l)
    return s1 * p1 + s2 * p2


def best_tensor_pairing(k: int, l: int) -> tuple[Fraction, Fraction]:
    """(structure pairing of largest modulus, diagonal-disc value) for (k, l).

    Ties go to the first structure representative.  Needs (k, l) != (0, 0).
    """
    # Only the largest pairing needs comparing with the disc value: twice a
    # pairing is the pullback coefficient of the Kahler class of su(p,q) along
    # the diagonal su(1,1), pullback does not increase its norm, pi times the
    # rank (Domic-Toledo), so |pairing| <= rank/2, the disc value.
    # tests/test_su11.py checks the bound exactly for all k, l < 25.
    p1, p2 = tensor_factor_pairings(k, l)
    sig = tensor_signature(k, l)
    signs = (s.signs for s in structure_representatives(2))
    best = max((s1 * p1 + s2 * p2 for s1, s2 in signs), key=abs)
    return best, disc_pairing_value(sig.p, sig.q)
