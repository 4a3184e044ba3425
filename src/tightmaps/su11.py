"""Explicit symmetric-power models of irreducible su(1,1)-representations.

The degree-k model lives on the symmetric power of the standard
representation, carries an invariant indefinite Hermitian form, and is
stored by its doubled central element: every Z-image is ``i*diag(d/2)``
with ``d`` a trace-zero sequence of integers, basis ordered positive vectors
first.  A model keeps ``d`` as two blocks, the entries on the positive
vectors and those on the negative ones; for the degree-k model these are
``range(k, -k-1, -4)`` and ``range(k-2, -k-1, -4)``, so no entry is stored.
Signatures depend on k alone and are read without a model.

The central element of su(p,q) is ``q/(p+q)`` on every positive vector and
``-p/(p+q)`` on every negative one, so ``d`` pairs with it to
``q*sum(pos) - p*sum(neg)`` over ``2(p+q)``; as ``d`` is trace free, twice
the pairing is ``sum(pos)``, the positive-block sum, an int.  The diagonal
disc's positive block holds ``min(p,q)`` ones: its doubled value is the
rank.  The ``Fraction``-valued functions halve these.  A range block sums in
closed form, so a degree-k model pairs in O(1).  Each factor of a tensor
product pairs on its own, giving P1 and P2, and signs (s1, s2) pair to
``s1*P1 + s2*P2``.  In the tensor basis a factor's positive entry meets the
other's p positive and q negative vectors in the positive and negative
blocks, a negative entry the other way round, so 2P_t is factor t's
positive-block sum times the other factor's p - q.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

Block = range | tuple[int, ...]  # doubled Z-entries of one block: d for i*diag(d/2)


class SignaturePair(namedtuple("_SignaturePair", "p q")):
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


def _block_sum(block: Block) -> int:
    """``sum(block)``; a range in closed form, its length times the mean of its ends."""
    if isinstance(block, range):
        return len(block) * (block[0] + block[-1]) // 2 if block else 0
    return sum(block)


class ExplicitRep(namedtuple("_ExplicitRep", "dim signature z_pos z_neg degrees block_sums")):
    """A representation given by its form signature and doubled Z-image.

    The doubled Z-image is kept as its two blocks: ``z_pos`` on the
    positive basis vectors, ``z_neg`` on the negative ones.  ``degrees`` is
    (k,) for the degree-k model and (k, l) for the tensor product of the
    degree-k and degree-l models.  ``block_sums``, derived and not passed,
    is taken by the trace check; it is all a pairing reads.
    """

    __slots__ = ()

    def __new__(cls, dim: int, signature: SignaturePair, z_pos: Block, z_neg: Block,
                degrees: tuple[int, ...]):
        if signature.dim != dim:
            raise ValueError("signature does not sum to the dimension")
        if (len(z_pos), len(z_neg)) != signature:
            raise ValueError("diagonal/basis length mismatch")
        if math.prod(d + 1 for d in degrees) != dim:
            raise ValueError("degrees do not match the dimension")
        sums = _block_sum(z_pos), _block_sum(z_neg)
        if sum(sums) != 0:
            raise ValueError("Z-image must be trace free")
        return super().__new__(cls, dim, signature, z_pos, z_neg, degrees, sums)

    def __getnewargs__(self):
        # pickling and copying rebuild through __new__, which derives the sums
        return tuple(self)[:-1]

    @property
    def z_doubled(self) -> tuple[int, ...]:
        """The whole doubled diagonal, positive block first, built on request."""
        return (*self.z_pos, *self.z_neg)


class StructureChoice(namedtuple("_StructureChoice", "signs")):
    """Signs of the complex structure on the two su(1,1) factors of the domain."""

    __slots__ = ()

    def __new__(cls, signs: tuple[int, int]):
        if len(signs) != 2 or any(s not in (1, -1) for s in signs):
            raise ValueError(f"signs {signs} must be two entries, each +1 or -1")
        return super().__new__(cls, signs)


def structure_representatives() -> tuple[StructureChoice, ...]:
    """One representative per {J, -J} pair: first sign pinned to +1."""
    return StructureChoice((1, 1)), StructureChoice((1, -1))


def sym_power_signature(k: int) -> SignaturePair:
    """Signature of the degree-k model: e1^(k-m) e2^m is positive iff m is even."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return SignaturePair(k // 2 + 1, (k + 1) // 2)


def sym_power_rep(k: int) -> ExplicitRep:
    """Degree-k symmetric power of the standard su(1,1)-representation.

    Basis ordered positive vectors first: monomials e1^(k-m) e2^m with m
    even, then m odd; the Z-eigenvalue on e1^(k-m) e2^m is (k-2m)/2, stored
    doubled as k-2m.  Both blocks are ranges.
    """
    return ExplicitRep(
        dim=k + 1,
        signature=sym_power_signature(k),  # raises for k < 0
        z_pos=range(k, -k - 1, -4),
        z_neg=range(k - 2, -k - 1, -4),
        degrees=(k,),
    )


def _check_su(p: int, q: int) -> None:
    """Raise unless su(p,q), with p >= q, has a central element to pair with."""
    if p < q or q < 0:
        raise ValueError("expected p >= q >= 0")
    if p + q < 2:
        raise ValueError("su(p,q) needs p+q >= 2")


def pairing(x: tuple[int | Fraction, ...], y: tuple[int | Fraction, ...]) -> int | Fraction:
    """tr(X* Y) for X = i*diag(x), Y = i*diag(y): the exact sum of x_j * y_j."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(map(operator.mul, x, y))


def _half(doubled: int) -> Fraction:
    from fractions import Fraction  # only the Fraction-valued library functions load it

    return Fraction(doubled, 2)


def disc_pairing_value(p: int, q: int) -> Fraction:
    """Pairing of the diagonal disc of su(p,q) with its central element: half the rank."""
    _check_su(p, q)
    return _half(min(p, q))


def sym_power_pairing(k: int) -> tuple[Fraction, Fraction]:
    """(<rho(Z), Z_(p,q)>, diagonal-disc value of su(p,q)) for the degree-k
    model: ``doubled_disc_pairing(k)`` halved.

    Needs k >= 1: the degree-0 model carries no su(p,q) with p + q >= 2.
    """
    return tuple(map(_half, doubled_disc_pairing(k)))


def clebsch_gordan(k: int, l: int) -> tuple[int, ...]:
    """Highest weights of the factors of the degree-(k,l) tensor product."""
    if k < 0 or l < 0:
        raise ValueError("degrees must be nonnegative")
    return tuple(range(k + l, abs(k - l) - 1, -2))


def tensor_rep(k: int, l: int, structure: StructureChoice) -> ExplicitRep:
    """Tensor product of the degree-k and degree-l models, every entry stored.

    Positive block: pos(x)pos, then neg(x)neg; negative block: pos(x)neg,
    then neg(x)pos; each first-factor major.  The structure signs flip the
    Z-contribution of the corresponding factor.
    """
    s1, s2 = structure.signs
    one, two = sym_power_rep(k), sym_power_rep(l)

    def block(*parts: tuple[Block, Block]) -> tuple[int, ...]:
        return tuple([s1 * a + s2 * b for xs, ys in parts for a in xs for b in ys])

    return ExplicitRep(
        dim=(k + 1) * (l + 1),
        signature=tensor_signature(k, l),
        z_pos=block((one.z_pos, two.z_pos), (one.z_neg, two.z_neg)),
        z_neg=block((one.z_pos, two.z_neg), (one.z_neg, two.z_pos)),
        degrees=(k, l),
    )


def tensor_signature(k: int, l: int) -> SignaturePair:
    one, two = sym_power_signature(k), sym_power_signature(l)
    return SignaturePair(one.p * two.p + one.q * two.q, one.p * two.q + one.q * two.p)


def signature(*degrees: int) -> SignaturePair:
    """Form signature of the degree-k model, or of the degree-(k, l) product."""
    return sym_power_signature(*degrees) if len(degrees) == 1 else tensor_signature(*degrees)


def doubled_pairings(*degrees: int) -> tuple[int, ...]:
    """Twice the pairings with the central element of the model's su(p,q).

    (2P,) for the degree-k model, and (2P1, 2P2) for the degree-(k, l)
    product, where P_t pairs the Z-contribution of factor t alone, laid out
    in the tensor basis; the pairing under structure signs (s1, s2) is
    s1*P1 + s2*P2.  Each is a positive-block sum.  Needs a degree-k model
    with k >= 1, or (k, l) != (0, 0).
    """
    _check_su(*signature(*degrees))
    if len(degrees) == 1:
        return (sym_power_rep(*degrees).block_sums[0],)
    one, two = map(sym_power_rep, degrees)
    (p1, q1), (p2, q2) = one.signature, two.signature
    return (p2 - q2) * one.block_sums[0], (p1 - q1) * two.block_sums[0]


def tensor_pairing(k: int, l: int, structure: StructureChoice) -> Fraction:
    s1, s2 = structure.signs
    d1, d2 = doubled_pairings(k, l)
    return _half(s1 * d1 + s2 * d2)


def doubled_disc_pairing(*degrees: int) -> tuple[int, int]:
    """Twice (pairing, diagonal-disc value) in the su(p,q) of the model of
    ``degrees``: the degree-k model's pairing, or the degree-(k, l)
    product's structure pairing of largest modulus, ties going to the first
    structure representative.  Needs k >= 1, or (k, l) != (0, 0).
    """
    # Only the largest pairing needs comparing with the disc value: twice a
    # pairing is the pullback coefficient of the Kahler class of su(p,q) along
    # the diagonal su(1,1), pullback does not increase its norm, pi times the
    # rank (Domic-Toledo), so |pairing| <= rank/2, the disc value.
    # tests/test_su11.py checks the bound exactly for all k, l < 25.
    pairings = doubled_pairings(*degrees)
    if len(degrees) == 2:
        d1, d2 = pairings
        pairings = [s1 * d1 + s2 * d2 for s1, s2 in (s.signs for s in structure_representatives())]
    return max(pairings, key=abs), signature(*degrees).rank


def best_tensor_pairing(k: int, l: int) -> tuple[Fraction, Fraction]:
    """(structure pairing of largest modulus, diagonal-disc value) for (k, l):
    ``doubled_disc_pairing(k, l)`` halved.  Needs (k, l) != (0, 0)."""
    return tuple(map(_half, doubled_disc_pairing(k, l)))
