"""Tightness classification with machine-checkable witnesses.

Every supported algebra gets two independent verdicts per highest weight:

* the theorem route, a closed-form rule over the weight coordinates, and
* the constructive route, which re-runs the underlying computation
  (diagonal-disc pairings for one- and two-factor domains; on the rank-two
  domains, branching to tight regular subalgebras, in the module ``rank2``).

The two must agree; a mismatch raises and is treated as an implementation
bug.  Nontight verdicts carry a witness that can be replayed.  Tight ones
carry an exact pairing equality or, on the rank-two domains, a pointer into
the bundled holomorphic classification table, certified by their class map.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from . import kahler, rank2, rootsys
from .errors import VerificationError, ratio
from .su11 import clebsch_gordan, doubled_disc_pairing

ALGEBRAS = ("su11", "su11xsu11", "sp4", "sp4su11", "su21")

# The simple factor kinds of each algebra, in weight-coordinate order.
_FACTOR_KINDS = {
    "su11": ("A1",),
    "su11xsu11": ("A1", "A1"),
    "sp4": ("C2",),
    "sp4su11": ("C2", "A1"),
    "su21": ("A2",),
}

# Reference data: the weights whose corresponding maps are (anti-)
# holomorphic, from the classification of holomorphic tight maps.  This is
# the theorem route's stored data; a flag derived from each weight (one
# integer per weight, Satake's (H1) condition) is not implemented.
HOLOMORPHIC_WEIGHTS = {
    "su11": {(1,)},
    "su11xsu11": {(1, 0), (0, 1)},
    "sp4": {(1, 0)},
    "sp4su11": {(1, 0, 0), (0, 0, 1)},
    "su21": {(1, 0), (0, 1)},
}

class RouteDisagreement(VerificationError):
    """Theorem route and constructive route disagreed: an implementation bug."""


def _factor_kinds(algebra: str) -> tuple[str, ...]:
    if algebra not in ALGEBRAS:
        raise ValueError(f"unknown algebra {algebra!r}; expected one of {ALGEBRAS}")
    return _FACTOR_KINDS[algebra]


def _rank(algebra: str) -> int:
    """The number of weight coordinates: the sum of the factors' ranks, read
    off their Cartan labels (type Xn has rank n), so no root system is built."""
    return sum(int(kind[1:]) for kind in _factor_kinds(algebra))


def root_system_for(algebra: str) -> rootsys.RootSystemData:
    """The root system of a single-factor algebra."""
    kinds = _factor_kinds(algebra)
    if len(kinds) > 1:
        raise ValueError(f"{algebra} has the factors {' x '.join(kinds)}, not one root system")
    return rootsys.build_root_system(kinds[0])


def validate_weight(algebra: str, w) -> tuple[int, ...]:
    rank = _rank(algebra)
    coords = tuple(w)
    if len(coords) != rank:
        raise ValueError(f"{algebra} expects {rank} weight coordinates, got {len(coords)}")
    try:
        bad = any((not isinstance(c, int) and int(c) != c) or c < 0 for c in coords)
    except (TypeError, ValueError, OverflowError):  # None, an infinity, a NaN, a string
        bad = True
    if bad:
        raise ValueError(f"weight {coords} is not dominant integral")
    return tuple(int(c) for c in coords)


# The wire type of each witness field after ``kind``: a set field has exactly
# this type, so a bool is no int, and a weight's entries are ints.
_FIELD_TYPES = {"subalgebra": str, "weight": tuple, "evaluation": int,
                "pairing_lhs": int, "pairing_rhs": int}


class Witness(namedtuple("Witness", ("kind", *_FIELD_TYPES), defaults=(None,) * len(_FIELD_TYPES))):
    """A replayable certificate of one verdict.

    The fields, in order, are the wire schema; a field the kind does not
    carry (``WITNESS_SCHEMA``) is ``None`` and left out of reports.  The
    pairing fields hold half-integers doubled, as ints.
    """

    __slots__ = ()

    def wire(self) -> dict:
        """The set fields in wire order, each pairing as its half, 'p/q' or 'p' when whole."""
        return {k: ratio(v, 2) if k.startswith("pairing_") and type(v) is int else v
                for k, v in zip(self._fields, self) if v is not None}

    def __str__(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.wire().items())


WitnessKind = namedtuple("WitnessKind", "fields algebras tight")

# The witness schema.  For each kind: the fields it sets after ``kind``, in
# wire order; the algebras whose constructive route emits it; and whether it
# may certify a tight verdict.  Replay refuses every witness outside it.
WITNESS_SCHEMA = {
    "zero_class": WitnessKind((), ALGEBRAS, False),
    "pairing": WitnessKind(("pairing_lhs", "pairing_rhs"), ("su11", "su11xsu11", "sp4su11"), True),
    "clebsch_gordan_even": WitnessKind(("evaluation",), ("su11xsu11",), False),
    "even_branch_witness": WitnessKind(("subalgebra", "weight", "evaluation"),
                                       ("sp4", "sp4su11", "su21"), False),
    "even_tensor_factor": WitnessKind(("subalgebra", "evaluation"), ("sp4su11",), False),
    "reference_classification": WitnessKind((), ("sp4", "sp4su11", "su21"), True),
}


TightnessVerdict = namedtuple("TightnessVerdict", "algebra weight tight holomorphic witness")


def theorem_tight(algebra: str, w: tuple[int, ...]) -> bool:
    """Closed-form tightness rule read off the classification theorems."""
    if algebra == "su11":
        (k,) = w
        return k % 2 == 1
    if algebra == "su11xsu11":
        return _pair_tight_rule(*w)
    if algebra == "sp4":
        return w == (1, 0)
    if algebra == "su21":
        return w in ((1, 0), (0, 1))
    if algebra == "sp4su11":
        i, j, k = w
        return w == (1, 0, 0) or ((i, j) == (0, 0) and k % 2 == 1)
    raise ValueError(f"unknown algebra {algebra!r}")


def _pair_tight_rule(u: int, v: int) -> bool:
    """Tightness of the irreducible two-factor model with weights (u, v)."""
    return (u % 2 == 1 and v == 0) or (v % 2 == 1 and u == 0)


def _pairing_verdict(lhs: int, rhs: int) -> tuple[bool, Witness]:
    """Diagonal-disc criterion on a doubled (pairing, disc value) pair, with its witness."""
    return abs(lhs) == abs(rhs), Witness("pairing", pairing_lhs=lhs, pairing_rhs=rhs)


def _disc_pairing(w: tuple[int, ...]) -> tuple[int, int]:
    """Doubled (pairing, disc value) of the model of the last two coordinates:
    the degree-k model on su11, else the two-factor model."""
    return doubled_disc_pairing(*w[-2:])


# -- constructive route -----------------------------------------------------


def _certificate(algebra: str, w: tuple[int, ...]) -> tuple[bool, Witness] | None:
    """The verdict a witness decides, or None when no witness shows ``w`` nontight.

    In order: the zero class; at equal parities of su11xsu11, the composite's
    even factors, the top one k + l; the pairing of the one- and two-factor
    models, sp4su11 (0, 0, k) composing to the model (0, k); else a witness
    that branching the rank-two factor (C2 or A2) finds, in ``rank2``.
    """
    if not any(w):
        return False, Witness("zero_class")
    if algebra == "su11xsu11" and w[0] % 2 == w[1] % 2:
        return False, Witness("clebsch_gordan_even", evaluation=sum(w))
    if _FACTOR_KINDS[algebra][0] == "A1" or not any(w[:2]):
        return _pairing_verdict(*_disc_pairing(w))
    witness = rank2._branch_certificate(algebra, w)
    return None if witness is None else (False, witness)


def constructive_verdict(algebra: str, w: tuple[int, ...]) -> tuple[bool, Witness]:
    """Re-run the computation behind the theorems for one weight: its certificate,
    else its class map, which is tight iff the weight is (Burger-Iozzi-Wienhard)."""
    w = validate_weight(algebra, w)
    found = _certificate(algebra, w)
    if found is not None:
        return found
    if not kahler.is_tight(rank2._class_map(algebra, w)):
        raise VerificationError(f"{algebra} {w}: nontight, but no witness")
    return True, Witness("reference_classification")


def holomorphic_flag(algebra: str, w: tuple[int, ...]) -> bool | None:
    if all(c == 0 for c in w):
        return None
    return tuple(w) in HOLOMORPHIC_WEIGHTS[algebra]


def classify(algebra: str, w) -> TightnessVerdict:
    """Verdict for one weight, theorem-checked and witness-carrying."""
    coords = validate_weight(algebra, w)
    tight_constructive, witness = constructive_verdict(algebra, coords)
    tight_theorem = theorem_tight(algebra, coords)
    if tight_constructive != tight_theorem:
        raise RouteDisagreement(
            f"{algebra} {coords}: theorem says tight={tight_theorem}, "
            f"constructive says tight={tight_constructive}"
        )
    return TightnessVerdict(
        algebra=algebra,
        weight=coords,
        tight=tight_theorem,
        holomorphic=holomorphic_flag(algebra, coords),
        witness=witness,
    )


# -- witness replay ---------------------------------------------------------


def _wire_types_hold(verdict: TightnessVerdict) -> bool:
    """The verdict's weight is a tuple of the algebra's length of non-negative
    ints and ``tight`` a bool: 2.0 or True would pass the comparisons and
    int-keyed lookups of replay, and '2', -1 or a wrong length would raise."""
    w = verdict.weight
    return (
        type(w) is tuple and len(w) == _rank(verdict.algebra) and type(verdict.tight) is bool
        and all(type(x) is int and x >= 0 for x in w)
    )


def _schema_row(algebra: str, wit: Witness) -> WitnessKind | None:
    """The witness's ``WITNESS_SCHEMA`` row if ``algebra`` emits its kind, a str,
    and it sets exactly the kind's fields, each of its wire type; else None."""
    row = WITNESS_SCHEMA.get(wit.kind) if type(wit.kind) is str else None
    values = {f: v for f, v in zip(_FIELD_TYPES, wit[1:]) if v is not None}
    fits = (
        row is not None and algebra in row.algebras and tuple(values) == row.fields
        and all(type(v) is _FIELD_TYPES[f] for f, v in values.items())
        and all(type(x) is int for x in values.get("weight", ()))
    )
    return row if fits else None


def replay_witness(verdict: TightnessVerdict) -> bool:
    """Recompute the recorded witness; True iff it checks out.

    Even-branch and tensor-factor witnesses read their branching through
    ``rank2._branching``, shared by the rows of one rank-two top.  The sp4su11
    constructive route branches only at (0, 0, k) and (1, 0, k); elsewhere it
    only calls ``is_weight``, so a memo hit there is an earlier row's replay.
    Everything else is recomputed.

    The witness must fit ``WITNESS_SCHEMA``, the weight and ``tight`` their wire
    types and ``holomorphic`` the reference flag; a tight verdict needs a kind
    that may certify one, and ``reference_classification`` a tight class map.
    """
    wit = verdict.witness
    # tuple membership compares without hashing, so an unhashable algebra is refused here
    if type(wit) is not Witness or verdict.algebra not in ALGEBRAS:
        return False
    row = _schema_row(verdict.algebra, wit)
    if row is None or not _wire_types_hold(verdict):
        return False
    if verdict.holomorphic is not holomorphic_flag(verdict.algebra, verdict.weight):
        return False
    if verdict.tight and not row.tight:
        return False
    kind = wit.kind
    if kind == "zero_class":
        return not any(verdict.weight)
    if kind == "pairing":
        w = verdict.weight
        # the zero weight has no disc, and sp4su11 pairs only on (0, 0, k)
        return (any(w) and not (verdict.algebra == "sp4su11" and any(w[:2]))
                and _pairing_verdict(*_disc_pairing(w)) == (verdict.tight, wit))
    if kind == "clebsch_gordan_even":
        k, l = verdict.weight
        return (
            wit.evaluation == k + l
            and k + l != 0
            and all(m % 2 == 0 for m in clebsch_gordan(k, l))
        )
    if kind == "even_branch_witness":
        return rank2._replay_even_branch(verdict)
    if kind == "even_tensor_factor":
        value = wit.evaluation
        return (
            wit.subalgebra == "a2,2a1+a2"
            and value != 0
            and value % 2 == 0
            and any(value in f for f in rank2._sp4su11_expansion(*verdict.weight))
        )
    return (
        verdict.tight
        and verdict.weight in HOLOMORPHIC_WEIGHTS[verdict.algebra]
        and kahler.is_tight(rank2._class_map(verdict.algebra, verdict.weight))
    )


def cross_check(algebra: str, w) -> TightnessVerdict:
    """Run both routes, demand agreement, verify witness replay, and return
    the replayed verdict."""
    verdict = classify(algebra, w)  # raises RouteDisagreement on mismatch
    if not replay_witness(verdict):
        raise RouteDisagreement(
            f"{algebra} {verdict.weight}: witness failed replay: {verdict.witness}"
        )
    return verdict


def dominant_weights(algebra: str, bound: int) -> list[tuple[int, ...]]:
    """All dominant integral weights with coordinate sum at most ``bound``."""
    rank = _rank(algebra)
    return [w for w in itertools.product(range(bound + 1), repeat=rank) if sum(w) <= bound]


def sweep(algebra: str, bound: int) -> dict:
    """Cross-checked verdicts (``rows``) of every dominant weight up to
    ``bound``, with tight/nontight ``counts``; a disagreement or a failed
    replay raises ``RouteDisagreement``."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rows = [cross_check(algebra, w) for w in dominant_weights(algebra, bound)]
    tight = sum(1 for r in rows if r.tight)
    return {"rows": rows, "counts": {"tight": tight, "nontight": len(rows) - tight}}


def embedding_table() -> tuple[rank2.EmbeddingRow, ...]:
    """Reference rows for a sample of every classical family (``rank2.embedding_table``)."""
    return rank2.embedding_table()


def verdict_class_map(verdict: TightnessVerdict) -> kahler.HomClassMap:
    """Bounded-class bookkeeping of a verdict's constructive decomposition.

    The verdict is tight iff the returned map preserves the norm of the
    distinguished class; nontight verdicts decrease it strictly.
    """
    return rank2._class_map(verdict.algebra, verdict.weight)
