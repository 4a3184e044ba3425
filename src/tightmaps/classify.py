"""Tightness classification with machine-checkable witnesses.

Every supported algebra gets two independent verdicts per highest weight:

* the theorem route, a closed-form rule over the weight coordinates, and
* the constructive route, which re-runs the underlying computation
  (diagonal-disc pairings for one- and two-factor domains, branching to
  tight regular subalgebras for the rank-two domains).

The two must agree; a mismatch raises and is treated as an implementation
bug.  Nontight verdicts carry a witness that can be replayed.  Tight ones
carry an exact pairing equality or, on the rank-two domains, a pointer into
the bundled holomorphic classification table, certified by their class map.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from functools import lru_cache

from . import branching, kahler, rootsys
from .errors import VerificationError, ratio
from .su11 import (
    clebsch_gordan,
    doubled_disc_pairing,
    doubled_pairings,
    signature,
)

ALGEBRAS = ("su11", "su11xsu11", "sp4", "sp4su11", "su21")

# The simple factor kinds of each algebra, in weight-coordinate order.
_FACTOR_KINDS = {
    "su11": ("A1",),
    "su11xsu11": ("A1", "A1"),
    "sp4": ("C2",),
    "sp4su11": ("C2", "A1"),
    "su21": ("A2",),
}

# The rank-two factor of each algebra that the constructive route branches;
# its highest weight is the first two coordinates.
_RANK2_FACTOR = {"sp4": "sp4", "sp4su11": "sp4", "su21": "su21"}

# Reference data: the weights whose corresponding maps are (anti-)
# holomorphic, from the classification of holomorphic tight maps.  Stored,
# not derived; deriving holomorphicity needs equivariance machinery that is
# out of scope here.
HOLOMORPHIC_WEIGHTS = {
    "su11": {(1,)},
    "su11xsu11": {(1, 0), (0, 1)},
    "sp4": {(1, 0)},
    "sp4su11": {(1, 0, 0), (0, 0, 1)},
    "su21": {(1, 0), (0, 1)},
}

# Tight regular subalgebras used by the constructive route, as selectors
# over the simple roots of the rank-two systems.
TIGHT_SUBALGEBRA_SELECTORS = {
    "sp4": ("a1+a2", "a2,2a1+a2"),
    "su21": ("a1",),
}

# The witness kinds each algebra's constructive route emits; replay rejects
# every other kind.
_WITNESS_KINDS = {
    "su11": ("zero_class", "pairing"),
    "su11xsu11": ("zero_class", "pairing", "clebsch_gordan_even"),
    "sp4": ("zero_class", "even_branch_witness", "reference_classification"),
    "su21": ("zero_class", "even_branch_witness", "reference_classification"),
    "sp4su11": ("zero_class", "pairing", "even_branch_witness", "even_tensor_factor",
                "reference_classification"),
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


class Witness(namedtuple("Witness", (
    "kind",  # str
    "subalgebra",  # str
    "weight",  # tuple of ints
    "evaluation",  # int
    "pairing_lhs",  # int: twice the pairing
    "pairing_rhs",  # int: twice the diagonal-disc value
), defaults=(None,) * 5)):
    """A replayable certificate of one verdict.

    The fields, in order, are the wire schema; ``None`` marks a field the
    kind does not carry, and such fields are left out of reports.  The two
    pairing fields hold half-integers doubled, as ints, and are written as
    their halves, 'p/q' or 'p' when whole.
    """

    __slots__ = ()

    def __str__(self) -> str:  # the set fields in wire order, pairings as halves
        return ", ".join(
            f"{k}={ratio(v, 2) if k.startswith('pairing_') and type(v) is int else v}"
            for k, v in self._asdict().items() if v is not None
        )


TightnessVerdict = namedtuple("TightnessVerdict", "algebra weight tight holomorphic witness")


def _rank2_weight(algebra: str, w: tuple[int, ...]) -> rootsys.WeightVector:
    """Highest weight ``w[:2]`` of the rank-two factor of ``algebra``."""
    return rootsys.weight(root_system_for(_RANK2_FACTOR[algebra]), w[:2])


@lru_cache(maxsize=None)
def _subalgebra(algebra: str, selector: str) -> branching.SubalgebraSpec:
    system = root_system_for(_RANK2_FACTOR[algebra])
    simple = branching.parse_subalgebra_selector(system, selector)
    return branching.make_subalgebra(system, simple)


# Rows come from ``dominant_weights`` with the last coordinate fastest, so the
# rows of one rank-two top are consecutive, and one top needs one branching:
# ``a1`` on su21, ``a1+a2`` for the sp4 tops with i = 0, else the long pair.
# Four entries cover that with room to spare.  The key is the spec's value, so
# a different or patched subalgebra never reads a stale entry.  ``restrict_rep``
# is read off the ``branching`` module on each miss, so the function bound
# there when the miss happens (as ``benchmarks/trace_child.py`` rebinds it, or
# a test patches it) computes the branching.
@lru_cache(maxsize=4)
def _branching(top: rootsys.WeightVector,
               sub: branching.SubalgebraSpec) -> branching.BranchingResult:
    """``restrict_rep(top, sub)``, dimension-checked, shared by the rows of a top."""
    return branching.restrict_rep(top, sub)


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


def _sp4_split_witness(w: tuple[int, ...]) -> Witness | None:
    """Witness of the two-case split on the sp4 factor (i, j), or None at (1, 0).

    First case, i = 0: the short-root disc, value 2j on the top.  Second
    case: the orthogonal long pair, whose value i + j on the top is taken
    when even; otherwise the C2 proof-chain step leads to (i, j - 1), whose
    value i + j - 1 is then even and nonzero.
    """
    i, j = w[:2]
    if i == 0:
        return Witness("even_branch_witness", "a1+a2", (0, j), 2 * j)
    if (i, j) == (1, 0):
        return None
    coords, value = (i, j), i + j
    if value % 2:
        (step,) = branching._WITNESS_STEPS["C2"]
        coords, value = tuple(map(operator.sub, coords, step)), value - 1
    if not rootsys.is_weight(_rank2_weight("sp4", w), coords):
        raise VerificationError(f"witness weight {coords} is not a weight of {w[:2]}")
    return Witness("even_branch_witness", "a2,2a1+a2", coords, value)


def _certificate(algebra: str, w: tuple[int, ...]) -> tuple[bool, Witness] | None:
    """The verdict a witness decides, or None when no witness shows ``w`` nontight.

    In order: the zero class; at equal parities of su11xsu11, the composite's
    even factors, the top one k + l; the pairing of the one- and two-factor
    models, sp4su11 (0, 0, k) composing to the model (0, k); su21's search on
    its tight a1 disc; the sp4 split; at sp4su11 (1, 0, k), an even factor.
    """
    if not any(w):
        return False, Witness("zero_class")
    if algebra == "su11xsu11" and w[0] % 2 == w[1] % 2:
        return False, Witness("clebsch_gordan_even", evaluation=sum(w))
    if algebra not in _RANK2_FACTOR or not any(w[:2]):
        return _pairing_verdict(*_disc_pairing(w))
    if algebra == "su21":
        # the proof chains, then the full support
        found = branching.even_witness(_rank2_weight(algebra, w), _subalgebra(algebra, "a1"))
        return None if found is None else (False, Witness("even_branch_witness", "a1", *found))
    witness = _sp4_split_witness(w)
    if witness is None and algebra == "sp4su11":
        value = w[2] + w[2] % 2
        if value and any(value in f for f in _sp4su11_expansion(*w)):
            witness = Witness("even_tensor_factor", "a2,2a1+a2", evaluation=value)
    return None if witness is None else (False, witness)


def _sp4su11_expansion(i: int, j: int, k: int) -> dict[tuple[int, int], int]:
    """Copies of each two-factor piece (a, c) of the composite with the long pair.

    The rank-two factor branches over the orthogonal long pair into factors
    (a, b), a along the doubled short direction, b along the long simple
    root; tensoring the b-string with the outer degree-k factor and
    splitting again leaves irreducible pieces (a, c) with c in the
    Clebsch-Gordan range of (b, k).
    """
    pair = _subalgebra("sp4su11", "a2,2a1+a2")
    branch = _branching(_rank2_weight("sp4su11", (i, j)), pair)
    out: dict[tuple[int, int], int] = {}
    for (b, a), copies in branch.factors:  # stored as (a2 value, 2a1+a2 value)
        for c in clebsch_gordan(b, k):
            out[a, c] = out.get((a, c), 0) + copies
    return out


def constructive_verdict(algebra: str, w: tuple[int, ...]) -> tuple[bool, Witness]:
    """Re-run the computation behind the theorems for one weight: its certificate,
    else its class map, which is tight iff the weight is (Burger-Iozzi-Wienhard)."""
    w = validate_weight(algebra, w)
    found = _certificate(algebra, w)
    if found is not None:
        return found
    if not kahler.is_tight(_class_map(algebra, w)):
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


def _replay_even_branch(verdict: TightnessVerdict) -> bool:
    wit = verdict.witness
    if None in (wit.subalgebra, wit.weight, wit.evaluation) or wit != Witness(
        wit.kind, wit.subalgebra, wit.weight, wit.evaluation
    ):
        return False
    factor = _RANK2_FACTOR[verdict.algebra]
    if wit.subalgebra not in TIGHT_SUBALGEBRA_SELECTORS[factor] or len(wit.weight) != 2:
        return False
    sub = _subalgebra(verdict.algebra, wit.subalgebra)
    top = _rank2_weight(verdict.algebra, verdict.weight)
    if not rootsys.is_weight(top, wit.weight):
        return False
    values = sub.evaluate(wit.weight)
    value = wit.evaluation
    if value == 0 or value % 2 != 0 or value not in values:
        return False
    # the recorded value certifies a factor of even nonzero highest weight
    # in the matching coordinate
    idx = values.index(value)
    heights = [f[idx] for f, _ in _branching(top, sub).factors]
    return any(m % 2 == 0 and m != 0 and m >= abs(value) for m in heights)


def _replay_pairing(verdict: TightnessVerdict) -> bool:
    w = verdict.weight
    # the zero weight has no disc, and sp4su11 pairs only on (0, 0, k)
    if not any(w) or (verdict.algebra == "sp4su11" and any(w[:2])):
        return False
    found = _pairing_verdict(*_disc_pairing(w))
    return found == (verdict.tight, verdict.witness)


def _wire_types_hold(verdict: TightnessVerdict) -> bool:
    """Set fields of the verdict and its witness have their schema types, and
    the weight is dominant: 2.0 or True would pass the comparisons and
    int-keyed lookups of replay, and '2', -1 or a wrong length would raise."""
    wit, w = verdict.witness, verdict.weight
    weight = () if wit.weight is None else wit.weight
    return (
        type(w) is tuple and len(w) == _rank(verdict.algebra) and type(verdict.tight) is bool
        and all(type(x) is int and x >= 0 for x in w)
        and type(weight) is tuple
        and all(type(x) is int for x in weight)
        and type(wit.evaluation) in (int, type(None))
        and all(type(x) in (int, type(None)) for x in (wit.pairing_lhs, wit.pairing_rhs))
    )


def replay_witness(verdict: TightnessVerdict) -> bool:
    """Recompute the recorded witness; True iff it checks out.

    Even-branch and tensor-factor witnesses read their branching through
    ``_branching``: within an sp4su11 sweep that is mostly the branching
    the row's constructive route, or an earlier row of the same sp4 top,
    already computed and checked.  Everything else is recomputed.

    A field the witness kind does not carry must be unset, and a set field
    must have its schema type, as must the verdict's weight and ``tight``.
    The verdict's flags are bound too: ``holomorphic`` must be the reference
    flag, and only ``pairing`` and ``reference_classification`` witnesses
    can certify a tight verdict, the latter only with a tight class map.
    """
    wit = verdict.witness
    # tuple membership compares without hashing, so an unhashable algebra is refused here
    if type(wit) is not Witness or verdict.algebra not in ALGEBRAS:
        return False
    kind = wit.kind
    if kind not in _WITNESS_KINDS[verdict.algebra] or not _wire_types_hold(verdict):
        return False
    if verdict.holomorphic is not holomorphic_flag(verdict.algebra, verdict.weight):
        return False
    if verdict.tight and kind not in ("pairing", "reference_classification"):
        return False
    if kind == "zero_class":
        return wit == Witness(kind) and not any(verdict.weight)
    if kind == "pairing":
        return _replay_pairing(verdict)
    if kind == "clebsch_gordan_even":
        k, l = verdict.weight
        return (
            wit == Witness(kind, evaluation=k + l)
            and k + l != 0
            and all(m % 2 == 0 for m in clebsch_gordan(k, l))
        )
    if kind == "even_branch_witness":
        return _replay_even_branch(verdict)
    if kind == "even_tensor_factor":
        value = wit.evaluation or 0
        return (
            wit == Witness(kind, "a2,2a1+a2", evaluation=value)
            and value != 0
            and value % 2 == 0
            and any(value in f for f in _sp4su11_expansion(*verdict.weight))
        )
    return (
        wit == Witness("reference_classification")
        and verdict.tight
        and verdict.weight in HOLOMORPHIC_WEIGHTS[verdict.algebra]
        and kahler.is_tight(_class_map(verdict.algebra, verdict.weight))
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


# -- embedding reference table -----------------------------------------------


EmbeddingRow = namedtuple("EmbeddingRow", (
    "algebra",
    "probe",  # which of sp4 / sp4+su11 / su21 embeds tightly holomorphically
    "tube_subalgebra",
    "tube_target",
))


def embedding_table() -> tuple[EmbeddingRow, ...]:
    """Reference rows for a sample of every classical family.

    The tube target of every row is su(m, m), m read off the family.
    """

    def row(alg, sub, m):
        probe = "su21" if alg.rank == 1 else "sp4" if alg.rank % 2 == 0 else "sp4+su11"
        return EmbeddingRow(alg, probe, sub, kahler.su(m, m))

    su = kahler.su
    rows = [row(su(p, q), su(q, q), q) for q in range(1, 5) for p in range(max(q, 2), 6)]
    rows += [row(kahler.sp(2 * n), kahler.sp(2 * n), n) for n in range(2, 7)]
    # so*(2n) for odd n has the tube subalgebra so*(2(n-1))
    rows += [
        row(kahler.so_star(2 * n), kahler.so_star(2 * (n - n % 2)), n - n % 2)
        for n in range(4, 11)
    ]
    rows += [row(kahler.so2n(n), kahler.so2n(n), 2 ** ((n - 1) // 2)) for n in range(3, 11)]
    return tuple(rows)


# -- conversion of verdicts into class-map bookkeeping ------------------------


def _route_map(rank: int, factors) -> kahler.HomClassMap:
    """Class map of a domain of ``rank`` su(1,1) factors through its decomposition.

    ``factors`` are (degrees, copies) pairs, one su(1,1) degree per domain
    factor; n copies of a nonzero su(p, q) factor add one target su(np, nq)
    whose column is n times the factor's doubled pairings, over denominator 1.
    """
    source = (kahler.su(1, 1),) * rank
    targets, columns = [], []
    for degrees, n in factors:
        if not any(degrees):
            continue
        sig = signature(*degrees)
        targets.append(kahler.su(n * sig.p, n * sig.q))
        columns.append([n * d for d in doubled_pairings(*degrees)])
    if not targets:
        return kahler.HomClassMap(source, source[:1], ((0,),) * rank, 1)
    return kahler.HomClassMap(source, tuple(targets), tuple(zip(*columns)), 1)


def verdict_class_map(verdict: TightnessVerdict) -> kahler.HomClassMap:
    """Bounded-class bookkeeping of a verdict's constructive decomposition.

    The verdict is tight iff the returned map preserves the norm of the
    distinguished class; nontight verdicts decrease it strictly.
    """
    return _class_map(verdict.algebra, verdict.weight)


def _class_map(algebra: str, w: tuple[int, ...]) -> kahler.HomClassMap:
    """``verdict_class_map`` of the weight ``w`` of ``algebra``."""
    if algebra in ("su11", "su11xsu11"):
        return _route_map(len(w), [(w, 1)])
    if algebra == "sp4su11":
        return _route_map(2, _sp4su11_expansion(*w).items())
    if algebra not in _RANK2_FACTOR:
        raise ValueError(f"unknown algebra {algebra!r}")
    # su21 on its a1 disc; sp4 on the short-root disc when i = 0, else the long pair
    selector = "a1" if algebra == "su21" else "a1+a2" if w[0] == 0 else "a2,2a1+a2"
    sub = _subalgebra(algebra, selector)
    factors = _branching(_rank2_weight(algebra, w), sub).factors
    # the long pair's (a2, 2a1+a2) values reversed are the (a, b) degrees of
    # _sp4su11_expansion; a rank-one factor is its own reverse
    return _route_map(sub.rank, [(f[::-1], n) for f, n in factors])
