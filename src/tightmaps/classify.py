"""Tightness classification with machine-checkable witnesses.

Every supported algebra gets two independent verdicts per highest weight:

* the theorem route, a closed-form rule over the weight coordinates, and
* the constructive route, which re-runs the underlying computation
  (diagonal-disc pairings for one- and two-factor domains, branching to
  tight regular subalgebras plus string parity for the rank-two domains).

The two must agree; a mismatch raises and is treated as an implementation
bug.  Nontight verdicts carry a witness that can be replayed from scratch,
tight ones carry either an exact pairing equality or a pointer into the
bundled holomorphic classification table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import kahler
from .branching import (
    SL2,
    SubalgebraSpec,
    even_witness,
    make_subalgebra,
    parse_subalgebra_selector,
    restrict_rep,
)
from .errors import VerificationError
from .rootsys import (
    RootSystemData,
    WeightVector,
    build_root_system,
    multiplicity,
    weight,
)
from .su11 import (
    best_tensor_pairing,
    clebsch_gordan,
    sym_power_pairing,
    sym_power_signature,
    tensor_factor_pairings,
    tensor_signature,
)

ALGEBRAS = ("su11", "su11xsu11", "sp4", "sp4su11", "su21")

_SYSTEM_KIND = {
    "su11": "A1",
    "su11xsu11": "A1+A1",
    "sp4": "C2",
    "sp4su11": "C2+A1",
    "su21": "A2",
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


def root_system_for(algebra: str) -> RootSystemData:
    if algebra not in ALGEBRAS:
        raise ValueError(f"unknown algebra {algebra!r}; expected one of {ALGEBRAS}")
    return build_root_system(_SYSTEM_KIND[algebra])


def validate_weight(algebra: str, w) -> tuple[int, ...]:
    system = root_system_for(algebra)
    coords = tuple(w)
    if len(coords) != system.rank:
        raise ValueError(
            f"{algebra} expects {system.rank} weight coordinates, got {len(coords)}"
        )
    if any((not isinstance(c, int) and int(c) != c) or c < 0 for c in coords):
        raise ValueError(f"weight {coords} is not dominant integral")
    return tuple(int(c) for c in coords)


class Witness(NamedTuple):
    """A replayable certificate of one verdict.

    The fields, in order, are the wire schema; ``None`` marks a field the
    kind does not carry, and such fields are left out of reports.
    """

    kind: str
    subalgebra: str | None = None
    weight: tuple[int, ...] | None = None
    evaluation: int | None = None
    pairing_lhs: Fraction | None = None
    pairing_rhs: Fraction | None = None

    def __str__(self) -> str:  # the set fields in wire order, rationals as p/q
        return ", ".join(f"{k}={v}" for k, v in self._asdict().items() if v is not None)


class TightnessVerdict(NamedTuple):
    algebra: str
    weight: tuple[int, ...]
    tight: bool
    holomorphic: bool | None
    witness: Witness


def _rank2_weight(algebra: str, w: tuple[int, ...]) -> WeightVector:
    """Highest weight ``w[:2]`` of the rank-two factor of ``algebra``."""
    return weight(root_system_for(_RANK2_FACTOR[algebra]), w[:2])


@lru_cache(maxsize=None)
def _subalgebra(algebra: str, selector: str) -> SubalgebraSpec:
    system = root_system_for(_RANK2_FACTOR[algebra])
    return make_subalgebra(system, parse_subalgebra_selector(system, selector))


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


def _pairing_verdict(lhs: Fraction, rhs: Fraction) -> tuple[bool, Witness]:
    """Diagonal-disc criterion on a (pairing, disc value) pair, with its witness."""
    return abs(lhs) == abs(rhs), Witness("pairing", pairing_lhs=lhs, pairing_rhs=rhs)


# -- constructive routes ----------------------------------------------------


def _constructive_su11(k: int) -> tuple[bool, Witness]:
    if k == 0:
        return False, Witness("zero_class")
    return _pairing_verdict(*sym_power_pairing(k))


def _constructive_su11xsu11(k: int, l: int) -> tuple[bool, Witness]:
    if (k, l) == (0, 0):
        return False, Witness("zero_class")
    if k % 2 == l % 2:
        # both parities equal: every factor of the diagonal-disc composite
        # has even highest weight, the top one being k + l
        return False, Witness("clebsch_gordan_even", evaluation=k + l)
    return _pairing_verdict(*best_tensor_pairing(k, l))


def _check_membership(algebra: str, w: tuple[int, ...], coords) -> None:
    if not multiplicity(_rank2_weight(algebra, w), coords):
        raise VerificationError(f"witness weight {coords} is not a weight of {w[:2]}")


def _long_pair_witness(algebra: str, w: tuple[int, ...]) -> Witness:
    """Witness for the second branching case, on the orthogonal long pair.

    Prefers the highest weight (i, j) itself when its long-coroot value
    i + j is even; otherwise steps down the short dominant string to
    (i, j - 1), whose evaluation i + j - 1 is then even and nonzero.
    """
    i, j = w[:2]
    coords, value = ((i, j), i + j) if (i + j) % 2 == 0 else ((i, j - 1), i + j - 1)
    _check_membership(algebra, w, coords)
    return Witness("even_branch_witness", "a2,2a1+a2", coords, value)


def _constructive_sp4(i: int, j: int) -> tuple[bool, Witness]:
    if (i, j) == (0, 0):
        return False, Witness("zero_class")
    if i == 0:
        # first case: restrict to the short-root disc, value 2j on the top
        return False, Witness("even_branch_witness", "a1+a2", (i, j), 2 * j)
    if (i, j) != (1, 0):
        # second case: the orthogonal long pair; value i+j or i+j-1
        return False, _long_pair_witness("sp4", (i, j))
    # (1, 0): exhaustive search of both tight subalgebras finds nothing even
    top = _rank2_weight("sp4", (i, j))
    for selector in TIGHT_SUBALGEBRA_SELECTORS["sp4"]:
        if even_witness(top, _subalgebra("sp4", selector)) is not None:
            raise RouteDisagreement("unexpected even witness for sp4 weight (1,0)")
    return True, Witness("reference_classification")


def _su21_chain_witness(k: int, l: int) -> tuple[tuple[int, int], int] | None:
    """Witness candidates along the two proof chains, with their values.

    The first chain steps down the sum of the simple roots (values k, k-1,
    k-2, ...), the second steps down the compact simple root (value k+1).
    Returns the first candidate whose value is even and nonzero.
    """
    candidates = [
        ((k, l), k),
        ((k - 1, l - 1), k - 1),
        ((k - 2, l - 2), k - 2),
        ((k + 1, l - 2), k + 1),
    ]
    for coords, value in candidates:
        if value != 0 and value % 2 == 0:
            return coords, value
    return None


def _constructive_su21(k: int, l: int) -> tuple[bool, Witness]:
    if (k, l) == (0, 0):
        return False, Witness("zero_class")
    sub = _subalgebra("su21", "a1")
    if (k, l) in ((1, 0), (0, 1)):
        if even_witness(_rank2_weight("su21", (k, l)), sub) is not None:
            raise RouteDisagreement(f"unexpected even witness for su21 weight {(k, l)}")
        return True, Witness("reference_classification")
    found = _su21_chain_witness(k, l)
    if found is None:
        raise RouteDisagreement(f"no chain witness for su21 weight {(k, l)}")
    coords, value = found
    _check_membership("su21", (k, l), coords)
    if sub.evaluate(coords) != [value]:
        raise VerificationError(f"su21 chain witness {coords} does not evaluate to {value}")
    return False, Witness("even_branch_witness", "a1", coords, value)


def _sp4su11_expansion(i: int, j: int, k: int) -> list[tuple[int, int]]:
    """Two-factor content of the composite with the long-pair subalgebra.

    The rank-two factor branches over the orthogonal long pair into factors
    (a, b), a along the doubled short direction, b along the long simple
    root; tensoring the b-string with the outer degree-k factor and
    splitting again leaves irreducible pieces (a, c) with c in the
    Clebsch-Gordan range of (b, k).
    """
    pair = _subalgebra("sp4su11", "a2,2a1+a2")
    branch = restrict_rep(_rank2_weight("sp4su11", (i, j)), pair)
    out = []
    for b, a in branch.factors:  # stored as (a2 value, 2a1+a2 value)
        for c in clebsch_gordan(b, k):
            out.append((a, c))
    return out


def _constructive_sp4su11(i: int, j: int, k: int) -> tuple[bool, Witness]:
    if (i, j, k) == (0, 0, 0):
        return False, Witness("zero_class")
    if (i, j) == (0, 0):
        # composing a diagonal disc of the rank-two factor reduces to the
        # two-factor pairing criterion on (0, k)
        return _pairing_verdict(*best_tensor_pairing(0, k))
    factors = _sp4su11_expansion(i, j, k)
    tight = all(_pair_tight_rule(u, v) or (u, v) == (0, 0) for u, v in factors)
    if tight:
        if (i, j, k) != (1, 0, 0):
            raise RouteDisagreement(
                f"unexpected tight expansion for sp4su11 weight {(i, j, k)}"
            )
        return True, Witness("reference_classification")
    if i == 0:
        # first case of the split: short-root witness on the rank-two factor
        return False, Witness("even_branch_witness", "a1+a2", (0, j), 2 * j)
    if (i, j) == (1, 0):
        value = k if k % 2 == 0 else k + 1
        if not any(value in f for f in factors):
            raise VerificationError(f"no factor of sp4su11 {(i, j, k)} has value {value}")
        return False, Witness("even_tensor_factor", "a2,2a1+a2", evaluation=value)
    return False, _long_pair_witness("sp4su11", (i, j, k))


_CONSTRUCTIVE = {
    "su11": lambda w: _constructive_su11(*w),
    "su11xsu11": lambda w: _constructive_su11xsu11(*w),
    "sp4": lambda w: _constructive_sp4(*w),
    "su21": lambda w: _constructive_su21(*w),
    "sp4su11": lambda w: _constructive_sp4su11(*w),
}


def constructive_verdict(algebra: str, w: tuple[int, ...]) -> tuple[bool, Witness]:
    """Re-run the computation behind the theorems for one weight."""
    return _CONSTRUCTIVE[algebra](validate_weight(algebra, w))


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
    if not multiplicity(top, wit.weight):
        return False
    values = sub.evaluate(wit.weight)
    value = wit.evaluation
    if value == 0 or value % 2 != 0 or value not in values:
        return False
    # the recorded value certifies a factor of even nonzero highest weight
    # in the matching coordinate
    branch = restrict_rep(top, sub)
    if sub.target_kind == SL2:
        return any(m % 2 == 0 and m != 0 and m >= abs(value) for m in branch.factors)
    idx = values.index(value)
    return any(
        f[idx] % 2 == 0 and f[idx] != 0 and f[idx] >= abs(value)
        for f in branch.factors
    )


def _replay_pairing(verdict: TightnessVerdict) -> bool:
    w = verdict.weight
    # the zero weight has no disc, and sp4su11 pairs only on (0, 0, k)
    if not any(w) or (verdict.algebra == "sp4su11" and any(w[:2])):
        return False
    if verdict.algebra == "su11":
        found = sym_power_pairing(*w)
    else:
        found = best_tensor_pairing(*w[-2:])
    return _pairing_verdict(*found) == (verdict.tight, verdict.witness)


def _wire_types_hold(wit: Witness) -> bool:
    """Set fields have their schema types: 2.0 or True would pass the
    comparisons and int-keyed lookups of replay, and '2' would raise there."""
    weight = () if wit.weight is None else wit.weight
    return (
        type(weight) is tuple
        and all(type(x) is int for x in weight)
        and type(wit.evaluation) in (int, type(None))
        and all(type(x) in (Fraction, type(None)) for x in (wit.pairing_lhs, wit.pairing_rhs))
    )


def replay_witness(verdict: TightnessVerdict) -> bool:
    """Recompute the recorded witness from scratch; True iff it checks out.

    A field the witness kind does not carry must be unset, and a set field
    must have its schema type.
    """
    wit = verdict.witness
    kind = wit.kind
    if kind not in _WITNESS_KINDS.get(verdict.algebra, ()) or not _wire_types_hold(wit):
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
    )


def cross_check(algebra: str, w) -> dict:
    """Run both routes, demand agreement, and verify witness replay."""
    coords = validate_weight(algebra, w)
    verdict = classify(algebra, coords)  # raises RouteDisagreement on mismatch
    replay_ok = replay_witness(verdict)
    if not replay_ok:
        raise RouteDisagreement(
            f"{algebra} {coords}: witness failed replay: {verdict.witness}"
        )
    return {
        "algebra": algebra,
        "weight": coords,
        "theorem_tight": theorem_tight(algebra, coords),
        "constructive_tight": verdict.tight,
        "agree": True,
        "replay_ok": replay_ok,
        "verdict": verdict,
    }


def dominant_weights(algebra: str, bound: int) -> list[tuple[int, ...]]:
    """All dominant integral weights with coordinate sum at most ``bound``."""
    rank = root_system_for(algebra).rank
    out = []

    def rec(prefix, remaining):
        if len(prefix) == rank - 1:
            for last in range(remaining + 1):
                out.append(prefix + (last,))
            return
        for c in range(remaining + 1):
            rec(prefix + (c,), remaining - c)

    rec((), bound)
    return sorted(out)


def sweep(algebra: str, bound: int) -> dict:
    """Classify and cross-check every dominant weight up to ``bound``."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rows = [cross_check(algebra, w) for w in dominant_weights(algebra, bound)]
    tight = sum(1 for r in rows if r["verdict"].tight)
    return {
        "algebra": algebra,
        "bound": bound,
        "rows": rows,
        "counts": {"tight": tight, "nontight": len(rows) - tight},
        "agreement": all(r["agree"] and r["replay_ok"] for r in rows),
    }


# -- constraint infeasibility for rank-one into so*(2p) ----------------------


class LemmaReduction(ValueError):
    """The requested parameter is handled by a reduction, not the system."""


def verify_su_n1_to_sostar(p: int) -> dict:
    """Reconstruct the linear constraint system ruling out su(n,1) -> so*(2p).

    For odd p >= 5: a tight map would branch over a maximal tube subalgebra
    so*(2(p-1)) inside su(p-1,p-1) as k*(1,0) + (n-k)*(0,1) + l*(0,0)
    pieces; tightness forces the degree-one multiplicity n = p - 1 while
    the dimension count gives 3n + l = 2p.  Together: p - 3 + l = 0, which
    contradicts l >= 0.
    """
    if p % 2 == 0:
        raise LemmaReduction(
            f"p={p} is even: the target includes tightly into so*({2 * (p + 1)}), "
            "so the question reduces to odd p"
        )
    if p == 3:
        raise LemmaReduction(
            "so*(6) is isomorphic to su(3,1); rank-one targets are handled "
            "by the unitary classification"
        )
    if p < 3:
        raise LemmaReduction(f"so*({2 * p}) is outside the Hermitian range")
    n = p - 1  # tightness pins the degree-one multiplicity
    l = 2 * p - 3 * n  # dimension count 3n + l = 2p
    if p - 3 + l != 0:
        raise VerificationError(f"p={p}: the residual p - 3 + l is {p - 3 + l}, not 0")
    return {
        "p": p,
        "n": n,
        "l": l,
        "constraints": ["n = p - 1", "3n + l = 2p", "l >= 0"],
        "residual": "p - 3 + l = 0",
        "infeasible": l < 0,
    }


# -- embedding reference table -----------------------------------------------


class EmbeddingRow(NamedTuple):
    algebra: kahler.HermitianFactor
    probe: str  # which of sp4 / sp4+su11 / su21 embeds tightly holomorphically
    tube_subalgebra: kahler.HermitianFactor
    tube_target: kahler.HermitianFactor


def _probe_for_rank(rank: int) -> str:
    if rank == 1:
        return "su21"
    return "sp4" if rank % 2 == 0 else "sp4+su11"


def _tube_target(factor: kahler.HermitianFactor, family: str, n: int) -> kahler.HermitianFactor:
    if family == "su":
        return factor
    if family == "sp":
        return kahler.su(n, n)
    if family == "so_star":
        return kahler.su(n, n)
    if family == "so2":
        size = 2 ** ((n - 1) // 2)
        return kahler.su(size, size)
    raise ValueError(family)


def embedding_row_su(p: int, q: int) -> EmbeddingRow:
    alg = kahler.su(p, q)
    if alg.rank == 1 and alg.tube_type:
        raise ValueError("the rank-one tube algebra has no row")
    sub = kahler.su(min(p, q), min(p, q))
    return EmbeddingRow(alg, _probe_for_rank(alg.rank), sub, _tube_target(sub, "su", 0))


def embedding_row_sp(two_n: int) -> EmbeddingRow:
    alg = kahler.sp(two_n)
    return EmbeddingRow(
        alg, _probe_for_rank(alg.rank), alg, _tube_target(alg, "sp", two_n // 2)
    )


def embedding_row_so_star(two_n: int) -> EmbeddingRow:
    alg = kahler.so_star(two_n)
    n = two_n // 2
    sub = alg if n % 2 == 0 else kahler.so_star(2 * (n - 1))
    sub_n = n if n % 2 == 0 else n - 1
    return EmbeddingRow(
        alg, _probe_for_rank(alg.rank), sub, _tube_target(sub, "so_star", sub_n)
    )


def embedding_row_so2(n: int) -> EmbeddingRow:
    alg = kahler.so2n(n)
    return EmbeddingRow(alg, _probe_for_rank(alg.rank), alg, _tube_target(alg, "so2", n))


def embedding_table() -> tuple[EmbeddingRow, ...]:
    """Reference rows for a sample of every classical family."""
    rows: list[EmbeddingRow] = []
    for q in range(1, 5):
        for p in range(q, 6):
            if (p, q) == (1, 1):
                continue
            rows.append(embedding_row_su(p, q))
    for two_n in range(4, 13, 2):
        rows.append(embedding_row_sp(two_n))
    for two_n in range(8, 21, 2):
        rows.append(embedding_row_so_star(two_n))
    for n in range(3, 11):
        rows.append(embedding_row_so2(n))
    return tuple(rows)


# -- conversion of verdicts into class-map bookkeeping ------------------------


def _sl2_route_map(factors) -> kahler.HomClassMap:
    """Class map of a one-factor domain through its sl2-string decomposition."""
    source = (kahler.su(1, 1),)
    targets = []
    coeffs = []
    for m in factors:
        if m == 0:
            continue
        sig = sym_power_signature(m)
        targets.append(kahler.su(sig.p, sig.q))
        coeffs.append(2 * sym_power_pairing(m)[0])
    if not targets:
        return kahler.class_map(source, source, [[0]])
    return kahler.class_map(source, targets, [coeffs])


def _pair_route_map(factors) -> kahler.HomClassMap:
    """Class map of a two-factor domain through its (u, v) decomposition."""
    source = (kahler.su(1, 1), kahler.su(1, 1))
    targets = []
    row1 = []
    row2 = []
    for u, v in factors:
        if (u, v) == (0, 0):
            continue
        sig = tensor_signature(u, v)
        p1, p2 = tensor_factor_pairings(u, v)
        targets.append(kahler.su(sig.p, sig.q))
        row1.append(2 * p1)
        row2.append(2 * p2)
    if not targets:
        return kahler.class_map(source, (kahler.su(1, 1),), [[0], [0]])
    return kahler.class_map(source, targets, [row1, row2])


def verdict_class_map(verdict: TightnessVerdict) -> kahler.HomClassMap:
    """Bounded-class bookkeeping of a verdict's constructive decomposition.

    The verdict is tight iff the returned map preserves the norm of the
    distinguished class; nontight verdicts decrease it strictly.
    """
    algebra = verdict.algebra
    w = verdict.weight
    if algebra == "su11":
        return _sl2_route_map([w[0]])
    if algebra == "su11xsu11":
        return _pair_route_map([w])
    if algebra == "su21":
        branch = restrict_rep(_rank2_weight(algebra, w), _subalgebra(algebra, "a1"))
        return _sl2_route_map(branch.factors)
    if algebra == "sp4":
        if w[0] == 0:
            sub = _subalgebra(algebra, "a1+a2")
            return _sl2_route_map(restrict_rep(_rank2_weight(algebra, w), sub).factors)
        pair = _subalgebra(algebra, "a2,2a1+a2")
        branch = restrict_rep(_rank2_weight(algebra, w), pair)
        return _pair_route_map([(a, b) for b, a in branch.factors])
    if algebra == "sp4su11":
        i, j, k = w
        if (i, j) == (0, 0):
            return _pair_route_map([(0, k)])
        return _pair_route_map(_sp4su11_expansion(i, j, k))
    raise ValueError(f"unknown algebra {algebra!r}")
