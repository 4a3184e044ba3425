"""What no su11 or su11xsu11 command runs of the constructive route: branching
to the tight regular subalgebras of sp4 and su21 (Burger-Iozzi-Wienhard), the
witnesses it finds and their replay, and the class map of every verdict.

``classify`` reads this module as ``rank2.<name>``, at call time; this module
reads ``branching``, ``rootsys``, ``kahler`` and ``su11`` that way, so a
function rebound there (by the bench harness, or a test) is the one called.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import branching, kahler, rootsys, su11
from .classify import Witness, root_system_for
from .errors import VerificationError

# The rank-two factor of each algebra that the constructive route branches;
# its highest weight is the first two coordinates.
_RANK2_FACTOR = {"sp4": "sp4", "sp4su11": "sp4", "su21": "su21"}

# Tight regular subalgebras used by the constructive route, as selectors
# over the simple roots of the rank-two systems.
TIGHT_SUBALGEBRA_SELECTORS = {"sp4": ("a1+a2", "a2,2a1+a2"), "su21": ("a1",)}


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
# Only sp4su11 tops have several rows, and there four entries pay: ``sweep
# sp4su11 --max 32`` took a median 317 ms with them and 497 ms with none (10
# alternated fresh processes each, 2 cores).  The key is the spec's value, so
# a different or patched subalgebra never reads a stale entry.  ``restrict_rep``
# is read off the ``branching`` module on each miss, so the function bound
# there when the miss happens (as ``benchmarks/trace_child.py`` rebinds it, or
# a test patches it) computes the branching.
@lru_cache(maxsize=4)
def _branching(top: rootsys.WeightVector,
               sub: branching.SubalgebraSpec) -> branching.BranchingResult:
    """``restrict_rep(top, sub)``, dimension-checked, shared by the rows of a top."""
    return branching.restrict_rep(top, sub)


def _sp4_split_witness(algebra: str, w: tuple[int, ...]) -> Witness | None:
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
        coords, value = tuple(c - d for c, d in zip(coords, step)), value - 1
    if not rootsys.is_weight(_rank2_weight(algebra, w), coords):
        raise VerificationError(f"{algebra} {w}: witness weight {coords} "
                                f"is not a weight of {w[:2]}")
    return Witness("even_branch_witness", "a2,2a1+a2", coords, value)


def _branch_certificate(algebra: str, w: tuple[int, ...]) -> Witness | None:
    """The witness that ``w``, nonzero on the rank-two factor, is nontight, or None.

    su21's search on its tight a1 disc; the sp4 split; at sp4su11 (1, 0, k),
    an even factor of the composite with the long pair.
    """
    if algebra == "su21":
        # the proof chains, then the full support
        found = branching.even_witness(_rank2_weight(algebra, w), _subalgebra(algebra, "a1"))
        return None if found is None else Witness("even_branch_witness", "a1", *found)
    witness = _sp4_split_witness(algebra, w)
    if witness is None and algebra == "sp4su11":
        value = w[2] + w[2] % 2
        if value and any(value in f for f in _sp4su11_expansion(*w)):
            witness = Witness("even_tensor_factor", "a2,2a1+a2", evaluation=value)
    return witness


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
        for c in su11.clebsch_gordan(b, k):
            out[a, c] = out.get((a, c), 0) + copies
    return out


def _replay_even_branch(verdict) -> bool:  # its witness fits classify.WITNESS_SCHEMA
    wit = verdict.witness
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


# -- embedding reference table and class-map bookkeeping ---------------------


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
        sig = su11.signature(*degrees)
        targets.append(kahler.su(n * sig.p, n * sig.q))
        columns.append([n * d for d in su11.doubled_pairings(*degrees)])
    if not targets:
        return kahler.HomClassMap(source, source[:1], ((0,),) * rank, 1)
    return kahler.HomClassMap(source, tuple(targets), tuple(zip(*columns)), 1)


def _class_map(algebra: str, w: tuple[int, ...]) -> kahler.HomClassMap:
    """``classify.verdict_class_map`` of the weight ``w`` of ``algebra``."""
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
