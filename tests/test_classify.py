"""Classification engine: routes, witnesses, sweeps, conversions."""

import sys
from fractions import Fraction

import pytest
from test_kahler import class_map, counting_fractions

import tightmaps.branching
import tightmaps.rootsys
import tightmaps.su11
from tightmaps import classify as classify_module
from tightmaps import kahler, rank2
from tightmaps.branching import BranchingResult, SubalgebraSpec
from tightmaps.classify import (
    ALGEBRAS,
    HOLOMORPHIC_WEIGHTS,
    TightnessVerdict,
    Witness,
    classify,
    constructive_verdict,
    cross_check,
    dominant_weights,
    embedding_table,
    replay_witness,
    root_system_for,
    sweep,
    theorem_tight,
    validate_weight,
    verdict_class_map,
)
from tightmaps.errors import VerificationError
from tightmaps.lemmas import LemmaReduction, verify_su_n1_to_sostar
from tightmaps.rootsys import build_root_system
from tightmaps.su11 import (
    clebsch_gordan,
    structure_representatives,
    sym_power_pairing,
    sym_power_signature,
    tensor_pairing,
    tensor_signature,
)


def test_classify_examples():
    v = classify("su21", (1, 0))
    assert v.tight and v.holomorphic

    v = classify("sp4", (0, 2))
    assert not v.tight
    assert v.witness.evaluation == 4
    assert v.witness.subalgebra == "a1+a2"

    v = classify("sp4su11", (1, 0, 0))
    assert v.tight and v.holomorphic

    v = classify("su11", (4,))
    assert not v.tight and v.witness.kind == "pairing"

    v = classify("su11", (0,))
    assert not v.tight and v.witness.kind == "zero_class"


def test_validate_weight_errors():
    with pytest.raises(ValueError):
        classify("su11", (1, 0))
    with pytest.raises(ValueError):
        classify("sp4", (-1, 0))
    with pytest.raises(ValueError):
        classify("so8", (1, 0))
    assert validate_weight("sp4su11", [0, 0, 3]) == (0, 0, 3)
    # the coordinate count is the sum of the factors' ranks
    counts = {"su11": 1, "su11xsu11": 2, "sp4": 2, "sp4su11": 3, "su21": 2}
    assert set(counts) == set(ALGEBRAS)
    for algebra, n in counts.items():
        assert len(validate_weight(algebra, (0,) * n)) == n
        message = f"{algebra} expects {n} weight coordinates, got {n + 1}"
        with pytest.raises(ValueError, match=message):
            validate_weight(algebra, (0,) * (n + 1))


@pytest.mark.parametrize("bad", [
    float("inf"), float("-inf"), float("nan"), None, 2.5, -1, -1.0, "3", "3.5", "x", 1j, [3],
])
def test_every_bad_coordinate_gets_the_weight_message(bad):
    # int() and < refuse some of these with their own OverflowError,
    # TypeError or ValueError, which would not name the weight
    with pytest.raises(ValueError, match=r"weight \(.*\) is not dominant integral"):
        validate_weight("su11xsu11", (1, bad))


def test_accepted_coordinates_are_the_nonnegative_integers_of_any_type():
    accepted = validate_weight("sp4su11", (3.0, Fraction(4, 2), True))
    assert accepted == (3, 2, 1) and all(type(c) is int for c in accepted)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_rank_is_the_sum_of_the_factor_root_system_ranks(algebra):
    # _rank reads each factor's rank off its Cartan label, building no root system
    kinds = classify_module._FACTOR_KINDS[algebra]
    assert classify_module._rank(algebra) == sum(build_root_system(k).rank for k in kinds)


@pytest.mark.parametrize("algebra", ["sp4su11", "su11xsu11"])
def test_product_algebras_have_no_single_root_system(algebra):
    with pytest.raises(ValueError, match="has the factors"):
        root_system_for(algebra)


def test_cross_check_examples():
    verdict = cross_check("sp4", (1, 0))
    assert verdict.tight

    verdict = cross_check("su21", (2, 0))
    assert not verdict.tight
    assert verdict.witness.weight == (2, 0)
    assert verdict.witness.evaluation == 2

    verdict = cross_check("su11xsu11", (1, 1))
    assert not verdict.tight
    assert verdict.witness.kind == "clebsch_gordan_even"
    assert verdict.witness.evaluation == 2


def test_sweep_counts():
    assert sweep("su11", 20)["counts"]["tight"] == 10
    result = sweep("sp4", 8)
    assert [r.weight for r in result["rows"] if r.tight] == [(1, 0)]
    result = sweep("su21", 8)
    assert [r.weight for r in result["rows"] if r.tight] == [
        (0, 1),
        (1, 0),
    ]
    with pytest.raises(ValueError):
        sweep("su11", 0)


def test_sweep_rows_sorted_and_complete():
    result = sweep("su11xsu11", 5)
    weights = [r.weight for r in result["rows"]]
    assert weights == sorted(weights)
    assert len(weights) == 21


def test_replay_witness_over_sweeps():
    for algebra, bound in (
        ("su11", 14),
        ("su11xsu11", 8),
        ("sp4", 8),
        ("su21", 8),
        ("sp4su11", 6),
    ):
        for w in dominant_weights(algebra, bound):
            verdict = classify(algebra, w)
            assert replay_witness(verdict), (algebra, w, verdict.witness)


def test_route_agreement_to_bound_ten():
    # cross_check raises RouteDisagreement if the two routes ever split or a
    # witness fails replay, so a returned sweep has checked every weight
    for algebra in ALGEBRAS:
        rows = sweep(algebra, 10)["rows"]
        assert [r.weight for r in rows] == dominant_weights(algebra, 10)


@pytest.mark.parametrize(
    "algebra,bound,expected",
    [
        ("sp4", 20, {(1, 0)}),
        ("su21", 20, {(1, 0), (0, 1)}),
        ("sp4su11", 14, {(1, 0, 0)} | {(0, 0, k) for k in range(1, 14, 2)}),
    ],
)
def test_rank_two_sweeps_beyond_the_acceptance_bounds(algebra, bound, expected):
    result = sweep(algebra, bound)
    assert len(result["rows"]) == len(dominant_weights(algebra, bound))
    assert {r.weight for r in result["rows"] if r.tight} == expected


def _doubled_su21_a1() -> SubalgebraSpec:
    """The su21 ``a1`` spec with every coroot row doubled."""
    spec = rank2._subalgebra("su21", "a1")
    return spec._replace(coroots=tuple(tuple(2 * c for c in row) for row in spec.coroots))


def test_su21_verdict_follows_the_branching_search(monkeypatch):
    # with every a1 coroot row doubled, (1,0) evaluates to 2 on the a1 disc:
    # the constructive route must report what the search finds, not a table
    patched = _doubled_su21_a1()
    real = rank2._subalgebra
    monkeypatch.setattr(
        rank2, "_subalgebra",
        lambda algebra, selector: patched if (algebra, selector) == ("su21", "a1")
        else real(algebra, selector),
    )
    assert constructive_verdict("su21", (1, 0)) == (
        False, Witness("even_branch_witness", "a1", (1, 0), 2)
    )


def test_tight_rank_two_verdicts_follow_the_branching(monkeypatch):
    # with every branching forged to one even factor, no witness is found on
    # the tight rows and their class maps lose norm: the route must raise,
    # and the true verdicts must no longer replay
    tight_rows = [("sp4", (1, 0)), ("su21", (1, 0)), ("su21", (0, 1)), ("sp4su11", (1, 0, 0))]
    verdicts = [classify(algebra, w) for algebra, w in tight_rows]
    assert {v.witness for v in verdicts} == {Witness("reference_classification")}
    assert all(v.tight and replay_witness(v) for v in verdicts)
    monkeypatch.setattr(
        tightmaps.branching, "restrict_rep",
        lambda top, sub: BranchingResult((((2,) + (0,) * (sub.rank - 1), 1),)),
    )
    rank2._branching.cache_clear()
    try:
        for verdict in verdicts:
            with pytest.raises(VerificationError, match="nontight, but no witness"):
                constructive_verdict(verdict.algebra, verdict.weight)
            assert not replay_witness(verdict), verdict
    finally:
        rank2._branching.cache_clear()


def _count_restrict_rep(monkeypatch) -> list:
    """Record every call of ``restrict_rep`` that ``classify`` makes."""
    calls = []
    real = tightmaps.branching.restrict_rep

    def counted(top, sub):
        calls.append((top, sub))
        return real(top, sub)

    monkeypatch.setattr(tightmaps.branching, "restrict_rep", counted)
    return calls


@pytest.mark.parametrize(
    "algebra,bound,expected",
    # sp4su11 to 6: 21 sp4 tops with i > 0 on the long pair, and 6 with
    # i = 0 on a1+a2; each sweep's tight rows branch for their class maps
    [("sp4su11", 6, 27), ("sp4", 8, 44), ("su21", 9, 54)],
)
def test_sweep_branches_each_top_and_subalgebra_once(monkeypatch, algebra, bound, expected):
    rank2._branching.cache_clear()
    calls = _count_restrict_rep(monkeypatch)
    sweep(algebra, bound)
    assert len(calls) == expected
    assert len(set(calls)) == expected


def test_sweep_builds_no_signatures_inside_branching(monkeypatch):
    # signatures are read where a report writes them, never by a branching
    rank2._branching.cache_clear()
    branchings, running, inside = [], [], []
    real = tightmaps.branching.restrict_rep

    def counted(top, sub):
        branchings.append(sub)
        running.append(sub)
        try:
            return real(top, sub)
        finally:
            running.pop()

    monkeypatch.setattr(tightmaps.branching, "restrict_rep", counted)
    for name in ("sym_power_signature", "tensor_signature"):
        original = getattr(tightmaps.su11, name)

        def watched(*degrees, original=original):
            if running:
                inside.append(degrees)
            return original(*degrees)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("tightmaps") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, watched)
    sweep("sp4su11", 6)
    assert len(branchings) == 27 and inside == []


def test_branching_memo_keys_on_the_subalgebra_value(monkeypatch):
    # a spec patched after a branching was memoised is branched afresh: here
    # the short root a1+a2 is patched to the long simple root a2
    spec = rank2._subalgebra("sp4", "a1+a2")
    patched = spec._replace(roots_b=((0, 1),))
    top = rank2._rank2_weight("sp4", (0, 1))
    rank2._branching.cache_clear()
    calls = _count_restrict_rep(monkeypatch)
    assert rank2._branching(top, spec).factors == (((2,), 1), ((0,), 2))
    assert rank2._branching(top, spec).factors == (((2,), 1), ((0,), 2))
    assert rank2._branching(top, patched).factors == (((1,), 2), ((0,), 1))
    assert calls == [(top, spec), (top, patched)]


def test_memoised_branching_runs_the_dimension_check(monkeypatch):
    rank2._branching.cache_clear()
    monkeypatch.setattr(tightmaps.branching, "dimension", lambda highest: 0)
    with pytest.raises(VerificationError,
                       match=r"^branching C2 \(1, 1\) on a2,2a1\+a2: lost dimensions: 16 != 0$"):
        cross_check("sp4su11", (1, 1, 2))


def test_a_witness_weight_off_the_top_names_the_algebra(monkeypatch):
    monkeypatch.setattr(tightmaps.rootsys, "is_weight", lambda top, coords: False)
    with pytest.raises(VerificationError, match=r"^sp4su11 \(2, 1, 0\): witness weight \(2, 0\) "
                                                r"is not a weight of \(2, 1\)$"):
        rank2._sp4_split_witness("sp4su11", (2, 1, 0))


def test_replay_rejects_tampered_witness():
    verdict = classify("sp4", (0, 2))
    forged = verdict._replace(witness=verdict.witness._replace(evaluation=6))
    assert not replay_witness(forged)
    forged = verdict._replace(witness=verdict.witness._replace(weight=(0, 1)))
    assert not replay_witness(forged)

    # a witness kind only su11xsu11 emits does not replay on a rank-two row
    for algebra in ("sp4", "su21"):
        verdict = classify(algebra, (2, 0))
        forged = Witness("clebsch_gordan_even", evaluation=2)
        assert not replay_witness(verdict._replace(witness=forged)), algebra

    rows = {a: [classify(a, w) for w in dominant_weights(a, 6)] for a in ALGEBRAS}
    kinds = {a: {v.witness.kind for v in vs} for a, vs in rows.items()}
    samples = {v.witness.kind: v.witness for vs in rows.values() for v in vs}
    assert set(samples) == {
        "zero_class", "pairing", "clebsch_gordan_even", "even_branch_witness",
        "even_tensor_factor", "reference_classification",
    }
    for algebra, verdicts in rows.items():
        foreign = [w for kind, w in samples.items() if kind not in kinds[algebra]]
        for verdict in verdicts:
            wit = verdict.witness
            for forged in (
                wit._replace(evaluation=(wit.evaluation or 0) + 1),
                wit._replace(pairing_lhs=(wit.pairing_lhs or 0) + 1),
                wit._replace(pairing_rhs=(wit.pairing_rhs or 0) + 1),
                *(wit._replace(subalgebra=s) for s in ("a1", "a3", "2a1")
                  if s != wit.subalgebra),
                wit._replace(weight=(wit.weight or ()) + (0,)),
                wit._replace(weight=(1,)),
                *foreign,
            ):
                assert not replay_witness(verdict._replace(witness=forged)), (
                    algebra, verdict.weight, forged,
                )


def test_replay_rejects_malformed_verdict_fields():
    # a verdict read back from a file may hold any value in its own fields;
    # each of these replays False, without raising
    forged_weights = [
        ("sp4", (2, 0), (2.0, 0)),
        ("sp4", (2, 0), (True, 0)),
        ("su11", (3,), (3.0,)),
        ("su11", (3,), ("3",)),
        ("sp4", (1, 0), [1, 0]),
        ("sp4", (1, 3), (-1, 3)),
        ("su11xsu11", (1, 2), (1, 2, 3)),
        ("sp4su11", (1, 0, 0), (1, 0)),
    ]
    for algebra, w, forged in forged_weights:
        verdict = classify(algebra, w)
        assert replay_witness(verdict)
        assert replay_witness(verdict._replace(weight=forged)) is False, (algebra, forged)
    verdict = classify("su11", (3,))
    for flag in (1, None, "True"):
        assert replay_witness(verdict._replace(tight=flag)) is False, flag
    assert not replay_witness(TightnessVerdict("sp4", (1, 0), 1, True,
                                               Witness("reference_classification")))


def test_replay_rejects_a_foreign_witness_or_algebra():
    # neither a missing or plain-tuple witness nor an unhashable algebra
    # raises: each replays False
    verdict = classify("sp4", (2, 0))
    assert replay_witness(verdict)
    for forged in (verdict._replace(witness=None),
                   verdict._replace(witness=tuple(verdict.witness)),
                   verdict._replace(algebra=["sp4"])):
        assert replay_witness(forged) is False, forged


def test_replay_binds_the_tight_and_holomorphic_flags():
    # every row of the criterion-9 sweeps replays as written, and no row
    # replays with its tight flag or its holomorphic flag flipped
    sweeps = (("su11", 50), ("su11xsu11", 12), ("sp4", 10), ("su21", 10), ("sp4su11", 8))
    rows = [v for algebra, bound in sweeps for v in sweep(algebra, bound)["rows"]]
    assert len(rows) == 439
    for verdict in rows:
        assert replay_witness(verdict), verdict
        for flipped in (verdict._replace(tight=not verdict.tight),
                        verdict._replace(holomorphic=not verdict.holomorphic)):
            assert not replay_witness(flipped), flipped


def test_every_pairing_witness_mutation_fails_replay():
    half = Fraction(1, 2)
    verdicts = [
        *(classify("su11", w) for w in dominant_weights("su11", 50)),
        *(classify("su11xsu11", w) for w in dominant_weights("su11xsu11", 10)),
        *(classify("sp4su11", (0, 0, k)) for k in range(11)),
    ]
    rows = [v for v in verdicts if v.witness.kind == "pairing"]
    assert {v.algebra for v in rows} == {"su11", "su11xsu11", "sp4su11"}
    for verdict in rows:
        wit = verdict.witness
        lhs, rhs = wit.pairing_lhs, wit.pairing_rhs
        assert replay_witness(verdict)
        forgeries = [wit._replace(pairing_lhs=lhs + d) for d in (half, -half)]
        forgeries += [wit._replace(pairing_rhs=rhs + d) for d in (half, -half)]
        if lhs != 0:
            forgeries.append(wit._replace(pairing_lhs=-lhs))
        if lhs != rhs:
            forgeries.append(wit._replace(pairing_lhs=rhs, pairing_rhs=lhs))
        # the right values in the wrong types
        for wrong in (float, str):
            forgeries.append(wit._replace(pairing_lhs=wrong(lhs)))
            forgeries.append(wit._replace(pairing_rhs=wrong(rhs)))
        for forged in forgeries:
            assert not replay_witness(verdict._replace(witness=forged)), (
                verdict.algebra, verdict.weight, forged,
            )


def test_replay_takes_pairings_only_as_their_doubled_ints():
    # a pairing field holds twice the half-integer as an int; the value one
    # off, the old Fraction half, and an equal value of another type
    # (True == 1, 1.0 == 1) all fail replay
    verdicts = [
        *(classify("su11", w) for w in dominant_weights("su11", 30)),
        *(classify("su11xsu11", w) for w in dominant_weights("su11xsu11", 8)),
        *(classify("sp4su11", (0, 0, k)) for k in range(1, 9)),
    ]
    rows = [v for v in verdicts if v.witness.kind == "pairing"]
    assert {v.algebra for v in rows} == {"su11", "su11xsu11", "sp4su11"}
    assert {type(v.witness.pairing_lhs) for v in rows} == {int}
    assert {type(v.witness.pairing_rhs) for v in rows} == {int}
    for verdict in rows:
        assert replay_witness(verdict)
        for field in ("pairing_lhs", "pairing_rhs"):
            value = getattr(verdict.witness, field)
            wrong = [Fraction(1, 2), 1.0, True, "1/2", value + 1, value - 1,
                     Fraction(value, 2), Fraction(value), float(value)]
            for forged in wrong:
                witness = verdict.witness._replace(**{field: forged})
                assert not replay_witness(verdict._replace(witness=witness)), (
                    verdict.algebra, verdict.weight, field, forged,
                )


def test_every_even_branch_witness_mutation_fails_replay():
    # Left out, because they can name another genuine certificate:
    # evaluation - 2, weight[1] + 1 and the swap to the other tight
    # selector.  sp4 (2, 2), for one, also replays with evaluation 2.
    rows = [
        v
        for algebra in ("sp4", "su21", "sp4su11")
        for v in (classify(algebra, w) for w in dominant_weights(algebra, 10))
        if v.witness.kind == "even_branch_witness"
    ]
    assert len(rows) == 392
    for verdict in rows:
        wit = verdict.witness
        (i, j), value = wit.weight, wit.evaluation
        assert replay_witness(verdict)
        forgeries = [
            *(wit._replace(evaluation=value + d) for d in (1, -1, 2)),
            wit._replace(evaluation=-value),
            *(wit._replace(weight=(i + d, j)) for d in (1, -1)),
            wit._replace(weight=(i, j - 1)),
            # the right values in the wrong types
            wit._replace(weight=(float(i), float(j))),
            wit._replace(weight=("x", j)),
            wit._replace(weight=[i, j]),
            wit._replace(evaluation=float(value)),
            wit._replace(evaluation=str(value)),
        ]
        if i in (0, 1):
            forgeries.append(wit._replace(weight=(bool(i), j)))
        for forged in forgeries:
            assert not replay_witness(verdict._replace(witness=forged)), (
                verdict.algebra, verdict.weight, forged,
            )


def test_every_fixed_witness_mutation_fails_replay():
    # zero_class, clebsch_gordan_even and reference_classification carry
    # nothing a forger could choose: any set field or moved value must fail
    kinds = ("zero_class", "clebsch_gordan_even", "reference_classification")
    rows = [
        v
        for algebra in ALGEBRAS
        for v in (classify(algebra, w) for w in dominant_weights(algebra, 10))
        if v.witness.kind in kinds
    ]
    assert {v.witness.kind for v in rows} == set(kinds)
    assert {v.algebra for v in rows} == set(ALGEBRAS)
    values = {
        "subalgebra": "a1",
        "weight": (1, 0),
        "evaluation": 2,
        "pairing_lhs": Fraction(1, 2),
        "pairing_rhs": Fraction(1, 2),
    }
    for verdict in rows:
        wit = verdict.witness
        assert replay_witness(verdict)
        value = wit.evaluation or 0
        forgeries = [
            *(wit._replace(**{f: v}) for f, v in values.items() if getattr(wit, f) is None),
            *(wit._replace(evaluation=value + d) for d in (2, -2)),
        ]
        if value:
            forgeries.append(wit._replace(evaluation=-value))
            # the right value in the wrong types
            forgeries += [wit._replace(evaluation=wrong(value)) for wrong in (float, str)]
        for forged in forgeries:
            assert not replay_witness(verdict._replace(witness=forged)), (
                verdict.algebra, verdict.weight, forged,
            )


def test_every_even_tensor_factor_witness_mutation_fails_replay():
    # Left out, because it names another genuine certificate: evaluation - 2
    # for odd k, since the factors of (1, 0, k) carry both k + 1 and k - 1.
    rows = [
        v
        for v in (classify("sp4su11", w) for w in dominant_weights("sp4su11", 10))
        if v.witness.kind == "even_tensor_factor"
    ]
    assert [v.weight for v in rows] == [(1, 0, k) for k in range(1, 10)]
    for verdict in rows:
        wit, k = verdict.witness, verdict.weight[2]
        value = wit.evaluation
        assert replay_witness(verdict)
        forgeries = [
            *(wit._replace(evaluation=value + d) for d in (1, -1, 2)),
            wit._replace(evaluation=-value),
            wit._replace(evaluation=None),
            *(wit._replace(subalgebra=s) for s in ("a1+a2", "a1", None)),
            wit._replace(weight=(1, 0)),
            wit._replace(pairing_lhs=Fraction(1, 2)),
            wit._replace(pairing_rhs=Fraction(1, 2)),
            # the right value in the wrong types
            wit._replace(evaluation=float(value)),
            wit._replace(evaluation=str(value)),
        ]
        if k % 2 == 0:
            forgeries.append(wit._replace(evaluation=value - 2))
        for forged in forgeries:
            assert not replay_witness(verdict._replace(witness=forged)), (
                verdict.weight, forged,
            )


def test_nontight_propagation_is_monotone():
    # whenever any tight regular restriction shows an even nonzero factor,
    # the verdict must be nontight
    from tightmaps.branching import even_witness
    from tightmaps.rank2 import TIGHT_SUBALGEBRA_SELECTORS, _subalgebra
    from tightmaps.rootsys import weight
    from tightmaps.classify import root_system_for

    for algebra, selectors in TIGHT_SUBALGEBRA_SELECTORS.items():
        system = root_system_for(algebra)
        for w in dominant_weights(algebra, 10):
            witnessed = any(
                even_witness(weight(system, w), _subalgebra(algebra, sel))
                is not None
                for sel in selectors
            )
            if witnessed:
                assert not classify(algebra, w).tight


def test_holomorphic_flags_are_reference_data():
    for algebra, weights in HOLOMORPHIC_WEIGHTS.items():
        for w in weights:
            verdict = classify(algebra, w)
            assert verdict.holomorphic is True
            assert verdict.tight
    assert classify("sp4", (0, 1)).holomorphic is False
    assert classify("su11", (0,)).holomorphic is None


def test_lemma_infeasibility():
    for p in range(5, 22, 2):
        report = verify_su_n1_to_sostar(p)
        assert report["infeasible"]
        assert report["n"] == p - 1
        assert report["l"] == 3 - p
    with pytest.raises(LemmaReduction):
        verify_su_n1_to_sostar(4)
    with pytest.raises(LemmaReduction):
        verify_su_n1_to_sostar(3)


def test_lemma_search_examines_every_candidate():
    # the verdict comes from searching the line 3n + l = 2p for n = 0..2p/3
    for p in range(5, 22, 2):
        report = verify_su_n1_to_sostar(p)
        assert report["candidates"] == 2 * p // 3 + 1
        assert report["infeasible"]


def test_embedding_table_rank_identity():
    rows = embedding_table()
    assert rows
    for row in rows:
        assert row.tube_subalgebra.rank == row.algebra.rank
        assert row.tube_subalgebra.tube_type
        assert row.tube_target.tube_type
        assert row.probe in ("sp4", "sp4+su11", "su21")


def test_embedding_table_known_rows():
    rows = {r.algebra.name: r for r in embedding_table()}
    assert rows["su(3,1)"].probe == "su21"
    assert rows["su(3,1)"].tube_subalgebra.name == "su(1,1)"
    assert rows["sp(4,R)"].tube_target.name == "su(2,2)"
    assert rows["so*(10)"].tube_subalgebra.name == "so*(8)"
    assert rows["so*(10)"].tube_target.name == "su(4,4)"
    assert rows["so(2,3)"].tube_target.name == "su(2,2)"


# (algebra, probe, tube subalgebra, tube target) of every row, in order
EMBEDDING_ROWS = [
    ("su(2,1)", "su21", "su(1,1)", "su(1,1)"),
    ("su(3,1)", "su21", "su(1,1)", "su(1,1)"),
    ("su(4,1)", "su21", "su(1,1)", "su(1,1)"),
    ("su(5,1)", "su21", "su(1,1)", "su(1,1)"),
    ("su(2,2)", "sp4", "su(2,2)", "su(2,2)"),
    ("su(3,2)", "sp4", "su(2,2)", "su(2,2)"),
    ("su(4,2)", "sp4", "su(2,2)", "su(2,2)"),
    ("su(5,2)", "sp4", "su(2,2)", "su(2,2)"),
    ("su(3,3)", "sp4+su11", "su(3,3)", "su(3,3)"),
    ("su(4,3)", "sp4+su11", "su(3,3)", "su(3,3)"),
    ("su(5,3)", "sp4+su11", "su(3,3)", "su(3,3)"),
    ("su(4,4)", "sp4", "su(4,4)", "su(4,4)"),
    ("su(5,4)", "sp4", "su(4,4)", "su(4,4)"),
    ("sp(4,R)", "sp4", "sp(4,R)", "su(2,2)"),
    ("sp(6,R)", "sp4+su11", "sp(6,R)", "su(3,3)"),
    ("sp(8,R)", "sp4", "sp(8,R)", "su(4,4)"),
    ("sp(10,R)", "sp4+su11", "sp(10,R)", "su(5,5)"),
    ("sp(12,R)", "sp4", "sp(12,R)", "su(6,6)"),
    ("so*(8)", "sp4", "so*(8)", "su(4,4)"),
    ("so*(10)", "sp4", "so*(8)", "su(4,4)"),
    ("so*(12)", "sp4+su11", "so*(12)", "su(6,6)"),
    ("so*(14)", "sp4+su11", "so*(12)", "su(6,6)"),
    ("so*(16)", "sp4", "so*(16)", "su(8,8)"),
    ("so*(18)", "sp4", "so*(16)", "su(8,8)"),
    ("so*(20)", "sp4+su11", "so*(20)", "su(10,10)"),
    ("so(2,3)", "sp4", "so(2,3)", "su(2,2)"),
    ("so(2,4)", "sp4", "so(2,4)", "su(2,2)"),
    ("so(2,5)", "sp4", "so(2,5)", "su(4,4)"),
    ("so(2,6)", "sp4", "so(2,6)", "su(4,4)"),
    ("so(2,7)", "sp4", "so(2,7)", "su(8,8)"),
    ("so(2,8)", "sp4", "so(2,8)", "su(8,8)"),
    ("so(2,9)", "sp4", "so(2,9)", "su(16,16)"),
    ("so(2,10)", "sp4", "so(2,10)", "su(16,16)"),
]


def test_embedding_table_pinned_row_by_row():
    names = [
        (r.algebra.name, r.probe, r.tube_subalgebra.name, r.tube_target.name)
        for r in embedding_table()
    ]
    assert names == EMBEDDING_ROWS


def test_verdict_class_maps_are_norm_consistent():
    for algebra, bound in (
        ("su11", 16),
        ("su11xsu11", 8),
        ("sp4", 8),
        ("su21", 8),
        ("sp4su11", 5),
    ):
        for w in dominant_weights(algebra, bound):
            verdict = classify(algebra, w)
            m = verdict_class_map(verdict)
            kappa = kahler.distinguished_class(m.target)
            pulled = kahler.norm(kahler.pullback(m, kappa))
            total = kahler.norm(kappa)
            assert pulled <= total
            assert kahler.is_tight(m) == verdict.tight
            if not verdict.tight:
                assert pulled < total


def _per_copy_degrees(verdict) -> tuple[int, list[tuple[int, ...]]]:
    """Domain rank and the su(1,1) degrees of every factor copy that
    ``verdict_class_map`` books, expanded copy by copy."""
    w = verdict.weight
    if verdict.algebra == "sp4su11":
        pair = rank2._subalgebra("sp4su11", "a2,2a1+a2")
        top = rank2._rank2_weight("sp4su11", w)
        branch = tightmaps.branching.restrict_rep(top, pair)
        return 2, [(a, c) for (b, a), n in branch.factors for _ in range(n)
                   for c in clebsch_gordan(b, w[2])]
    selector = "a1" if verdict.algebra == "su21" else "a1+a2" if w[0] == 0 else "a2,2a1+a2"
    sub = rank2._subalgebra(verdict.algebra, selector)
    top = rank2._rank2_weight(verdict.algebra, w)
    branch = tightmaps.branching.restrict_rep(top, sub)
    return sub.rank, [f[::-1] for f, n in branch.factors for _ in range(n)]


def _fraction_pairings(degrees) -> tuple[Fraction, ...]:
    """(P,) for a degree-k model, and the factors' (P1, P2) for degrees (k, l),
    read off the Fraction pairings of the structures (1, 1) and (1, -1)."""
    if len(degrees) == 1:
        return sym_power_pairing(*degrees)[:1]
    plus, minus = (tensor_pairing(*degrees, s) for s in structure_representatives())
    return (plus + minus) / 2, (plus - minus) / 2


def _fraction_route_map(rank, factors) -> kahler.HomClassMap:
    """The route map booked in Fractions: each column 2n times the copy's
    Fraction pairings, over the least common denominator of the matrix.
    This is how ``_route_map`` booked it before it read doubled pairings."""
    source = (kahler.su(1, 1),) * rank
    targets, columns = [], []
    for degrees, n in factors:
        if not any(degrees):
            continue
        sig = (sym_power_signature if rank == 1 else tensor_signature)(*degrees)
        targets.append(kahler.su(n * sig.p, n * sig.q))
        columns.append([2 * n * x for x in _fraction_pairings(degrees)])
    if not targets:
        return class_map(source, source[:1], [[0]] * rank)
    return class_map(source, targets, list(zip(*columns)))


# the rows on which verdict_class_map is checked against the Fraction route
_CLASS_MAP_SWEEPS = (("sp4", 20), ("su21", 20), ("sp4su11", 12), ("su11", 50), ("su11xsu11", 16))


def test_class_maps_match_the_fraction_route_and_build_no_fractions(monkeypatch):
    verdicts = [v for a, bound in _CLASS_MAP_SWEEPS for v in sweep(a, bound)["rows"]]
    assert len(verdicts) == 1121
    with monkeypatch.context() as patch:
        made = counting_fractions(patch, classify_module, rank2, kahler, tightmaps.su11)
        maps = [verdict_class_map(v) for v in verdicts]
        assert made == []
    assert {m.denominator for m in maps} == {1}
    monkeypatch.setattr(rank2, "_route_map", _fraction_route_map)
    for verdict, m in zip(verdicts, maps):
        assert verdict_class_map(verdict) == m, (verdict.algebra, verdict.weight)


def _per_copy_route_map(rank, factors) -> kahler.HomClassMap:
    """One target su(p, q) per nonzero factor copy, its column twice the
    copy's pairings: the map that booking n copies as su(np, nq) replaced."""
    return _fraction_route_map(rank, [(degrees, 1) for degrees in factors])


def _pulled_share(m) -> Fraction:
    kappa = kahler.distinguished_class(m.target)
    return kahler.norm(kahler.pullback(m, kappa)) / kahler.norm(kappa)


def test_grouped_class_map_matches_the_per_copy_map():
    # n copies of a factor book as one target: tightness and the pulled share
    # of the norm are those of the copy-by-copy map, from one target per
    # distinct nonzero factor
    cases = [(a, w) for a, bound in (("sp4", 8), ("su21", 8), ("sp4su11", 5))
             for w in dominant_weights(a, bound)] + [("su21", (40, 40))]
    for algebra, w in cases:
        verdict = classify(algebra, w)
        grouped = verdict_class_map(verdict)
        rank, copies = _per_copy_degrees(verdict)
        per_copy = _per_copy_route_map(rank, copies)
        assert kahler.is_tight(grouped) == kahler.is_tight(per_copy) == verdict.tight, w
        assert _pulled_share(grouped) == _pulled_share(per_copy), (algebra, w)
        distinct = {d for d in copies if any(d)}
        assert len(grouped.target) == max(len(distinct), 1), (algebra, w)
    # su21 (40, 40) on a1: 1 680 nonzero factor copies, 80 distinct
    assert len(distinct) == 80 and sum(1 for d in copies if any(d)) == 1680


def test_all_algebras_have_routes():
    for algebra in ALGEBRAS:
        zeros = (0,) * len(next(iter(HOLOMORPHIC_WEIGHTS[algebra])))
        verdict = classify(algebra, zeros)
        assert not verdict.tight
        assert theorem_tight(algebra, zeros) is False
