"""Acceptance suite: every check is exact rational arithmetic, zero tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``).
"""

from fractions import Fraction

from tightmaps import kahler
from tightmaps.branching import make_subalgebra, parse_subalgebra_selector, restrict_rep
from tightmaps.classify import (
    Witness,
    _pairing_verdict,
    classify,
    constructive_verdict,
    dominant_weights,
    embedding_table,
    replay_witness,
    sweep,
    verify_su_n1_to_sostar,
)
from tightmaps.rootsys import (
    build_root_system,
    dimension,
    weight,
    weight_multiplicities,
    weyl_orbit,
)
from tightmaps.su11 import (
    best_tensor_pairing,
    clebsch_gordan,
    disc_pairing_value,
    structure_representatives,
    tensor_pairing,
    tensor_signature,
)

F = Fraction


def _report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_su11_tight_iff_odd():
    # the pairing criterion for k >= 1, the zero class at k = 0
    checks = [constructive_verdict("su11", (k,))[0] == (k % 2 == 1) for k in range(51)]
    assert len(checks) == 51
    _report(1, "su(1,1) tight iff odd, k <= 50", all(checks))


def test_criterion_2_two_factor_rule_and_proof_values():
    # the pairing criterion on every pair, equal parities included, and the
    # zero class at (0, 0)
    rule_ok = all(
        _pairing_verdict(*best_tensor_pairing(k, l))[0]
        == ((k % 2 == 1 and l == 0) or (l % 2 == 1 and k == 0))
        for k in range(13)
        for l in range(13)
        if (k, l) != (0, 0)
    )
    rule_ok = rule_ok and constructive_verdict("su11xsu11", (0, 0)) == (
        False, Witness("zero_class")
    )
    values_ok = True
    for p in range(1, 7):  # l = 2p-1 <= 12
        for q in range(0, 7):  # k = 2q <= 12
            k, l = 2 * q, 2 * p - 1
            pairings = {
                tensor_pairing(k, l, s) for s in structure_representatives()
            }
            sig = tensor_signature(k, l)
            values_ok = values_ok and pairings == {F(p, 2), F(-p, 2)}
            values_ok = values_ok and disc_pairing_value(sig.p, sig.q) == F(
                p * (2 * q + 1), 2
            )
    _report(2, "two-factor rule k,l <= 12 plus exact pairing values", rule_ok and values_ok)


def test_criterion_3_sp4_sweep():
    result = sweep("sp4", 10)
    tight_rows = [r.weight for r in result["rows"] if r.tight]
    ok = tight_rows == [(1, 0)]
    for verdict in result["rows"]:
        if verdict.tight:
            continue
        if verdict.weight == (0, 0):
            # the trivial representation has a zero pullback class instead
            # of an even witness
            ok = ok and verdict.witness.kind == "zero_class"
            ok = ok and replay_witness(verdict)
            continue
        wit = verdict.witness
        ok = ok and wit.kind == "even_branch_witness"
        ok = ok and wit.evaluation % 2 == 0 and wit.evaluation != 0
        # two-case split: short-root disc for (0,l), long pair otherwise
        expected_sub = "a1+a2" if verdict.weight[0] == 0 else "a2,2a1+a2"
        ok = ok and wit.subalgebra == expected_sub
        ok = ok and replay_witness(verdict)
    _report(3, "sp(4,R) sweep: one tight weight, replayable witnesses", ok)


def test_criterion_4_su21_sweep():
    result = sweep("su21", 10)
    tight_rows = sorted(r.weight for r in result["rows"] if r.tight)
    ok = tight_rows == [(0, 1), (1, 0)]
    for verdict in result["rows"]:
        if verdict.tight:
            continue
        if verdict.weight == (0, 0):
            ok = ok and verdict.witness.kind == "zero_class"
            ok = ok and replay_witness(verdict)
            continue
        k, l = verdict.weight
        wit = verdict.witness
        chain = {
            (k, l): k,
            (k - 1, l - 1): k - 1,
            (k - 2, l - 2): k - 2,
            (k + 1, l - 2): k + 1,
        }
        ok = ok and wit.kind == "even_branch_witness"
        ok = ok and wit.subalgebra == "a1"
        ok = ok and chain.get(tuple(wit.weight)) == wit.evaluation
        ok = ok and wit.evaluation in (k, k - 1, -2, k + 1)
        ok = ok and replay_witness(verdict)
    _report(4, "su(2,1) sweep: two tight weights, chain witnesses", ok)


def test_criterion_5_sp4su11_sweep():
    result = sweep("sp4su11", 8)
    tight_rows = sorted(r.weight for r in result["rows"] if r.tight)
    expected = sorted([(1, 0, 0)] + [(0, 0, k) for k in range(1, 9, 2)])
    _report(5, "sp(4,R)+su(1,1) sweep tight set", tight_rows == expected)


def test_criterion_6_constraint_infeasibility():
    ok = True
    for p in range(5, 22, 2):
        report = verify_su_n1_to_sostar(p)
        ok = ok and report["infeasible"]
        ok = ok and report["n"] == p - 1
        ok = ok and report["l"] == 3 - p  # the residual p - 3 + l = 0
        ok = ok and report["l"] < 0
    _report(6, "su(n,1) -> so*(2p) infeasible for odd p in [5,21]", ok)


def test_criterion_7_representation_oracles():
    ok = True
    # multiplicity total vs Weyl dimension formula, coordinate sum <= 10
    for kind in ("A1", "A2", "C2"):
        system = build_root_system(kind)
        if system.rank == 1:
            tops = [(k,) for k in range(11)]
        else:
            tops = [(k, l) for k in range(11) for l in range(11 - k)]
        for top in tops:
            w = weight(system, top)
            ok = ok and sum(weight_multiplicities(w).values()) == dimension(w)
            ok = ok and system.weyl_order % len(weyl_orbit(w)) == 0
    # Clebsch-Gordan dimension identity
    for k in range(21):
        for l in range(21):
            ok = ok and sum(m + 1 for m in clebsch_gordan(k, l)) == (k + 1) * (
                l + 1
            )
    # branching dimension conservation (also asserted inside restrict_rep)
    c2 = build_root_system("C2")
    a2 = build_root_system("A2")
    subs = [
        (c2, make_subalgebra(c2, parse_subalgebra_selector(c2, "a1+a2"))),
        (c2, make_subalgebra(c2, parse_subalgebra_selector(c2, "a2,2a1+a2"))),
        (a2, make_subalgebra(a2, parse_subalgebra_selector(a2, "a1"))),
    ]
    for system, sub in subs:
        for k in range(9):
            for l in range(9 - k):
                w = weight(system, (k, l))
                ok = ok and restrict_rep(w, sub).factor_dimension == dimension(w)
    _report(7, "representation-theory oracles", ok)


def test_criterion_8_kahler_bookkeeping():
    ok = True
    # middle-factor fixtures in all four tight/nontight combinations
    for seed in range(20):
        for tf in (True, False):
            for th in (True, False):
                result = kahler.middle_factor_fixture(4000 + seed, tf, th)
                ok = ok and result["ok"] and result["tight_f"] == tf
    # strict-positivity propagation with the exact inequality chain
    for seed in range(20):
        result = kahler.strict_positive_fixture(5000 + seed)
        ok = ok and result["ok"]
        chain = [F(x) for x in result["chain"]]
        ok = ok and chain[0] <= chain[1] < chain[2] <= chain[3]
    # norm of the distinguished class is the real rank, per family
    families = (
        [kahler.su(p, q) for q in range(1, 6) for p in range(q, 7)]
        + [kahler.sp(2 * n) for n in range(1, 7)]
        + [kahler.so_star(2 * n) for n in range(3, 11)]
        + [kahler.so2n(n) for n in range(3, 11)]
    )
    for factor in families:
        ok = ok and kahler.norm(kahler.distinguished_class([factor])) == factor.rank
    _report(8, "Kahler-class bookkeeping lemmas and norms", ok)


def test_criterion_9_cross_route_agreement():
    ok = True
    sweeps = (
        ("su11", 50),
        ("su11xsu11", 12),
        ("sp4", 10),
        ("su21", 10),
        ("sp4su11", 8),
    )
    for algebra, bound in sweeps:
        result = sweep(algebra, bound)  # raises on any route disagreement
        ok = ok and len(result["rows"]) == len(dominant_weights(algebra, bound))
    # the criterion-2 grid is square, so cover it directly as well
    for k in range(13):
        for l in range(13):
            verdict = classify("su11xsu11", (k, l))
            ok = ok and replay_witness(verdict)
    _report(9, "theorem route and constructive route agree everywhere", ok)


def test_embedding_table_rank_identity_holds():
    rows = embedding_table()
    ok = bool(rows) and all(r.tube_subalgebra.rank == r.algebra.rank for r in rows)
    print(f"embedding table rank identity: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_class_map_consistency_of_verdicts():
    from tightmaps.classify import verdict_class_map

    ok = True
    for algebra, bound in (("su11", 20), ("sp4", 8), ("su21", 8), ("sp4su11", 5)):
        for w in dominant_weights(algebra, bound):
            verdict = classify(algebra, w)
            class_map = verdict_class_map(verdict)
            kappa = kahler.distinguished_class(class_map.target)
            pulled = kahler.norm(kahler.pullback(class_map, kappa))
            ok = ok and pulled <= kahler.norm(kappa)
            ok = ok and kahler.is_tight(class_map) == verdict.tight
    print(f"verdict class-map consistency: {'PASS' if ok else 'FAIL'}")
    assert ok
