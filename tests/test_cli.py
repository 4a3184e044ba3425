"""CLI surface: parsing, report formats, exit codes."""

import json

import pytest

import tightmaps.branching
import tightmaps.classify
import tightmaps.kahler
from tightmaps.cli import (
    OK,
    USAGE_ERROR,
    VALIDATION_ERROR,
    VERIFICATION_FAILURE,
    main,
    to_json,
    to_markdown,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_classify_su21(capsys):
    code, doc, _ = run_json(capsys, "classify", "--algebra", "su21", "--weight", "1,0")
    assert code == OK
    assert doc["agreement"] is True
    assert doc["rows"][0]["tight"] is True
    assert doc["rows"][0]["holomorphic"] is True


def test_classify_sp4_witness(capsys):
    code, doc, _ = run_json(capsys, "classify", "--algebra", "sp4", "--weight", "0,2")
    assert code == OK
    row = doc["rows"][0]
    assert row["tight"] is False
    assert row["witness"]["evaluation"] == 4
    allowed = {"kind", "subalgebra", "weight", "evaluation", "pairing_lhs", "pairing_rhs"}
    assert set(row["witness"]) <= allowed


def test_classify_su11_zero(capsys):
    code, doc, _ = run_json(capsys, "classify", "--algebra", "su11", "--weight", "0")
    assert code == OK
    assert doc["rows"][0]["tight"] is False
    assert doc["rows"][0]["witness"]["kind"] == "zero_class"


def test_classify_pairing_values_serialise_as_rationals(capsys):
    code, doc, _ = run_json(capsys, "classify", "--algebra", "su11", "--weight", "2")
    assert code == OK
    wit = doc["rows"][0]["witness"]
    assert wit["pairing_lhs"] == "0" and wit["pairing_rhs"] == "1/2"


def test_sweep_su11(capsys):
    code, doc, _ = run_json(capsys, "sweep", "--algebra", "su11", "--max", "20")
    assert code == OK
    assert doc["counts"] == {"tight": 10, "nontight": 11}
    assert len(doc["rows"]) == 21


def test_sweep_su11xsu11_tight_rows(capsys):
    code, doc, _ = run_json(capsys, "sweep", "--algebra", "su11xsu11", "--max", "12")
    assert code == OK
    tight = [tuple(r["weight"]) for r in doc["rows"] if r["tight"]]
    expected = sorted(
        [(k, 0) for k in range(1, 13, 2)] + [(0, k) for k in range(1, 13, 2)]
    )
    assert sorted(tight) == expected


def test_sweep_sp4su11_tight_rows(capsys):
    code, doc, _ = run_json(capsys, "sweep", "--algebra", "sp4su11", "--max", "8")
    assert code == OK
    tight = sorted(tuple(r["weight"]) for r in doc["rows"] if r["tight"])
    expected = sorted([(1, 0, 0)] + [(0, 0, k) for k in range(1, 9, 2)])
    assert tight == expected


def test_branch_examples(capsys):
    code, doc, _ = run_json(
        capsys, "branch", "--algebra", "sp4", "--weight", "0,1", "--sub", "a1+a2"
    )
    assert code == OK
    assert doc["rows"][0]["factors"] == [2, 0, 0]

    code, doc, _ = run_json(
        capsys, "branch", "--algebra", "su21", "--weight", "1,0", "--sub", "a1"
    )
    assert code == OK
    assert doc["rows"][0]["factors"] == [1, 0]
    assert doc["rows"][0]["even_witness"] is None

    code, doc, _ = run_json(
        capsys, "branch", "--algebra", "sp4", "--weight", "1,0", "--sub", "a2,2a1+a2"
    )
    assert code == OK
    assert doc["rows"][0]["factors"] == [[1, 0], [0, 1]]


def test_branch_invalid_subalgebra(capsys):
    code, out, err = run(
        capsys, "branch", "--algebra", "sp4", "--weight", "1,0", "--sub", "a1"
    )
    assert code == VALIDATION_ERROR
    assert "condition 3" in err


def test_verify_lemma_bla(capsys):
    code, doc, _ = run_json(capsys, "verify", "lemma-bla", "--p-range", "5:21")
    assert code == OK
    infeasible = [r for r in doc["rows"] if r["status"] == "infeasible"]
    assert [r["p"] for r in infeasible] == list(range(5, 22, 2))
    assert all(r["l"] == 3 - r["p"] for r in infeasible)


def test_verify_lemma_bla_even_p_reduced(capsys):
    code, doc, _ = run_json(capsys, "verify", "lemma-bla", "--p-range", "4:5")
    assert code == OK
    assert [r["status"] for r in doc["rows"]] == ["reduced", "infeasible"]


def test_verify_kahler_lemmas(capsys):
    code, doc, _ = run_json(capsys, "verify", "kahler-lemmas")
    assert code == OK
    assert doc["agreement"] is True
    assert {r["lemma"] for r in doc["rows"]} == {
        "middle-factor",
        "product-target",
        "strict-positive",
    }
    assert all(r["passed"] == r["cases"] for r in doc["rows"])


@pytest.mark.parametrize("keep", [(), ("middle-factor", "product-target")])
def test_verify_kahler_lemmas_fails_when_a_lemma_checked_nothing(monkeypatch, capsys, keep):
    results = tightmaps.kahler.run_lemma_fixtures(count=2)
    monkeypatch.setattr(tightmaps.kahler, "run_lemma_fixtures",
                        lambda: [r for r in results if r["lemma"] in keep])
    code, doc, _ = run_json(capsys, "verify", "kahler-lemmas")
    assert code == VERIFICATION_FAILURE
    assert doc["agreement"] is False
    assert [r["cases"] for r in doc["rows"]] == ([8, 12, 0] if keep else [0, 0, 0])


def test_json_round_trip(capsys):
    code, doc, _ = run_json(capsys, "sweep", "--algebra", "su21", "--max", "4")
    assert code == OK
    assert json.loads(to_json(doc)) == doc


def test_markdown_contains_same_rows(capsys):
    code, doc, _ = run_json(capsys, "sweep", "--algebra", "sp4", "--max", "4")
    assert code == OK
    md = to_markdown(doc)
    table_lines = [
        line for line in md.splitlines() if line.startswith("| [")
    ]
    assert len(table_lines) == len(doc["rows"])
    for row, line in zip(doc["rows"], table_lines):
        for key, value in row.items():
            assert json.dumps(value) in line, (key, line)


def test_exit_codes(capsys):
    code, _, err = run(capsys, "classify", "--algebra", "su11", "--weight", "-2")
    assert code == VALIDATION_ERROR and "dominant" in err

    code, _, err = run(capsys, "classify", "--algebra", "su11", "--weight", "1,2")
    assert code == VALIDATION_ERROR

    code, _, _ = run(capsys, "classify", "--algebra", "bogus", "--weight", "1")
    assert code == USAGE_ERROR

    code, _, _ = run(capsys, "nonsense")
    assert code == USAGE_ERROR

    code, _, err = run(capsys, "verify", "lemma-bla", "--p-range", "9:5")
    assert code == VALIDATION_ERROR


@pytest.mark.parametrize("text", ["4:4", "6:6"])
def test_lemma_bla_range_without_an_odd_p_is_a_validation_error(capsys, text):
    # even p only reduce to odd p + 1, so such a range checks nothing itself
    code, out, err = run(capsys, "verify", "lemma-bla", "--p-range", text)
    assert code == VALIDATION_ERROR and text in err and out == ""


def test_lemma_bla_range_below_the_battery_is_a_validation_error(capsys):
    code, out, err = run(capsys, "verify", "lemma-bla", "--p-range", "1:4")
    assert code == VALIDATION_ERROR and "1:4" in err and out == ""

    code, doc, _ = run_json(capsys, "verify", "lemma-bla", "--p-range", "5:5")
    assert code == OK and doc["rows"][0]["status"] == "infeasible"


@pytest.mark.parametrize("text", ["a:b", "5", "5:7:9", "5:", ""])
def test_unparsable_p_range_names_the_expected_form(capsys, text):
    code, out, err = run(capsys, "verify", "lemma-bla", "--p-range", text)
    assert code == VALIDATION_ERROR and out == ""
    assert f"cannot parse range {text!r}; expected a:b" in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("command", ["classify", "branch"])
def test_negative_weight_is_a_validation_error(capsys, command):
    extra = ("--sub", "a1+a2") if command == "branch" else ()
    code, _, err = run(capsys, command, "--algebra", "sp4", "--weight", "-1,0", *extra)
    assert code == VALIDATION_ERROR and "not dominant integral" in err


@pytest.mark.parametrize(
    "algebra,sub", [("sp4", "a1"), ("sp4", "2a1"), ("su21", "a2")]
)
def test_subalgebra_errors_print_no_fraction_reprs(capsys, algebra, sub):
    code, _, err = run(
        capsys, "branch", "--algebra", algebra, "--weight", "1,1", "--sub", sub
    )
    assert code == VALIDATION_ERROR
    assert "Fraction(" not in err


@pytest.mark.parametrize(
    "algebra,sub,message",
    [
        ("sp4", "2a1", "2a1 is not a root of C2"),
        ("sp4", "a1,a1+a2", "condition 1 fails: a1 minus a1+a2 is a root"),
        ("sp4", "a1", "condition 3 fails: component [a1] has 0 noncompact roots "
                      "(expected exactly 1)"),
        ("su21", "a1,a2", "rank-two subalgebra must split as two orthogonal sl2 blocks"),
    ],
)
def test_subalgebra_errors_name_roots_in_the_selector_grammar(capsys, algebra, sub, message):
    code, out, err = run(
        capsys, "branch", "--algebra", algebra, "--weight", "1,1", "--sub", sub
    )
    assert code == VALIDATION_ERROR and out == ""
    assert err == f"validation error: {message}\n"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "classify", "--algebra", "su11", "--weight", "3",
        "--format", "json", "--out", str(target),
    )
    assert code == OK
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["rows"][0]["tight"] is True


def test_out_to_unwritable_path_is_a_validation_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(
        capsys, "sweep", "--algebra", "su11", "--max", "2", "--out", str(target)
    )
    assert code == VALIDATION_ERROR
    assert err.startswith("validation error: ") and str(target) in err
    assert "Traceback" not in err and out == ""


def test_failed_exactness_check_is_a_verification_failure(monkeypatch, capsys):
    monkeypatch.setattr(tightmaps.branching, "dimension", lambda highest: 0)
    code, _, err = run(
        capsys, "branch", "--algebra", "sp4", "--weight", "0,1", "--sub", "a1+a2"
    )
    assert code == VERIFICATION_FAILURE
    assert err.startswith("verification failure: ")
    assert "branching lost dimensions" in err


def test_branch_checks_dimensions_after_a_sweep_branched_the_same_top(monkeypatch, capsys):
    # the sp4 sweep to 1 branches (0,1) on a1+a2 while replaying its witness;
    # the branch command must still compute, and check, its own branching
    code, _, _ = run(capsys, "sweep", "--algebra", "sp4", "--max", "1")
    assert code == OK
    test_failed_exactness_check_is_a_verification_failure(monkeypatch, capsys)


def test_sweep_disagreement_exits_3_without_a_report(monkeypatch, capsys):
    real = tightmaps.classify.theorem_tight
    monkeypatch.setattr(tightmaps.classify, "theorem_tight",
                        lambda algebra, w: w == (0, 1) or real(algebra, w))
    code, out, err = run(capsys, "sweep", "--algebra", "sp4", "--max", "2")
    assert code == VERIFICATION_FAILURE and out == ""
    assert err.startswith("verification failure: sp4 (0, 1): theorem says tight=True")


def test_failed_replay_names_the_row_and_prints_the_wire_witness(monkeypatch, capsys):
    monkeypatch.setattr(tightmaps.classify, "replay_witness", lambda verdict: False)
    code, _, err = run(capsys, "classify", "--algebra", "su11", "--weight", "4")
    assert code == VERIFICATION_FAILURE
    assert "Fraction(" not in err and "Witness(" not in err
    assert err.startswith("verification failure: su11 (4,): witness failed replay: ")
    assert "kind=pairing, pairing_lhs=0, pairing_rhs=1" in err


def test_default_format_is_markdown(capsys):
    code, out, _ = run(capsys, "classify", "--algebra", "su11", "--weight", "1")
    assert code == OK
    assert out.startswith("# tightmaps classify")
