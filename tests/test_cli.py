"""CLI surface: parsing, report formats, exit codes."""

import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import tightmaps.branching
import tightmaps.classify
import tightmaps.kahler
import tightmaps.lemmas
import tightmaps.rank2
import tightmaps.rootsys
import tightmaps.su11
from tightmaps.classify import cross_check, sweep
from tightmaps.cli import (
    OK,
    USAGE_ERROR,
    VALIDATION_ERROR,
    VERIFICATION_FAILURE,
    _BATCH_CHARS,
    Runs,
    _emit,
    build_report,
    json_pieces,
    main,
    make_parser,
    to_json,
    to_markdown,
)
from tightmaps.errors import ratio


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def untimed_sha256(out):
    """sha256 of a report without its timing_ms line."""
    text = "".join(line for line in out.splitlines(keepends=True) if "timing_ms" not in line)
    return hashlib.sha256(text.encode()).hexdigest()


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


@pytest.mark.parametrize("d", [*range(-12, 0), *range(1, 13)])
def test_ratio_writes_what_str_of_a_fraction_writes(d):
    # witness pairings, lemma chains and error messages print rationals by
    # errors.ratio, so no command loads fractions to write one
    assert [ratio(n, d) for n in range(-60, 61)] == [str(Fraction(n, d)) for n in range(-60, 61)]


def test_ratio_of_a_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        ratio(1, 0)


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
    assert doc["rows"][0]["signatures"] == [[2, 1], [1, 0], [1, 0]]

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
    assert doc["rows"][0]["signatures"] == [[1, 1], [1, 1]]


# sha256 of whole branch reports, each without its timing_ms line: the
# factor, target and signature encodings are pinned byte for byte
BRANCH_REPORT_SHA256 = {
    ("sp4", "0,1", "a1+a2", "json"):
        "42b39eb347786e770afd1e9339cc11bfc203a73a5625ac906e6cb9fb44c7740f",
    ("sp4", "0,1", "a1+a2", "md"):
        "393cdf8de7869476c48103e09a7c107469ceaaf41d5a2c479f5c8427143678e6",
    ("sp4", "2,3", "a1+a2", "json"):
        "17cadeb05613409289cb92fd190eeb3478ed3186f770d41f00e8e389ae2de88d",
    ("sp4", "2,3", "a1+a2", "md"):
        "d68b72c454769eee03edc6d8f68c91a14316406f08583a1b9230b4980c645b31",
    ("sp4", "1,0", "a2,2a1+a2", "json"):
        "1d4c9bd6c7a42dd59a10a6a36a89c4b3b0b4056de1c343ba8c0c21856b1668ac",
    ("sp4", "1,0", "a2,2a1+a2", "md"):
        "7989b61fc0ad5aa2ead37c245053fcd392c968b33dc93dbd61a30cb6891e6b78",
    ("sp4", "2,1", "a2,2a1+a2", "json"):
        "7e1bf4864c9e3e0e9e6655f0d21a93467a8fa15e4007ea9767b9ccdc0d2a3c22",
    ("sp4", "2,1", "a2,2a1+a2", "md"):
        "a523057cf076b317c9affc1d0f02416501fbbde7ae52ef09acbf9066baa16114",
    ("su21", "1,0", "a1", "json"):
        "ead80216e1e55412f0962abb6cc53b27c55aec018353ae673140ac52d0c40e16",
    ("su21", "1,0", "a1", "md"):
        "3d260a90740c6017d41aaf3951a849e2e29877db21bff1bceb33037bc5dd87d8",
    ("su21", "2,3", "a1", "json"):
        "947308331d994800a3dbe4df187641f34cc6b5d1e90c2dbe25745f4e573045d5",
    ("su21", "2,3", "a1", "md"):
        "a86c6057140befa469c8e4aff5c231e4f3f3d31bd452057241fdbb99c84c5fef",
    ("su11", "4", "a1", "json"):
        "88cbc0d0bffeba0c231fe052be266d159fc999b4a6fd8332c05867b56ec4ca27",
    ("su11", "4", "a1", "md"):
        "7b4933fdb7584c55f25738e2331692c9bb688e5c275e2c264d7af54b7952fce1",
    # large weights, where a branching that does not conserve dimensions
    # exits 3 and writes no report
    ("sp4", "120,120", "a2,2a1+a2", "json"):
        "3719191e6b653a04da2b0b3e1ac7b4ebbf3007e517ab11c1df052dbe76f9d942",
    # 398 601 factor copies of 121 distinct values
    ("sp4", "80,80", "a1+a2", "json"):
        "2a40f3215204152291c6b211f43816d76a58663816d5e905d44f7c212bcd5544",
    ("su21", "120,120", "a1", "json"):
        "1cae9e3ca10125577e5271af91199577a45a1e292e58b11126b302b1025a5f8a",
}


@pytest.mark.parametrize("algebra,weight,sub,fmt", list(BRANCH_REPORT_SHA256))
def test_branch_reports_are_pinned(capsys, algebra, weight, sub, fmt):
    code, out, _ = run(
        capsys, "branch", "--algebra", algebra, "--weight", weight, "--sub", sub,
        "--format", fmt,
    )
    assert code == OK
    assert untimed_sha256(out) == BRANCH_REPORT_SHA256[algebra, weight, sub, fmt]


# sha256 of whole reports of the other commands, each without its timing_ms
# line: a rational witness, a sweep with counts and both verify targets
REPORT_SHA256 = {
    ("classify --algebra su11 --weight 2", "json"):
        "0e2a44f03c06c24f548dd8af614decf363ae01e515cd1930874e86db47f974f9",
    ("classify --algebra su11 --weight 2", "md"):
        "6b223e3f10aa1985e8e553b68f20acf8960a71960e91d10c1d8c8dc09190466c",
    ("sweep --algebra sp4su11 --max 4", "json"):
        "7302368fc260382051fb0977078723caa8f051812fa387db69b8036803464191",
    ("sweep --algebra sp4su11 --max 4", "md"):
        "08afcaf9eb14a84137ae5cb9067e9954df0a861a40bf662d3478e623ecadb2af",
    ("verify lemma-bla --p-range 4:21", "json"):
        "815108e8b1b0f5db2db7500f2a1c2e2706a941957a3c3d5247af8b11f02a733e",
    ("verify lemma-bla --p-range 4:21", "md"):
        "d3d34be622809ea647037ad07661dd57642fef3c458d6fe3308a4996ae096c2e",
    ("verify kahler-lemmas", "json"):
        "0327fc29a18e3c232db60402c5856e29ff6acbfe148932ffc71217661ce5b70a",
    ("verify kahler-lemmas", "md"):
        "7eb2ba0e8437e154c5a3d6fed1ffb03858fe85daa77d0e16c229d804b5be42ba",
    # su11xsu11 rows, whose coordinate count comes from the factor table
    ("sweep --algebra su11xsu11 --max 100", "json"):
        "e9dab4c58743900a0102804aaec98b989a2a67908b88d7448b6ae816b820e896",
    # su11 pairings held as doubled ints and written as their halves, both
    # whole ("0", "12") and p/2 ("1/2", "25/2")
    ("sweep --algebra su11 --max 50", "json"):
        "04e12269b832df8f10dc277d9c8982a671349f128f8823386283df8fa7f786b1",
    # one line per odd p, so a wide range stays cheap
    ("verify lemma-bla --p-range 5:401", "json"):
        "c046c5568eddc8d15089de325615e2da60bc57feab198c13336f3a4c83507e27",
}


@pytest.mark.parametrize("command,fmt", list(REPORT_SHA256))
def test_reports_are_pinned(capsys, command, fmt):
    code, out, _ = run(capsys, *command.split(), "--format", fmt)
    assert code == OK
    assert untimed_sha256(out) == REPORT_SHA256[command, fmt]


@pytest.mark.parametrize("command", [
    "classify --algebra su11 --weight 2",
    "sweep --algebra su11 --max 2",
    "branch --algebra su11 --weight 4 --sub a1",
    "verify lemma-bla --p-range 5:5",
    "verify kahler-lemmas",
])
def test_handlers_return_the_report_and_main_finishes_it(capsys, command):
    # a handler builds its report; main alone times it, writes it and picks
    # the exit code, so timing_ms is the last key
    args = make_parser().parse_args(command.split())
    report = args.run(args)
    assert capsys.readouterr().out == ""
    assert isinstance(report, dict) and "timing_ms" not in report
    code, doc, _ = run_json(capsys, *command.split())
    assert code == OK and list(doc)[-1] == "timing_ms"
    assert {k: v for k, v in doc.items() if k != "timing_ms"} == json.loads(to_json(report))


def test_runs_are_written_as_their_expansion():
    # each run's text is made once and repeated, nested values re-indented
    def report(factors, empty):
        return build_report("branch", {"sub": "a1"}, [{"factors": factors, "none": empty}], True)

    pairs = [([2, 1], 3), (0, 2), ({"p": [1, 0]}, 1), ([2, 1], 1)]
    runs, expanded = report(Runs(pairs), Runs([])), report(Runs(pairs).expand(), [])
    assert expanded["rows"][0]["factors"][2:4] == [[2, 1], 0]
    assert to_json(runs) == json.dumps(expanded, indent=2)
    assert to_markdown(runs) == to_markdown(expanded)


def test_a_long_run_is_written_in_bounded_pieces(tmp_path, capsys):
    # _emit writes a report's pieces as they are made: no piece holds more
    # than one batch of a run, and the pieces join to the expanded text
    report = build_report("branch", {}, [{"factors": Runs([(0, 200_000), ([1, 2], 3)])}], True)
    expected = json.dumps(build_report("branch", {}, [{"factors": [0] * 200_000 + [[1, 2]] * 3}],
                                       True), indent=2)
    pieces = list(json_pieces(report))
    assert len(pieces) > 2 and max(map(len, pieces)) <= _BATCH_CHARS
    assert "".join(pieces) == expected
    _emit(report, "json", None)
    assert capsys.readouterr().out == expected + "\n"
    _emit(report, "json", str(tmp_path / "r.json"))
    assert (tmp_path / "r.json").read_text() == expected


@pytest.mark.parametrize(
    "sub,signature", [("a1+a2", "sym_power_signature"), ("a2,2a1+a2", "tensor_signature")]
)
def test_branch_reads_one_signature_per_distinct_factor(monkeypatch, capsys, sub, signature):
    calls = []
    # su11.signature looks the rank's own signature up in su11
    real = getattr(tightmaps.su11, signature)
    monkeypatch.setattr(tightmaps.su11, signature, lambda *f: calls.append(f) or real(*f))
    code, doc, _ = run_json(capsys, "branch", "--algebra", "sp4", "--weight", "2,3", "--sub", sub)
    assert code == OK
    # on a1+a2 the 34 factors of (2,3) take 5 values; on the long pair none repeats
    factors = [tuple(f) if isinstance(f, list) else (f,) for f in doc["rows"][0]["factors"]]
    assert sorted(calls) == sorted(set(factors))


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


def test_verify_lemma_bla_writes_the_report_of_a_feasible_row_and_exits_3(monkeypatch, capsys):
    real = tightmaps.lemmas.verify_su_n1_to_sostar

    def feasible_at_7(p):
        result = real(p)
        return dict(result, infeasible=False) if p == 7 else result

    monkeypatch.setattr(tightmaps.lemmas, "verify_su_n1_to_sostar", feasible_at_7)
    code, doc, err = run_json(capsys, "verify", "lemma-bla", "--p-range", "5:9")
    assert code == VERIFICATION_FAILURE and err == ""
    assert doc["agreement"] is False
    assert [r["status"] for r in doc["rows"]] == ["infeasible", "reduced", "feasible",
                                                  "reduced", "infeasible"]


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


@pytest.mark.parametrize("degree,tight", [(1000000000, False), (1000000001, True)])
def test_su11_answers_at_degree_1e9_within_a_second(capsys, degree, tight):
    # a model's range blocks sum in closed form, so the degree costs nothing
    started = time.perf_counter()
    code, doc, _ = run_json(capsys, "classify", "--algebra", "su11", "--weight", str(degree))
    assert time.perf_counter() - started < 1.0
    assert code == OK and doc["rows"][0]["tight"] is tight
    # the disc value of su(p, q) is q/2, and q = (degree + 1) // 2
    assert doc["rows"][0]["witness"]["pairing_rhs"] == str(Fraction((degree + 1) // 2, 2))


def test_exit_codes(capsys):
    code, _, err = run(capsys, "classify", "--algebra", "su11", "--weight", "-2")
    assert code == VALIDATION_ERROR and "dominant" in err

    code, _, err = run(capsys, "classify", "--algebra", "su11", "--weight", "1,2")
    assert code == VALIDATION_ERROR

    code, _, _ = run(capsys, "classify", "--algebra", "bogus", "--weight", "1")
    assert code == USAGE_ERROR

    code, _, _ = run(capsys, "nonsense")
    assert code == USAGE_ERROR

    # branch takes the single-factor algebras only, through argparse's choices
    code, out, _ = run(
        capsys, "branch", "--algebra", "sp4su11", "--weight", "1,0,0", "--sub", "a1+a2"
    )
    assert code == USAGE_ERROR and out == ""

    code, _, err = run(capsys, "verify", "lemma-bla", "--p-range", "9:5")
    assert code == VALIDATION_ERROR

    # only lemma-bla reads a range of p; kahler-lemmas refuses one rather than ignore it
    code, out, err = run(capsys, "verify", "kahler-lemmas", "--p-range", "1:2")
    assert code == VALIDATION_ERROR and out == ""
    assert err.startswith("validation error: --p-range ")

    # branch validates its weight as classify does, naming the algebra
    code, out, err = run(
        capsys, "branch", "--algebra", "sp4", "--weight", "1,2,3", "--sub", "a1+a2"
    )
    assert code == VALIDATION_ERROR and out == ""
    assert err == "validation error: sp4 expects 2 weight coordinates, got 3\n"

    # a coordinate or bound is ASCII digits with an optional leading '-', where
    # int() alone would also read these; the '=' form keeps argparse from
    # taking a leading '-' for an option
    for text in ("1_0", "\u0663", "+3", " 3", "3 ", "-", "--3", "-+3", "\uff13"):
        code, out, err = run(capsys, "classify", "--algebra", "su11", f"--weight={text}")
        assert code == VALIDATION_ERROR and out == "", text
        assert err == f"validation error: cannot parse weight {text!r}; expected k[,l[,m]]\n"
        p_range = f"{text}:7"
        code, out, err = run(capsys, "verify", "lemma-bla", f"--p-range={p_range}")
        assert code == VALIDATION_ERROR and out == "", p_range
        assert err == f"validation error: cannot parse range {p_range!r}; expected a:b\n"
    code, out, err = run(capsys, "verify", "lemma-bla", "--p-range", "5:1_1")
    assert code == VALIDATION_ERROR and "cannot parse range '5:1_1'" in err

    # sweep's --max reads the same ASCII integers, refused as a usage error
    # with the text int() gives there; a negative bound is a validation error
    for text in ("1_0", "+3", " 3", "\u0663", "abc"):
        code, out, err = run(capsys, "sweep", "--algebra", "su11", "--max", text)
        assert code == USAGE_ERROR and out == "", text
        assert err.endswith(f"error: argument --max: invalid int value: {text!r}\n"), text
    code, out, err = run(capsys, "sweep", "--algebra", "su11", "--max", "-3")
    assert code == VALIDATION_ERROR and out == ""

    # a negative bound after a space is joined to --p-range, as after --weight
    code, out, err = run(capsys, "verify", "lemma-bla", "--p-range", "-5:7")
    assert code == VALIDATION_ERROR and out == "" and "-5:7 includes p < 4" in err
    assert run(capsys, "verify", "lemma-bla", "--p-range=-5:7") == (code, out, err)


_TOP_USAGE = "usage: tightmaps [-h] {classify,sweep,branch,verify} ...\n"
_CLASSIFY_USAGE = """\
usage: tightmaps classify [-h] --algebra {su11,su11xsu11,sp4,sp4su11,su21}
                          --weight WEIGHT [--format {json,md}] [--out OUT]
"""
_SWEEP_USAGE = """\
usage: tightmaps sweep [-h] --algebra {su11,su11xsu11,sp4,sp4su11,su21}
                       [--max MAX] [--format {json,md}] [--out OUT]
"""
_BRANCH_USAGE = """\
usage: tightmaps branch [-h] --algebra {sp4,su11,su21} --weight WEIGHT --sub
                        SUB [--format {json,md}] [--out OUT]
"""
_VERIFY_USAGE = """\
usage: tightmaps verify [-h] [--p-range P_RANGE] [--format {json,md}]
                        [--out OUT]
                        {lemma-bla,kahler-lemmas}
"""
_COMMON_HELP = """\
  --format {json,md}
  --out OUT             write the report to a file
"""
_HELP_OPTION = """
options:
  -h, --help            show this help message and exit
"""

# (exit code, stdout, stderr) of argparse's own output, at 80 columns
PARSER_TEXT = {
    "": (USAGE_ERROR, "", _TOP_USAGE + "error: the following arguments are required: command\n"),
    "bogus --format json": (USAGE_ERROR, "", _TOP_USAGE + (
        "error: argument command: invalid choice: 'bogus' "
        "(choose from 'classify', 'sweep', 'branch', 'verify')\n")),
    "--help": (OK, _TOP_USAGE + """
positional arguments:
  {classify,sweep,branch,verify}
    classify            classify one highest weight
    sweep               classify all weights up to a bound
    branch              restrict a representation to a subalgebra
    verify              run the bundled verification batteries
""" + _HELP_OPTION, ""),
    "classify --help": (OK, _CLASSIFY_USAGE + _HELP_OPTION + """\
  --algebra {su11,su11xsu11,sp4,sp4su11,su21}
  --weight WEIGHT       comma-separated coordinates
""" + _COMMON_HELP, ""),
    "sweep --help": (OK, _SWEEP_USAGE + _HELP_OPTION + """\
  --algebra {su11,su11xsu11,sp4,sp4su11,su21}
  --max MAX
""" + _COMMON_HELP, ""),
    "branch --help": (OK, _BRANCH_USAGE + _HELP_OPTION + """\
  --algebra {sp4,su11,su21}
  --weight WEIGHT
  --sub SUB             e.g. a1+a2 or a2,2a1+a2
""" + _COMMON_HELP, ""),
    "verify --help": (OK, _VERIFY_USAGE + """
positional arguments:
  {lemma-bla,kahler-lemmas}
""" + _HELP_OPTION + """\
  --p-range P_RANGE     lemma-bla's range of p, a:b (default 5:21)
""" + _COMMON_HELP, ""),
    "classify --algebra su11 --weight 1 extra": (
        USAGE_ERROR, "", _TOP_USAGE + "error: unrecognized arguments: extra\n"),
    "sweep --algebra sp4 --max x": (
        USAGE_ERROR, "", _SWEEP_USAGE + "error: argument --max: invalid int value: 'x'\n"),
    "verify bogus": (USAGE_ERROR, "", _VERIFY_USAGE + (
        "error: argument target: invalid choice: 'bogus' "
        "(choose from 'lemma-bla', 'kahler-lemmas')\n")),
}


@pytest.mark.parametrize("command", list(PARSER_TEXT))
def test_parser_text_is_pinned(monkeypatch, capsys, command):
    # the usage, help and error text argparse writes, whichever subcommands
    # the parser was built with
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *command.split()) == PARSER_TEXT[command]


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


@pytest.mark.parametrize("spelling", [("--sub", "-a1"), ("--sub=-a1",)])
def test_a_selector_with_a_leading_dash_gets_the_selector_message(capsys, spelling):
    # argparse read `--sub -a1`'s value as an option and exited 1
    code, out, err = run(capsys, "branch", "--algebra", "sp4", "--weight", "1,0", *spelling)
    assert code == VALIDATION_ERROR and out == ""
    assert err == "validation error: cannot parse selector term '-a1'\n"


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
        # a coefficient is ASCII digits, as a weight coordinate is
        ("sp4", "a2,\u0662a1+a2", "cannot parse selector term '\u0662a1'"),
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


def test_unwritable_out_is_refused_before_the_command_runs(monkeypatch, tmp_path, capsys):
    def never(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(tightmaps.classify, "sweep", never)
    for target in (tmp_path / "missing" / "r.json", tmp_path):
        code, out, err = run(
            capsys, "sweep", "--algebra", "sp4", "--max", "20", "--out", str(target)
        )
        assert code == VALIDATION_ERROR and out == ""
        assert err.startswith(f"validation error: cannot write report to {target}: ")


def _with_src_on_path():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(tightmaps.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))


def _spawn(argv, stdout):
    """A fresh ``python -m tightmaps`` on ``argv``, its stderr piped as text."""
    return subprocess.Popen([sys.executable, "-m", "tightmaps", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, text=True, env=_with_src_on_path())


# A child's ru_maxrss starts at its parent's RSS when it is spawned, so a
# command spawned straight from pytest would count pytest's memory too.  This
# small launcher spawns it instead, hashes its output as untimed_sha256 does
# and reads its max RSS (KB on Linux) from os.wait4
_LAUNCHER = """\
import hashlib, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
digest = hashlib.sha256()
for line in proc.stdout:
    if b"timing_ms" not in line:
        digest.update(line)
status, usage = os.wait4(proc.pid, 0)[1:]
print(os.waitstatus_to_exitcode(status), digest.hexdigest(), usage.ru_maxrss)
"""


def _launched(argv):
    """(exit code, untimed sha256 of its output, max RSS in MB) of ``argv``."""
    out = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], env=_with_src_on_path(),
                         capture_output=True, text=True, check=True).stdout
    code, digest, rss_kb = out.split()
    return int(code), digest, int(rss_kb) / 1024


def test_the_launcher_measures_the_command_and_not_its_parent():
    # `python -c pass` reads about 14 MB; spawned from this process, which
    # holds 100 MB, it would read over 100
    held = b"\1" * (100 << 20)
    code, digest, rss_mb = _launched([sys.executable, "-c", "pass"])
    assert code == OK and digest == hashlib.sha256(b"").hexdigest()
    assert rss_mb < 30 and len(held) == 100 << 20


def test_a_long_branch_report_is_written_in_bounded_memory():
    # sp4 (80,80) on a1+a2 writes 398 601 factor copies of 121 distinct
    # values; the JSON writer repeats each run's text, so the report never
    # stands whole in memory
    argv = ["branch", "--algebra", "sp4", "--weight", "80,80", "--sub", "a1+a2", "--format", "json"]
    code, digest, rss_mb = _launched([sys.executable, "-m", "tightmaps", *argv])
    assert code == OK and digest == BRANCH_REPORT_SHA256["sp4", "80,80", "a1+a2", "json"]
    assert rss_mb <= 70, f"{rss_mb:.0f} MB max RSS"


def _assert_one_stdout_error_line(err):
    assert err.startswith("validation error: cannot write report to standard output: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_a_closed_stdout_pipe_is_a_validation_error(capsys):
    # a reader that stops early (`| head`) closes the pipe; a report over
    # 64 KB cannot wait in the pipe's buffer, so the writer meets the close
    argv = ["sweep", "--algebra", "sp4", "--max", "30", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == OK and len(out) > 64 * 1024
    proc = _spawn(argv, subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == VALIDATION_ERROR
    _assert_one_stdout_error_line(err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("fmt", ["md", "json"])
def test_a_full_stdout_is_a_validation_error(fmt):
    # the report fits the stream's buffer, so only the flush meets the error
    with open("/dev/full", "w") as full:
        proc = _spawn(["classify", "--algebra", "sp4", "--weight", "1,0", "--format", fmt], full)
        err = proc.communicate()[1]
    assert proc.returncode == VALIDATION_ERROR
    _assert_one_stdout_error_line(err)
    assert err.endswith(f"{os.strerror(errno.ENOSPC)}\n")


def test_a_failed_command_creates_no_out_file(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(tightmaps.classify, "theorem_tight", lambda algebra, w: w == (0, 1))
    target = tmp_path / "r.json"
    code, out, _ = run(capsys, "sweep", "--algebra", "sp4", "--max", "2", "--out", str(target))
    assert code == VERIFICATION_FAILURE and out == ""
    assert not target.exists()


def test_the_command_path_builds_no_multiplicity_table(capsys):
    # branchings divide the Weyl numerator only by the roots outside B, and
    # witnesses test weights by dominance, so no command builds a character table
    table = tightmaps.rootsys._multiplicity_table
    table.cache_clear()
    tightmaps.rank2._branching.cache_clear()
    sweep("sp4", 8)
    sweep("su21", 9)
    sweep("sp4su11", 6)
    cross_check("sp4", (120, 120))
    for algebra, weight, sub in (("sp4", "3,2", "a1+a2"), ("sp4", "1,0", "a2,2a1+a2"),
                                 ("su21", "1,0", "a1"), ("su11", "4", "a1")):
        code, _, _ = run(capsys, "branch", "--algebra", algebra, "--weight", weight,
                         "--sub", sub, "--format", "json")
        assert code == OK
    assert table.cache_info().misses == 0


def test_failed_exactness_check_is_a_verification_failure(monkeypatch, capsys):
    monkeypatch.setattr(tightmaps.branching, "dimension", lambda highest: 0)
    code, _, err = run(
        capsys, "branch", "--algebra", "sp4", "--weight", "0,1", "--sub", "a1+a2"
    )
    assert code == VERIFICATION_FAILURE
    # the kind, the top and B, then what failed
    assert err == "verification failure: branching C2 (0, 1) on a1+a2: lost dimensions: 5 != 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("branch", "--algebra", "sp4", "--weight", "1,1", "--sub", "a1+a2"),
        ("sweep", "--algebra", "sp4", "--max", "2"),
    ],
)
def test_a_planted_weyl_numerator_fault_is_a_verification_failure(monkeypatch, capsys, argv):
    # a fault planted in the Weyl numerator that branching divides: the top
    # term's sign flipped, or that term dropped
    real = tightmaps.branching._weyl_numerator
    faults = (
        lambda terms, top: {**terms, top: -terms[top]},
        lambda terms, top: {x: c for x, c in terms.items() if x != top},
    )
    for fault in faults:
        def corrupted(system, top, fault=fault):
            return fault(real(system, top), tuple(t + 1 for t in top))

        tightmaps.rank2._branching.cache_clear()
        monkeypatch.setattr(tightmaps.branching, "_weyl_numerator", corrupted)
        code, out, err = run(capsys, *argv)
        assert code == VERIFICATION_FAILURE and out == ""
        # the kind, the top, B and the root
        assert re.fullmatch(r"verification failure: branching C2 \(\d+, \d+\) on [a0-9+,]+: "
                            r"the Weyl numerator is not divisible by 1 - e\^-\([a0-9+]+\)\n", err)
    tightmaps.rank2._branching.cache_clear()


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
