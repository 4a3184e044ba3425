"""Output checker: every report is judged against the classification that
PAPER.md states, not against the program's own opinion.

A report passes when
- the process exited 0 and printed one JSON document in the program's own
  serialization (``json.dumps(report, indent=2)`` plus a newline);
- ``agreement`` is true;
- its rows are exactly the ones PAPER.md predicts: every dominant weight
  with coordinate sum at most the bound, in sorted order, tight exactly on
  the published tight set (or, for ``verify kahler-lemmas``, every lemma
  with ``passed == cases > 0``);
- its digest (the report without ``timing_ms``) equals the one recorded
  from the seed program in ``digests.json``.  That guards byte identity of
  everything but the timing.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

KAHLER_LEMMAS = ("middle-factor", "product-target", "strict-positive")


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)["digests"]


def report_digest(report: dict) -> str:
    """sha256 of the serialized report with ``timing_ms`` removed."""
    stripped = {k: v for k, v in report.items() if k != "timing_ms"}
    return hashlib.sha256(json.dumps(stripped, indent=2).encode()).hexdigest()


def expected_tight(algebra: str, w: tuple[int, ...]) -> bool:
    """The tight sets of PAPER.md, acceptance criteria 1 to 5."""
    if algebra == "su11":
        return w[0] % 2 == 1
    if algebra == "su11xsu11":
        k, l = w
        return (k % 2 == 1 and l == 0) or (l % 2 == 1 and k == 0)
    if algebra == "sp4":
        return w == (1, 0)
    if algebra == "su21":
        return w in ((1, 0), (0, 1))
    if algebra == "sp4su11":
        return w == (1, 0, 0) or (w[:2] == (0, 0) and w[2] % 2 == 1)
    raise ValueError(f"no expectation for algebra {algebra!r}")


_RANK = {"su11": 1, "su11xsu11": 2, "sp4": 2, "su21": 2, "sp4su11": 3}


def expected_weights(algebra: str, bound: int) -> list[tuple[int, ...]]:
    """Dominant weights with coordinate sum at most ``bound``, sorted."""
    rank = _RANK[algebra]
    grid = itertools.product(range(bound + 1), repeat=rank)
    return sorted(w for w in grid if sum(w) <= bound)


def _check_verdict_rows(algebra: str, rows: list, weights: list) -> list[str]:
    problems = []
    got = [tuple(row.get("weight", ())) for row in rows]
    if got != weights:
        problems.append(
            f"{algebra}: rows {len(got)} weights, expected {len(weights)} "
            "in sorted order"
        )
        return problems
    for row, w in zip(rows, weights):
        if row.get("tight") is not expected_tight(algebra, w):
            problems.append(f"{algebra} {w}: tight={row.get('tight')} contradicts PAPER.md")
        if not isinstance(row.get("witness"), dict) or "kind" not in row["witness"]:
            problems.append(f"{algebra} {w}: row carries no witness")
    return problems


def check_semantics(argv: list[str], report: dict) -> list[str]:
    """Problems of one parsed report against PAPER.md; empty when it passes."""
    problems = []
    if report.get("agreement") is not True:
        problems.append("agreement is not true")
    rows = report.get("rows")
    if not isinstance(rows, list) or not rows:
        return problems + ["report has no rows"]
    command = argv[0]
    if command == "sweep":
        algebra, bound = argv[2], int(argv[4])
        problems += _check_verdict_rows(algebra, rows, expected_weights(algebra, bound))
        tight = sum(1 for w in expected_weights(algebra, bound) if expected_tight(algebra, w))
        counts = {"tight": tight, "nontight": len(expected_weights(algebra, bound)) - tight}
        if report.get("counts") != counts:
            problems.append(f"{algebra}: counts {report.get('counts')} != {counts}")
    elif command == "classify":
        algebra = argv[2]
        w = tuple(int(c) for c in argv[4].split(","))
        problems += _check_verdict_rows(algebra, rows, [w])
    elif argv == ["verify", "kahler-lemmas"]:
        names = tuple(row.get("lemma") for row in rows)
        if names != KAHLER_LEMMAS:
            problems.append(f"kahler-lemmas: lemmas {names} != {KAHLER_LEMMAS}")
        for row in rows:
            cases, passed = row.get("cases"), row.get("passed")
            if not (isinstance(cases, int) and cases > 0 and passed == cases):
                problems.append(f"kahler-lemmas {row.get('lemma')}: passed {passed} of {cases}")
    else:
        problems.append(f"no expectation for command {command_key(argv)!r}")
    return problems


def check_output(argv: list[str], returncode: int, text: str,
                 digests: dict[str, str]) -> list[str]:
    """Problems of one command's raw output; empty when it passes."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"output is not JSON: {err}"]
    if not isinstance(report, dict):
        return ["output is not a JSON object"]
    problems = check_semantics(argv, report)
    if text != json.dumps(report, indent=2) + "\n":
        problems.append("output is not in the program's JSON serialization")
    expected = digests.get(command_key(argv))
    if expected is None:
        problems.append("no recorded digest for this command")
    elif report_digest(report) != expected:
        problems.append("digest differs from the seed program's")
    return problems


def tampered_reports(report: dict) -> dict[str, dict]:
    """Copies of a passing sweep report, each broken in one way."""
    flipped = copy.deepcopy(report)
    flipped["rows"][0]["tight"] = not flipped["rows"][0]["tight"]
    dropped = copy.deepcopy(report)
    del dropped["rows"][-1]
    disagree = copy.deepcopy(report)
    disagree["agreement"] = False
    empty = copy.deepcopy(report)
    empty["rows"] = []
    return {
        "tight flag flipped": flipped,
        "row dropped": dropped,
        "agreement false": disagree,
        "no rows": empty,
    }


def self_check(argv: list[str], text: str, digests: dict[str, str]) -> list[str]:
    """Show the checker rejects broken copies of a report it accepts.

    Returns the problems with the checker itself; empty when every tampered
    copy is counted as failed.
    """
    if check_output(argv, 0, text, digests):
        return ["self-check needs a passing report"]
    problems = []
    for name, broken in tampered_reports(json.loads(text)).items():
        broken_text = json.dumps(broken, indent=2) + "\n"
        if not check_output(argv, 0, broken_text, digests):
            problems.append(f"checker accepted a report with {name}")
    return problems
