"""Command-line surface: classification queries, theorem sweeps, branching
inspection, and lemma verification, with deterministic JSON or markdown
reports.

Exit codes: 0 success/agreement, 1 usage error, 2 validation error,
3 verification failure (including a failed internal exactness check).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import kahler
from .branching import (
    even_witness,
    make_subalgebra,
    parse_subalgebra_selector,
    restrict_rep,
)
from .classify import (
    ALGEBRAS,
    LemmaReduction,
    TightnessVerdict,
    Witness,
    cross_check,
    root_system_for,
    sweep,
    verify_su_n1_to_sostar,
)
from .errors import VerificationError
from .rootsys import weight

OK = 0
USAGE_ERROR = 1
VALIDATION_ERROR = 2
VERIFICATION_FAILURE = 3

_BRANCH_ALGEBRAS = ("sp4", "su11", "su21")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def encode(value):
    """JSON-ready copy: rationals become 'numerator/denominator' strings."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def witness_wire(witness: Witness) -> dict:
    """The witness fields that are set, in field order."""
    return {k: encode(v) for k, v in witness._asdict().items() if v is not None}


def verdict_row(verdict: TightnessVerdict) -> dict:
    return {
        "weight": list(verdict.weight),
        "tight": verdict.tight,
        "holomorphic": verdict.holomorphic,
        "witness": witness_wire(verdict.witness),
    }


def build_report(command: str, params: dict, rows: list, agreement: bool,
                 started: float, extra: dict | None = None) -> dict:
    report = {
        "command": command,
        "params": encode(params),
        "rows": rows,
        "agreement": agreement,
    }
    if extra:
        report.update(extra)
    report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return report


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2)


def to_markdown(report: dict) -> str:
    lines = [f"# tightmaps {report['command']}", ""]
    params = ", ".join(f"{k}={json.dumps(v)}" for k, v in report["params"].items())
    lines.append(f"params: {params}")
    rows = report["rows"]
    if rows:
        keys = []
        for row in rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        lines.append("")
        lines.append("| " + " | ".join(keys) + " |")
        lines.append("|" + "---|" * len(keys))
        for row in rows:
            cells = [json.dumps(row.get(k)) for k in keys]
            lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    for k, v in report.items():
        if k in ("command", "params", "rows"):
            continue
        lines.append(f"{k}: {json.dumps(v)}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str, out: str | None) -> None:
    text = to_json(report) if fmt == "json" else to_markdown(report)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise ValueError(f"cannot write report to {out}: {err.strerror}") from err
    else:
        print(text)


def _parse_weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse weight {text!r}; expected k[,l[,m]]")


def _parse_p_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise ValueError(f"cannot parse range {text!r}; expected a:b")
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def cmd_classify(args) -> int:
    started = time.perf_counter()
    coords = _parse_weight(args.weight)
    check = cross_check(args.algebra, coords)
    report = build_report(
        "classify",
        {"algebra": args.algebra, "weight": list(coords)},
        [verdict_row(check["verdict"])],
        True,  # cross_check raises on a disagreement or a failed replay
        started,
    )
    _emit(report, args.format, args.out)
    return OK


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    result = sweep(args.algebra, args.max)
    rows = [verdict_row(r["verdict"]) for r in result["rows"]]
    report = build_report(
        "sweep",
        {"algebra": args.algebra, "max": args.max},
        rows,
        True,  # sweep raises on a disagreement or a failed replay
        started,
        extra={"counts": result["counts"]},
    )
    _emit(report, args.format, args.out)
    return OK


def cmd_branch(args) -> int:
    started = time.perf_counter()
    if args.algebra not in _BRANCH_ALGEBRAS:
        raise ValueError(
            f"branch supports algebras {list(_BRANCH_ALGEBRAS)}, got {args.algebra!r}"
        )
    system = root_system_for(args.algebra)
    coords = _parse_weight(args.weight)
    top = weight(system, coords)
    if not top.is_dominant:
        raise ValueError(f"weight {coords} is not dominant integral")
    sub = make_subalgebra(system, parse_subalgebra_selector(system, args.sub))
    branch = restrict_rep(top, sub)
    witness = even_witness(top, sub)
    if witness is None:
        wire = None
    else:
        found, value = witness
        wire = {"weight": list(found.coords), "evaluation": value}
    row = {
        "weight": list(coords),
        "subalgebra": args.sub,
        "target": branch.target_kind,
        "factors": encode(list(branch.factors)),
        "signatures": [[s.p, s.q] for s in branch.signatures],
        "even_witness": wire,
    }
    report = build_report(
        "branch",
        {"algebra": args.algebra, "weight": list(coords), "sub": args.sub},
        [row],
        True,
        started,
    )
    _emit(report, args.format, args.out)
    return OK


def _verify_lemma_bla(args, started: float) -> int:
    lo, hi = _parse_p_range(args.p_range)
    if lo < 4:
        # odd p >= 5 are checked and even p reduce to them, but nothing here
        # checks p <= 3, so a report over them could not claim agreement
        raise ValueError(
            f"p-range {args.p_range} includes p < 4, which lemma-bla does not check: "
            "p = 1, 2 are not Hermitian and p = 3 is left to the unitary classification"
        )
    if (lo | 1) > hi:
        # even p only reduce to odd p + 1, so a range with no odd p checks nothing
        raise ValueError(f"p-range {args.p_range} has no odd p >= 5 for lemma-bla to check")
    rows = []
    failed = False
    for p in range(lo, hi + 1):
        try:
            result = verify_su_n1_to_sostar(p)
        except LemmaReduction as reduction:
            rows.append({"p": p, "status": "reduced", "reason": str(reduction)})
            continue
        status = "infeasible" if result["infeasible"] else "feasible"
        failed = failed or not result["infeasible"]
        rows.append(
            {
                "p": p,
                "status": status,
                "n": result["n"],
                "l": result["l"],
                "residual": result["residual"],
            }
        )
    report = build_report(
        "verify",
        {"target": "lemma-bla", "p_range": [lo, hi]},
        rows,
        not failed,
        started,
    )
    _emit(report, args.format, args.out)
    return VERIFICATION_FAILURE if failed else OK


def _verify_kahler(args, started: float) -> int:
    results = kahler.run_lemma_fixtures()
    rows = []
    for lemma in ("middle-factor", "product-target", "strict-positive"):
        cases = [r for r in results if r["lemma"] == lemma]
        rows.append(
            {
                "lemma": lemma,
                "cases": len(cases),
                "passed": sum(1 for r in cases if r["ok"]),
            }
        )
    # a lemma with no cases checked nothing, so it fails
    ok = all(r["ok"] for r in results) and all(row["cases"] for row in rows)
    report = build_report(
        "verify",
        {"target": "kahler-lemmas"},
        rows,
        ok,
        started,
    )
    _emit(report, args.format, args.out)
    return OK if ok else VERIFICATION_FAILURE


def cmd_verify(args) -> int:
    started = time.perf_counter()
    if args.target == "lemma-bla":
        return _verify_lemma_bla(args, started)
    if args.target == "kahler-lemmas":
        return _verify_kahler(args, started)
    raise ValueError(f"unknown verify target {args.target!r}")


def _add_common(parser) -> None:
    parser.add_argument("--format", choices=("json", "md"), default="md")
    parser.add_argument("--out", default=None, help="write the report to a file")


def make_parser() -> _Parser:
    parser = _Parser(prog="tightmaps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[], help="classify one highest weight")
    p.add_argument("--algebra", required=True, choices=ALGEBRAS)
    p.add_argument("--weight", required=True, help="comma-separated coordinates")
    _add_common(p)
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("sweep", help="classify all weights up to a bound")
    p.add_argument("--algebra", required=True, choices=ALGEBRAS)
    p.add_argument("--max", type=int, default=10)
    _add_common(p)
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("branch", help="restrict a representation to a subalgebra")
    p.add_argument("--algebra", required=True, choices=_BRANCH_ALGEBRAS)
    p.add_argument("--weight", required=True)
    p.add_argument("--sub", required=True, help="e.g. a1+a2 or a2,2a1+a2")
    _add_common(p)
    p.set_defaults(run=cmd_branch)

    p = sub.add_parser("verify", help="run the bundled verification batteries")
    p.add_argument("target", choices=("lemma-bla", "kahler-lemmas"))
    p.add_argument("--p-range", default="5:21")
    _add_common(p)
    p.set_defaults(run=cmd_verify)

    return parser


def _join_negative_weight(argv: list[str]) -> list[str]:
    """``--weight -1,0`` as ``--weight=-1,0``; argparse reads ``-1,0`` as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--weight" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--weight={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = make_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_negative_weight(argv))
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else USAGE_ERROR
    try:
        return args.run(args)
    except ValueError as err:
        sys.stderr.write(f"validation error: {err}\n")
        return VALIDATION_ERROR
    except VerificationError as err:
        sys.stderr.write(f"verification failure: {err}\n")
        return VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
