"""Command-line surface: classification queries, theorem sweeps, branching
inspection, and lemma verification, with deterministic JSON or markdown
reports.

Exit codes: 0 success/agreement, 1 usage error, 2 validation error,
3 verification failure (including a failed internal exactness check).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
import time

# the layers are read as modules, so a command runs only those it uses
from . import branching, classify, kahler, rootsys, su11
from .errors import VerificationError

OK = 0
USAGE_ERROR = 1
VALIDATION_ERROR = 2
VERIFICATION_FAILURE = 3

_BRANCH_ALGEBRAS = ("sp4", "su11", "su21")
_LEMMA_BLA_RANGE = "5:21"
_BATCH_CHARS = 1 << 18  # the most text one write of a repeated run holds


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def verdict_row(verdict: classify.TightnessVerdict) -> dict:
    return {
        "weight": list(verdict.weight),
        "tight": verdict.tight,
        "holomorphic": verdict.holomorphic,
        "witness": verdict.witness.wire(),
    }


def build_report(command: str, params: dict, rows: list, agreement: bool,
                 **extra) -> dict:
    """A command's report; ``main`` appends ``timing_ms`` and writes it."""
    return {
        "command": command,
        "params": params,
        "rows": rows,
        "agreement": agreement,
        **extra,
    }


class Runs:
    """An array held as (value, count) runs: each value stands count times in a row."""

    def __init__(self, pairs):
        self.pairs = tuple(pairs)

    def expand(self) -> list:
        return [value for value, count in self.pairs for _ in range(count)]


def _run_pieces(pairs, indent: str):
    """A ``Runs`` array's items, comma-separated, each on a line of its own
    at ``indent``; each value's text is made once and repeated in batches."""
    lead = ""  # no comma before the first item
    for value, count in pairs:
        item = indent + json.dumps(value, indent=2).replace("\n", indent)
        per = max(1, _BATCH_CHARS // (len(item) + 1))
        while count > 0:
            n = min(count, per)
            yield lead + item + ("," + item) * (n - 1)
            lead, count = ",", count - n


def json_pieces(report: dict):
    """The text of ``json.dumps(report, indent=2)`` of the expanded report, in
    pieces: a ``Runs`` array is written a run at a time, so no piece holds
    more than one batch of it."""
    runs: list[Runs] = []

    def stub(value: Runs) -> str:  # a placeholder string, written as "\u0000<n>"
        runs.append(value)
        return f"\0{len(runs) - 1}"

    text = json.dumps(report, indent=2, default=stub)
    done, close = 0, ""
    # groups: the line's indent, the text before the stub, its index
    for match in re.finditer(r'(?m)^( *)(.*)"\\u0000(\d+)"', text) if runs else ():
        yield close + text[done:match.end(2)] + "["
        pairs = runs[int(match[3])].pairs
        yield from _run_pieces(pairs, "\n" + " " * (len(match[1]) + 2))
        close = "\n" + match[1] + "]" if any(count > 0 for _, count in pairs) else "]"
        done = match.end()
    yield close + text[done:]


def to_json(report: dict) -> str:
    """``json.dumps(report, indent=2)`` of the expanded report."""
    return "".join(json_pieces(report))


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
            cells = [json.dumps(row.get(k), default=Runs.expand) for k in keys]
            lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    for k, v in report.items():
        if k in ("command", "params", "rows"):
            continue
        lines.append(f"{k}: {json.dumps(v)}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str, out: str | None) -> None:
    """Write the report to ``out``, or to standard output with a final
    newline, a piece at a time: a JSON report's ``Runs`` are never joined."""
    pieces = json_pieces(report) if fmt == "json" else (to_markdown(report),)
    if not out:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.write("\n")
            sys.stdout.flush()
        except OSError as err:
            # fd 1 goes to the null device, so the flush at exit cannot fail again
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise ValueError(f"cannot write report to standard output: {err.strerror}") from err
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    except OSError as err:
        raise ValueError(f"cannot write report to {out}: {err.strerror}") from err


def _check_out(out: str) -> None:
    """Refuse an ``--out`` path that cannot be written before the command
    runs, creating nothing; ``_emit`` still reports a failed write."""
    folder = os.path.dirname(out) or "."
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(out if os.path.exists(out) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write report to {out}: {os.strerror(code)}")


def _strict_int(text: str) -> int:
    """ASCII digits with an optional leading '-'; ``int`` alone would also
    read '+3', ' 3', '1_0' and digits of other scripts."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _max_int(text: str) -> int:
    """``--max``'s type: ``_strict_int``, refused with ``int``'s usage error."""
    try:
        return _strict_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(_strict_int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse weight {text!r}; expected k[,l[,m]]")


def _parse_p_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (_strict_int(part) for part in text.split(":"))
    except ValueError:
        raise ValueError(f"cannot parse range {text!r}; expected a:b")
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def cmd_classify(args) -> dict:
    coords = _parse_weight(args.weight)
    return build_report(
        "classify",
        {"algebra": args.algebra, "weight": list(coords)},
        [verdict_row(classify.cross_check(args.algebra, coords))],
        True,  # cross_check raises on a disagreement or a failed replay
    )


def cmd_sweep(args) -> dict:
    result = classify.sweep(args.algebra, args.max)
    return build_report(
        "sweep",
        {"algebra": args.algebra, "max": args.max},
        [verdict_row(v) for v in result["rows"]],
        True,  # sweep raises on a disagreement or a failed replay
        counts=result["counts"],
    )


def cmd_branch(args) -> dict:
    coords = classify.validate_weight(args.algebra, _parse_weight(args.weight))
    system = classify.root_system_for(args.algebra)
    top = rootsys.weight(system, coords)
    sub = branching.make_subalgebra(system, branching.parse_subalgebra_selector(system, args.sub))
    # each distinct factor's signature (p, q) is read once, and its wire value
    # is written once per copy; rank-one factors are written as bare ints
    wire = [(f[0] if sub.rank == 1 else list(f), list(su11.signature(*f)), n)
            for f, n in branching.restrict_rep(top, sub).factors]
    found = branching.even_witness(top, sub)
    witness = None if found is None else {"weight": list(found[0]), "evaluation": found[1]}
    row = {
        "weight": list(coords),
        "subalgebra": args.sub,
        "target": "x".join(["sl2"] * sub.rank),
        "factors": Runs((value, n) for value, _, n in wire),
        "signatures": Runs((sig, n) for _, sig, n in wire),
        "even_witness": witness,
    }
    return build_report(
        "branch",
        {"algebra": args.algebra, "weight": list(coords), "sub": args.sub},
        [row],
        True,
    )


def cmd_verify(args) -> dict:
    from . import lemmas  # the batteries compile only for the command that runs them

    # argparse's choices admit only the two targets
    if args.target == "kahler-lemmas":
        if args.p_range is not None:
            raise ValueError("--p-range applies to lemma-bla only, not to kahler-lemmas")
        rows, ok = lemmas.kahler_lemma_rows(kahler.run_lemma_fixtures())
        return build_report("verify", {"target": "kahler-lemmas"}, rows, ok)
    text = _LEMMA_BLA_RANGE if args.p_range is None else args.p_range
    lo, hi = _parse_p_range(text)
    if lo < 4:
        # odd p >= 5 are checked and even p reduce to them, but nothing here
        # checks p <= 3, so a report over them could not claim agreement
        raise ValueError(
            f"p-range {text} includes p < 4, which lemma-bla does not check: "
            "p = 1, 2 are not Hermitian and p = 3 is left to the unitary classification"
        )
    if (lo | 1) > hi:
        # even p only reduce to odd p + 1, so a range with no odd p checks nothing
        raise ValueError(f"p-range {text} has no odd p >= 5 for lemma-bla to check")
    rows, ok = lemmas.lemma_bla_rows(lo, hi)
    return build_report("verify", {"target": "lemma-bla", "p_range": [lo, hi]}, rows, ok)


def _add_common(parser) -> None:
    parser.add_argument("--format", choices=("json", "md"), default="md")
    parser.add_argument("--out", default=None, help="write the report to a file")


def _classify_arguments(p) -> None:
    p.add_argument("--algebra", required=True, choices=classify.ALGEBRAS)
    p.add_argument("--weight", required=True, help="comma-separated coordinates")


def _sweep_arguments(p) -> None:
    p.add_argument("--algebra", required=True, choices=classify.ALGEBRAS)
    p.add_argument("--max", type=_max_int, default=10)


def _branch_arguments(p) -> None:
    p.add_argument("--algebra", required=True, choices=_BRANCH_ALGEBRAS)
    p.add_argument("--weight", required=True)
    p.add_argument("--sub", required=True, help="e.g. a1+a2 or a2,2a1+a2")


def _verify_arguments(p) -> None:
    p.add_argument("target", choices=("lemma-bla", "kahler-lemmas"))
    p.add_argument("--p-range", help=f"lemma-bla's range of p, a:b (default {_LEMMA_BLA_RANGE})")


# each subcommand's help line, the function adding its own arguments, and its handler
_SUBCOMMANDS = {
    "classify": ("classify one highest weight", _classify_arguments, cmd_classify),
    "sweep": ("classify all weights up to a bound", _sweep_arguments, cmd_sweep),
    "branch": ("restrict a representation to a subalgebra", _branch_arguments, cmd_branch),
    "verify": ("run the bundled verification batteries", _verify_arguments, cmd_verify),
}


def make_parser(command: str | None = None) -> _Parser:
    """The parser of the subcommand ``command`` alone, or of all of them when
    ``command`` names none (no arguments, ``--help``, an unknown command).
    A command reads only its own subparser, and building only that one
    leaves the other layers unread (``classify.ALGEBRAS`` runs ``classify``)."""
    names = [command] if command in _SUBCOMMANDS else list(_SUBCOMMANDS)
    parser = _Parser(prog="tightmaps")
    # the usage line names every subcommand either way; with all of them
    # built, argparse writes that list itself, and a metavar would rename
    # the action in its errors ("argument command")
    choices = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name in names:
        help_text, add_arguments, run = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        _add_common(p)
        p.set_defaults(run=run)
    return parser


def _join_dash_values(argv: list[str]) -> list[str]:
    """Join ``--weight -1,0``, ``--p-range -5:7`` or ``--sub -a1`` (any selector
    after one '-') by ``=``: argparse reads each value as an option."""
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else None
        if arg[:1] == "-" and (flag in ("--weight", "--p-range") and arg[1:2].isdigit()
                               or flag == "--sub" and arg[1:2] != "-"):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = make_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(_join_dash_values(argv))
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else USAGE_ERROR
    try:
        if args.out:
            _check_out(args.out)
        started = time.perf_counter()
        report = args.run(args)
        report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        _emit(report, args.format, args.out)
    except ValueError as err:
        sys.stderr.write(f"validation error: {err}\n")
        return VALIDATION_ERROR
    except VerificationError as err:
        sys.stderr.write(f"verification failure: {err}\n")
        return VERIFICATION_FAILURE
    # a report is written whatever its verdict; a disagreement exits 3
    return OK if report["agreement"] else VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
