"""Command-line surface: classification queries, theorem sweeps, branching
inspection, and lemma verification, with deterministic JSON or markdown
reports.

Exit codes: 0 success/agreement, 1 usage error, 2 validation error,
3 verification failure (including a failed internal exactness check).
``main`` returns the exit code; ``run``, the command itself, ends the
process with it.
"""

from __future__ import annotations

import errno
import os
import sys
import time
import types
from _json import encode_basestring_ascii as _encode  # json.encoder's C encoder

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


def _to_null(stream) -> None:
    """Point ``stream``'s file descriptor at the null device, after a write to
    it failed, so that the flush at exit cannot fail again."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _say(message: str) -> None:
    """Write an error message to standard error, or nowhere when the command
    was started without one (``2>&-`` leaves ``sys.stderr`` None) or cannot
    write to it (``2>/dev/full``): the exit code is the message's own."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(message)
            sys.stderr.flush()
        except OSError:
            _to_null(sys.stderr)


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
    return {"command": command, "params": params, "rows": rows, "agreement": agreement,
            **extra}


class Runs(tuple):
    """An array held as (value, count) runs: each value stands count times in a row."""


# json's text of each scalar type, by exact type, so a bool is never an int
_SCALARS = {str: _encode, int: int.__repr__, float: float.__repr__,
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def json_pieces(value, pad: str = "\n"):
    """The text of ``json.dumps(value, indent=2)`` nested at ``pad`` (a newline
    and the enclosing indent), or of ``json.dumps(value)`` when ``pad`` is
    empty, in pieces, each ``Runs`` as its expansion: a run's item text is made
    once and repeated in batches of at most ``_BATCH_CHARS``.  Keys are str."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        yield scalar(value)
        return
    inner, comma = (pad + "  ", ",") if pad else ("", ", ")
    if isinstance(value, Runs):
        lead = "["
        for item, count in value:
            item = inner + "".join(json_pieces(item, inner))
            per = max(1, _BATCH_CHARS // (len(item) + len(comma)))
            for done in range(0, count, per):
                yield lead + item + (comma + item) * (min(per, count - done) - 1)
                lead = comma
        yield "[]" if lead == "[" else pad + "]"
        return
    if isinstance(value, dict):
        items, ends = ((_encode(k) + ": ", v) for k, v in value.items()), "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = (("", v) for v in value), "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    text, lead = ends[0], inner  # text: what is written but not yet yielded
    for key, item in items:
        scalar = _SCALARS.get(type(item))
        if scalar is None:
            yield text + lead + key
            yield from json_pieces(item, inner)
            text = ""
        else:
            text += lead + key + scalar(item)
        lead = comma + inner
    yield text + (ends[1] if lead == inner else pad + ends[1])


def to_json(report: dict) -> str:
    """``json.dumps(report, indent=2)`` of the expanded report."""
    return "".join(json_pieces(report))


def markdown_pieces(report: dict):
    """The markdown report, in pieces: params, table cells and the trailing
    fields are the compact JSON of their values (``json_pieces(v, "")``)."""
    yield f"# tightmaps {report['command']}\n\nparams: "
    for n, (k, v) in enumerate(report["params"].items()):
        yield f"{', ' if n else ''}{k}="
        yield from json_pieces(v, "")
    if report["rows"]:
        keys = list(dict.fromkeys(k for row in report["rows"] for k in row))
        yield "\n\n| " + " | ".join(keys) + " |\n|" + "---|" * len(keys)
        for row in report["rows"]:
            yield "\n| "
            for n, k in enumerate(keys):
                yield " | " if n else ""
                yield from json_pieces(row.get(k), "")
            yield " |"
    yield "\n"
    for k, v in report.items():
        if k not in ("command", "params", "rows"):
            yield f"\n{k}: "
            yield from json_pieces(v, "")
    yield "\n"


def _emit(report: dict, fmt: str, out: str | None) -> None:
    """Write the report to ``out``, or to standard output with a final
    newline, a piece at a time in either format, so ``Runs`` are never joined."""
    pieces = json_pieces(report) if fmt == "json" else markdown_pieces(report)
    if not out:
        if sys.stdout is None:  # started with fd 1 closed (`>&-`)
            raise ValueError("cannot write report to standard output: "
                             + os.strerror(errno.EBADF))
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.write("\n")
            sys.stdout.flush()
        except OSError as err:
            _to_null(sys.stdout)
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
    """``--max``'s type in argparse: ``_strict_int``, refused with ``int``'s
    usage error."""
    try:
        return _strict_int(text)
    except ValueError:
        import argparse

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

    # the option table's choices admit only the two targets, in argparse and in _read
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


# An option is (flag, choices, integer, required, default, help): a flag is
# '--' and a name, or a positional's bare name; choices None takes any text;
# an integer option reads ASCII digits (``_strict_int``).  The choices
# "ALGEBRAS" are ``classify.ALGEBRAS``, read by ``_choices`` alone: reading
# them runs ``classify``, which ``verify`` never uses
_COMMON_OPTIONS = (
    ("--format", ("json", "md"), False, False, "md", None),
    ("--out", None, False, False, None, "write the report to a file"),
)

# each subcommand's help line, its handler, and its options in the order its
# help lists them
_SUBCOMMANDS = {
    "classify": ("classify one highest weight", cmd_classify, (
        ("--algebra", "ALGEBRAS", False, True, None, None),
        ("--weight", None, False, True, None, "comma-separated coordinates"),
    ) + _COMMON_OPTIONS),
    "sweep": ("classify all weights up to a bound", cmd_sweep, (
        ("--algebra", "ALGEBRAS", False, True, None, None),
        ("--max", None, True, False, 10, None),
    ) + _COMMON_OPTIONS),
    "branch": ("restrict a representation to a subalgebra", cmd_branch, (
        ("--algebra", _BRANCH_ALGEBRAS, False, True, None, None),
        ("--weight", None, False, True, None, None),
        ("--sub", None, False, True, None, "e.g. a1+a2 or a2,2a1+a2"),
    ) + _COMMON_OPTIONS),
    "verify": ("run the bundled verification batteries", cmd_verify, (
        ("target", ("lemma-bla", "kahler-lemmas"), False, True, None, None),
        ("--p-range", None, False, False, None,
         f"lemma-bla's range of p, a:b (default {_LEMMA_BLA_RANGE})"),
    ) + _COMMON_OPTIONS),
}


def _choices(choices):
    """An option's choices as argparse and ``_read`` take them."""
    return classify.ALGEBRAS if choices == "ALGEBRAS" else choices


def make_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the subcommand ``command`` alone, or of all of them when
    ``command`` names none (no arguments, ``--help``, an unknown command),
    built from ``_SUBCOMMANDS``.  ``main`` builds one only for a command line
    that ``_read`` does not take: argparse alone writes help, usage and
    errors, and a canonical command leaves it unimported."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            # print_usage(None) would write to standard output
            _say(f"{self.format_usage()}error: {message}\n")
            raise SystemExit(USAGE_ERROR)

    names = [command] if command in _SUBCOMMANDS else list(_SUBCOMMANDS)
    parser = _Parser(prog="tightmaps")
    # the usage line names every subcommand either way; with all of them
    # built, argparse writes that list itself, and a metavar would rename
    # the action in its errors ("argument command")
    choices = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name in names:
        summary, run, options = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for flag, choices, integer, required, default, help_text in options:
            # argparse takes no 'required' for a positional, which always is
            kwargs = {"required": required} if flag[0] == "-" else {}
            p.add_argument(flag, choices=_choices(choices), type=_max_int if integer else None,
                           default=default, help=help_text, **kwargs)
        p.set_defaults(run=run)
    return parser


def _read(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace argparse gives a canonical command line, or None for any
    other.  Canonical: a subcommand, then each of its options at most once,
    as its exact flag with the value after '=' or in the next token, which
    does not start with '-', and ``verify``'s one target; every choice and
    integer valid, and every required option given.  It writes nothing and
    raises nothing: anything else, an abbreviation or ``--help`` say, goes to
    argparse."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, run, options = _SUBCOMMANDS[argv[0]]
    rows = {flag: (_choices(choices), integer) for flag, choices, integer, *_ in options}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":  # a positional's value
            flag = next((f for f in rows if f[0] != "-" and f not in given), "")
            value = token
        elif "=" in token:
            flag, _, value = token.partition("=")
        else:
            flag, value = token, next(tokens, "-")  # a missing value reads as a dash
            if value[:1] == "-":
                return None
        if flag not in rows or flag in given:
            return None
        choices, integer = rows[flag]
        if choices is not None and value not in choices:
            return None
        if integer:
            try:
                value = _strict_int(value)
            except ValueError:
                return None
        given[flag] = value
    if any(required and flag not in given for flag, _, _, required, _, _ in options):
        return None
    values = {flag.lstrip("-").replace("-", "_"): given.get(flag, default)
              for flag, _, _, _, default, _ in options}
    return types.SimpleNamespace(command=argv[0], run=run, **values)


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
    argv = _join_dash_values(sys.argv[1:] if argv is None else argv)
    args = _read(argv)
    if args is None:
        try:
            args = make_parser(argv[0] if argv else None).parse_args(argv)
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
        _say(f"validation error: {err}\n")
        return VALIDATION_ERROR
    except VerificationError as err:
        _say(f"verification failure: {err}\n")
        return VERIFICATION_FAILURE
    # a report is written whatever its verdict; a disagreement exits 3
    return OK if report["agreement"] else VERIFICATION_FAILURE


def run() -> None:
    """The ``tightmaps`` command: ``main``, a flush of the standard streams,
    then ``os._exit`` with its code, which skips the interpreter's teardown
    (module cleanup, the collector's last passes, ``atexit`` handlers).  If a
    flush fails, ``sys.exit`` ends the process instead, and its own last flush
    reports the failure as a plain exit does."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
