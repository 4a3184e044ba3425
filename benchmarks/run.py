"""Cold-process benchmark of the ``tightmaps`` classification engine.

    python3 benchmarks/run.py --workload rank2-sweep --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; the program under test is the
checkout's ``src/tightmaps``.  The harness is a closed loop with one
client: it starts one ``python -m tightmaps ... --format json`` process at
a time, waits for it, checks its report (``check.py``) and starts the next,
passing over the workload's commands (``workloads.py``) while the next
pass, as long as the last one, still ends within ``--seconds``.  Every
command runs in a fresh process, so every cache starts cold.

Times are taken against a reference.  Before each measured process, and
after the last, the harness runs a fixed stdlib-only Python program
(``REFERENCE_CODE``, which never imports ``tightmaps``) in a fresh process.
Each measured wall time is divided by the mean wall time of the two
reference processes around it and multiplied by ``REFERENCE_S``: it is the
wall time on a machine where the reference takes ``REFERENCE_S`` seconds.
On the shared 2-core machine this was written on, neighbour load made the
same sweep take from 1.0 to 2.0 times its fastest time, in phases of seconds
to minutes, in CPU time as much as in wall time; the reference slows in
step with it, so the scaled time keeps the program's own cost.  The raw
times are printed too.

``--trace 0`` prints the end-to-end metrics:

- ``wall_s``: wall time of one pass over the workload: for each command
  the median of its scaled fresh-process times in the run, summed over the
  commands;
- ``setup_s``: scaled fresh-process time to import ``tightmaps``, build
  the parser and build the A1/A2/C2 root systems, median of the probes
  made before every pass;
- ``peak_rss_mb``: the largest child max-RSS (``os.wait4``) of the run;
- ``ok_frac``: commands that passed the output check over commands
  attempted (the failed fraction is ``failed / attempted`` of the result).

``--trace 1`` alternates untraced passes with traced passes, in which every
command runs in ``trace_child.py``, for ``--seconds``.  It prints the
median of each per-layer metric over the traced passes, and
``trace.overhead_frac``: traced ``wall_s`` over untraced ``wall_s``, minus
one, both taken as above.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import check
import trace_child
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES_PER_PASS = 1
SETUP_CODE = (
    "import tightmaps.cli as cli\n"
    "from tightmaps.rootsys import build_root_system\n"
    "cli.make_parser()\n"
    "for kind in ('A1', 'A2', 'C2'):\n"
    "    build_root_system(kind)\n"
)
CHILD_TIMEOUT_S = 150.0

# The reference program: tuple-keyed dict building, integer arithmetic and a
# sort, like the program's multiplicity tables, in about 0.2 s.  Changing it
# or REFERENCE_S changes every time the benchmark reports.
REFERENCE_CODE = (
    "table = {}\n"
    "for a in range(250):\n"
    "    for b in range(250):\n"
    "        prev = table.get((a - 1, b), 1) + table.get((a, b - 1), 0)\n"
    "        table[(a, b)] = (prev * 3 + a - b) % 1000003\n"
    "total = 0\n"
    "for (a, b), v in sorted(table.items()):\n"
    "    total += v if (a + b) % 3 else -v\n"
)
REFERENCE_S = 0.2


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


def run_child(args: list[str]) -> Child:
    """Run ``python <args>`` from the checkout root and wait for it to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode, out.decode(), b"".join(errors).decode(errors="replace"),
        wall, usage.ru_maxrss / 1024.0,
    )


def tightmaps_args(argv: list[str]) -> list[str]:
    return ["-m", "tightmaps", *argv, "--format", "json"]


class Tally:
    """Commands attempted and failed, with the reasons of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, argv: list[str], problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{check.command_key(argv)}: {p}" for p in problems]
        return not problems

    @property
    def correct(self) -> bool:
        # a run that attempted nothing verified nothing
        return self.attempted > 0 and self.failed == 0 and not self.problems


class ReferenceClock:
    """Runs the reference program around every measured process."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.references: list[float] = []
        self._last = self._reference()

    def _reference(self) -> float:
        ref = run_child(["-c", REFERENCE_CODE])
        if ref.returncode != 0:
            self.tally.problems.append(f"reference program failed: {ref.stderr.strip()}")
        self.references.append(ref.wall_s)
        return ref.wall_s

    def run(self, args: list[str]) -> tuple[Child, float]:
        """Run ``python <args>``: the child, and the factor that scales its
        wall time to the reference speed."""
        child = run_child(args)
        before, self._last = self._last, self._reference()
        return child, REFERENCE_S / ((before + self._last) / 2)


def untraced_pass(cmds: list[list[str]], digests: dict, tally: Tally,
                  clock: ReferenceClock) -> tuple[list[float], list[float], float, dict]:
    """One pass over the workload: (scaled and raw wall s per command,
    peak RSS MB, passing outputs)."""
    walls, raw, rss, passed = [], [], 0.0, {}
    for argv in cmds:
        child, scale = clock.run(tightmaps_args(argv))
        walls.append(child.wall_s * scale)
        raw.append(child.wall_s)
        rss = max(rss, child.maxrss_mb)
        problems = check.check_output(argv, child.returncode, child.stdout, digests)
        if tally.record(argv, problems):
            passed[check.command_key(argv)] = child.stdout
    return walls, raw, rss, passed


def per_command_median(passes: list[list[float]]) -> float:
    """Each command's median time over the passes, summed over the commands."""
    return sum(statistics.median(column) for column in zip(*passes))


def self_check(cmds: list[list[str]], passed: dict, digests: dict) -> list[str]:
    """The checker must reject tampered reports and an empty workload."""
    sweep = next(argv for argv in cmds if argv[0] == "sweep")
    text = passed.get(check.command_key(sweep))
    problems = [] if text is None else check.self_check(sweep, text, digests)
    if Tally().correct:
        problems.append("an empty workload reported success")
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(cmds: list[list[str]], seconds: float, digests: dict, tally: Tally) -> dict:
    """End-to-end metrics of a closed loop over ``cmds`` for ``seconds``."""
    clock = ReferenceClock(tally)
    setup, passes, raw_passes, rss, first_passed = [], [], [], 0.0, None
    deadline, last_pass_s = time.perf_counter() + seconds, 0.0
    while not passes or time.perf_counter() + last_pass_s < deadline:
        started = time.perf_counter()
        for _ in range(SETUP_PROBES_PER_PASS):
            probe, scale = clock.run(["-c", SETUP_CODE])
            if probe.returncode != 0:
                tally.problems.append(f"setup probe failed: {probe.stderr.strip()}")
            setup.append(probe.wall_s * scale)
        walls, raw, peak, passed = untraced_pass(cmds, digests, tally, clock)
        passes.append(walls)
        raw_passes.append(raw)
        rss = max(rss, peak)
        first_passed = passed if first_passed is None else first_passed
        last_pass_s = time.perf_counter() - started
    tally.problems += self_check(cmds, first_passed, digests)
    pass_walls = [sum(walls) for walls in passes]
    raw_walls = [sum(raw) for raw in raw_passes]
    refs = clock.references
    print(f"passes: {len(passes)} (too few for a tail percentile); scaled pass wall_s: "
          f"{[round(w, 3) for w in pass_walls]}")
    print(f"raw pass wall_s: median {statistics.median(raw_walls):.3f}, "
          f"min {min(raw_walls):.3f}, max {max(raw_walls):.3f}")
    print(f"reference runs: {len(refs)}; raw s median {statistics.median(refs):.4f}, "
          f"min {min(refs):.4f}, max {max(refs):.4f}")
    print(f"setup probes: {len(setup)}; scaled median {statistics.median(setup):.4f} s")
    return {
        "wall_s": metric(per_command_median(passes), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "ok_frac": metric((tally.attempted - tally.failed) / max(tally.attempted, 1), "ratio"),
    }


def traced_pass(cmds: list[list[str]], passed: dict, tally: Tally,
                clock: ReferenceClock) -> tuple[list[float], dict]:
    """One pass with every command in ``trace_child.py``: (scaled wall s per
    command, metrics)."""
    calls, self_ms, counts, table, sweep = Counter(), Counter(), Counter(), Counter(), Counter()
    walls, bytes_out = [], 0
    for argv in cmds:
        child, scale = clock.run([str(BENCH_DIR / "trace_child.py"), *argv])
        try:
            result = json.loads(child.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tally.record(argv, [f"traced run failed: {child.stderr.strip()[-500:]}"])
            walls.append(child.wall_s * scale)
            continue
        problems = list(result["problems"])
        if not result["restored"]:
            problems.append("wrapped functions were not restored")
        untraced = passed.get(check.command_key(argv))
        if untraced is None or check.report_digest(json.loads(untraced)) != result["digest"]:
            problems.append("traced digest differs from the untraced run's")
        if result.get("sweep", {}).get("repeat_misses", 0) != result["table"]["misses"]:
            problems.append("cold repetition after cache_clear() did not rebuild every table")
        tally.record(argv, problems)
        # the child keeps running after its cold run; leave that part out
        walls.append((child.wall_s - result["post_cold_s"]) * scale)
        bytes_out += result["bytes_out"]
        calls.update(result["layers"]["calls"])
        self_ms.update(result["layers"]["self_ms"])
        counts.update(result["layers"]["counts"])
        table.update(result["table"])
        sweep.update(result.get("sweep", {}))

    out = {}
    for name in trace_child.SPAN_NAMES:
        out[f"{name}.calls"] = metric(calls[name], "count")
        out[f"{name}.self_ms"] = metric(float(self_ms[name]), "ms")
    lookups = table["hits"] + table["misses"]
    replays = counts["classify.replay.attempted"]
    out.update({
        "rootsys.weights_returned": metric(counts["rootsys.weights_returned"], "count"),
        "rootsys.table.hits": metric(table["hits"], "count"),
        "rootsys.table.misses": metric(table["misses"], "count"),
        "rootsys.table.hit_ratio": metric(table["hits"] / lookups if lookups else 0.0, "ratio"),
        "rootsys.table.warm_hits": metric(sweep["warm_hits"], "count"),
        "rootsys.table.warm_misses": metric(sweep["warm_misses"], "count"),
        "branching.factors": metric(counts["branching.factors"], "count"),
        "su11.pairing.terms": metric(counts["su11.pairing.terms"], "count"),
        "classify.replay.ok_ratio": metric(
            counts["classify.replay.ok"] / replays if replays else 0.0, "ratio"),
        "classify.sweep.cold_ms": metric(sweep["cold_ms"], "ms"),
        "classify.sweep.warm_ms": metric(sweep["warm_ms"], "ms"),
        "classify.sweep.cold_repeat_ms": metric(sweep["cold_repeat_ms"], "ms"),
        "cli.bytes_out": metric(bytes_out, "bytes"),
    })
    return walls, out


def trace(cmds: list[list[str]], seconds: float, digests: dict, tally: Tally) -> dict:
    """Alternate untraced and traced passes for ``seconds``; per-layer medians."""
    clock = ReferenceClock(tally)
    untraced_walls, traced_walls, passes, first_passed = [], [], [], None
    deadline, last_pair_s = time.perf_counter() + seconds, 0.0
    while not passes or time.perf_counter() + last_pair_s < deadline:
        started = time.perf_counter()
        walls, _, _, passed = untraced_pass(cmds, digests, tally, clock)
        untraced_walls.append(walls)
        first_passed = passed if first_passed is None else first_passed
        walls, metrics = traced_pass(cmds, passed, tally, clock)
        traced_walls.append(walls)
        passes.append(metrics)
        last_pair_s = time.perf_counter() - started
    tally.problems += self_check(cmds, first_passed, digests)
    out = {
        name: metric(statistics.median(p[name]["value"] for p in passes), m["unit"])
        for name, m in passes[0].items()
    }
    untraced, traced = per_command_median(untraced_walls), per_command_median(traced_walls)
    out["trace.overhead_frac"] = metric((traced - untraced) / untraced, "ratio")
    print(f"pairs: {len(passes)}; untraced wall_s: {untraced:.3f}; traced wall_s: {traced:.3f}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tightmaps" / "__init__.py").is_file():
        sys.stderr.write(f"no program to measure: {SRC / 'tightmaps'} is missing\n")
        return 2
    digests = check.load_digests()
    cmds = workloads.commands(args.workload, args.seed)
    print(f"workload {args.workload} (seed {args.seed}): "
          + "; ".join(check.command_key(c) for c in cmds))
    tally = Tally()
    if args.trace:
        metrics = trace(cmds, args.seconds, digests, tally)
    else:
        metrics = measure(cmds, args.seconds, digests, tally)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"output check: {'PASS' if tally.correct else 'FAIL'} "
          f"({tally.failed} of {tally.attempted} commands failed)")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
