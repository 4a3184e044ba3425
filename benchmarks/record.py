"""Record the benchmark's reference data.

    python3 benchmarks/record.py digests    # rewrite digests.json
    python3 benchmarks/record.py baseline   # rewrite BENCH_seed.json

``digests`` runs every command a seed can produce, once, in fresh
processes, and stores the sha256 of each report without ``timing_ms``.  It
refuses to record a report that fails the PAPER.md checks.  The committed
``digests.json`` was taken from the seed program and must not be rewritten
by a change that claims the output is unchanged.

``baseline`` runs ``run.py`` ten times per workload with seeds 1 to 10 and
once per workload with ``--trace 1``, and stores every result with the
median and the quartile spread of each end-to-end metric.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import check
import run
import workloads

BASELINE_PATH = run.BENCH_DIR / "BENCH_seed.json"


def record_digests() -> int:
    digests = {}
    for argv in workloads.all_commands():
        child = run.run_child(run.tightmaps_args(argv))
        if child.returncode != 0:
            sys.stderr.write(f"{check.command_key(argv)}: exit code {child.returncode}\n")
            return 1
        report = json.loads(child.stdout)
        problems = check.check_semantics(argv, report)
        if problems:
            sys.stderr.write(f"{check.command_key(argv)}: {problems}\n")
            return 1
        digests[check.command_key(argv)] = check.report_digest(report)
        print(f"{child.wall_s:7.3f} s  {check.command_key(argv)}", flush=True)
    with open(check.DIGESTS_PATH, "w") as fh:
        json.dump({
            "source": "taken from the seed program (the tightmaps code the benchmark "
                      "was written against)",
            "digest": "sha256 of json.dumps(report without timing_ms, indent=2)",
            "digests": digests,
        }, fh, indent=2)
        fh.write("\n")
    return 0


def _bench(workload: str, seed: int, seconds: int, traced: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def _git_sha() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def record_baseline(seeds: range = range(1, 11)) -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((run.SRC / "tightmaps").glob("*.py")))
    result = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(_bench(workload, seed, seconds, 0))
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        traced = _bench(workload, seeds[0], seconds, 1)
        result["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "end_to_end": {
                m["name"]: _spread([r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "runs": runs,
            "traced": traced,
        }
    with open(BASELINE_PATH, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["digests"]:
        sys.exit(record_digests())
    if sys.argv[1:] == ["baseline"]:
        sys.exit(record_baseline())
    sys.stderr.write(__doc__)
    sys.exit(1)
