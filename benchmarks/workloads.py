"""Benchmark workloads: fixed lists of ``tightmaps`` commands.

Each command runs in its own fresh ``python -m tightmaps ... --format json``
process, so every ``lru_cache`` in the program starts cold.  Every seed does
the same amount of work; the seed only picks the two su(1,1) degrees of
``rank1-models``.

The sweep bounds keep each command near one second on a 2-core machine.
``run.py`` scales each wall time by a reference program run just before and
just after it; that only cancels neighbour load that stays the same for the
length of the command, which on a shared machine holds for about a second
but not for several.
"""

from __future__ import annotations

import random

# Degrees for the large su(1,1) models.  The recorded digests cover exactly
# these ranges, so a seed can never pick a degree without a reference.
SU11_ODD_DEGREES = tuple(range(50001, 50041, 2))
SU11_EVEN_DEGREES = tuple(range(50000, 50040, 2))

# Why each workload was chosen is stated in BENCHMARK.json and README.md.
WORKLOADS = ("rank2-sweep", "sp4su11-sweep", "rank1-models")


def commands(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one pass over ``workload``."""
    if workload == "rank2-sweep":
        return [
            ["sweep", "--algebra", "sp4", "--max", "8"],
            ["sweep", "--algebra", "su21", "--max", "9"],
        ]
    if workload == "sp4su11-sweep":
        return [["sweep", "--algebra", "sp4su11", "--max", "6"]]
    if workload == "rank1-models":
        rng = random.Random(seed)
        odd = rng.choice(SU11_ODD_DEGREES)
        even = rng.choice(SU11_EVEN_DEGREES)
        return [
            ["sweep", "--algebra", "su11xsu11", "--max", "16"],
            ["classify", "--algebra", "su11", "--weight", str(odd)],
            ["classify", "--algebra", "su11", "--weight", str(even)],
            ["verify", "kahler-lemmas"],
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def all_commands() -> list[list[str]]:
    """Every command any seed can produce, for recording reference digests."""
    fixed = commands("rank2-sweep", 0) + commands("sp4su11-sweep", 0)
    rank1 = commands("rank1-models", 0)
    su11 = [
        ["classify", "--algebra", "su11", "--weight", str(k)]
        for k in sorted(SU11_ODD_DEGREES + SU11_EVEN_DEGREES)
    ]
    return fixed + [rank1[0]] + su11 + [rank1[3]]
