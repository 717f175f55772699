"""Seeded inputs for the csdcsim benchmark workloads.

A workload is a sequence of repetitions.  Repetition ``rep`` under
workload seed ``seed`` is one ``csdcsim.cli.main`` argv generated from
(workload, seed, rep) alone, so the same seed gives the same inputs no
matter how many repetitions a run makes.  csdcsim sees only the argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The CLI default; the benchmark never passes --check-fraction.
CHECK_FRACTION = 0.5
SESSION_SEED_LIMIT = 2**64  # --seed must fit in an unsigned 64-bit integer


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "run" (one session per repetition) or "sweep"
    triplets: int
    parties: int
    trials: int  # sessions per sweep cell; 0 in run mode
    # Seconds one repetition takes on the reference host (a 2-CPU Xeon VM)
    # at its slow state, with the code the benchmark was defined on.  It
    # fixes how many repetitions a run makes, so a faster or slower
    # program is timed over the same number of repetitions.
    rep_s: float


# Why each workload exists: perfbench/NOTES.md and BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("run-long", "run", 4096, 3, 0, 1.25),
        Workload("run-wide", "run", 512, 12, 0, 0.75),
        Workload("sweep-attacks", "sweep", 16, 3, 100, 2.5),
    )
}


def repetitions(workload: Workload, seconds: float) -> int:
    """Timed repetitions in a run of ``seconds``; at least one."""
    return max(1, round(seconds / workload.rep_s))


def capacity_bits(triplets: int) -> int:
    """Message length a session of this size must carry exactly."""
    groups = triplets // 2
    return 2 * (groups - math.ceil(CHECK_FRACTION * groups))


def rep_inputs(workload: Workload, seed: int, rep: int) -> tuple[int, str | None]:
    """Session (or sweep) seed and, in run mode, the message bits."""
    rng = random.Random(f"csdcsim-bench:{workload.name}:{seed}:{rep}")
    session_seed = rng.randrange(SESSION_SEED_LIMIT)
    if workload.mode == "sweep":
        return session_seed, None
    bits = rng.getrandbits(capacity_bits(workload.triplets))
    return session_seed, format(bits, f"0{capacity_bits(workload.triplets)}b")


def rep_argv(
    workload: Workload, seed: int, rep: int, transcript_path: str, stats_path: str
) -> list[str]:
    """The CLI arguments of one repetition; outputs go to the given files."""
    session_seed, message = rep_inputs(workload, seed, rep)
    argv = [
        "--mode", workload.mode,
        "--triplets", str(workload.triplets),
        "--parties", str(workload.parties),
        "--seed", str(session_seed),
        "--stats", stats_path,
    ]
    if workload.mode == "sweep":
        return argv + ["--trials", str(workload.trials)]
    return argv + ["--message", message, "--transcript", transcript_path]
