#!/usr/bin/env python3
"""Benchmark csdcsim on one workload, in this process, with no threads.

    python3 perfbench/run.py --workload run-long --seed 1 --seconds 30 --trace 0

Run from the root of a csdcsim checkout; the package is imported from
its ``src`` directory.  The run

1. reproduces ``tests/data/golden_transcript.tsv`` byte for byte;
2. runs repetition 0 of workload seed ``DIGEST_SEED`` untimed: it warms
   the code paths and the heap, and the sha256 of the files it writes
   must equal the one recorded in ``digests.json``;
3. times a fixed number of repetitions of the workload through
   ``csdcsim.cli.main`` (``--seconds`` over the workload's nominal
   repetition time, at least one), checking every output they write;
4. between repetitions, spawns fresh interpreters that import
   ``csdcsim.cli`` and build the decode table, and reports the upper
   quartile of their times as ``setup_s``;
5. prints one line per metric, a ``manifest`` line and, last, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the public functions of every csdcsim module are wrapped
(see ``tracer.py``) and the metrics are the per-layer ones.  The exit
code is 0 whenever a result was printed, and non-zero, with no result,
on a usage or environment error (for instance when ``src/csdcsim`` is
missing).
"""

from __future__ import annotations

import os

# Pinned before numpy loads; spawned set-up interpreters inherit them.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import KERNELS, LAYERS, PHASES, AMPLITUDE_BYTES, Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS, Workload, rep_argv, rep_inputs, repetitions  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden_transcript.tsv"
GOLDEN_ARGV = ["--mode", "run", "--triplets", "8", "--message", "0001", "--seed", "42"]
DIGESTS = BENCH_DIR / "digests.json"
DIGEST_SEED = 0  # the workload seed whose first repetition digests.json records
WORK_DIR = BENCH_DIR / ".work"

# Timed fresh interpreters per run, after one warm-up.  They are spread
# between repetitions so that they sample the whole run.
SETUP_SPAWNS = 24
SIGMA_BOUND = 5.0  # pooled detection-rate check, in binomial standard errors
PROBE_LOOPS = 3

# Runs in a fresh interpreter: argv[1] is the src directory.
SETUP_CHILD = """\
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import csdcsim.cli
from csdcsim import bases
table_start = time.perf_counter()
bases.default_decode_table()
end = time.perf_counter()
print(json.dumps({"setup_s": end - start, "table_s": end - table_start}))
"""


class Checks:
    """Output checks; ``error_rate`` is failed / attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def import_csdcsim() -> None:
    """Imports csdcsim from the checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import csdcsim.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import csdcsim from {SRC}: {exc}")
    if not Path(csdcsim.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: csdcsim was imported from {csdcsim.cli.__file__}, not {SRC}")


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # another run still uses it


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop (best of a few); a diagnostic."""
    best = math.inf
    for _ in range(PROBE_LOOPS):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def upper_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2]


def setup_sample() -> dict[str, float]:
    """One fresh interpreter: seconds to import csdcsim.cli and build the
    decode table (``setup_s``), and the cold table build alone (``table_s``)."""
    proc = subprocess.run(
        [sys.executable, "-E", "-c", SETUP_CHILD, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def manifest(workload: Workload, seed: int) -> dict:
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload.name,
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def read_table(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def call_main(cli, argv: list[str]):
    """The CLI's exit code, or a description of the exception it raised."""
    try:
        return cli.main(argv)
    except Exception as exc:  # a crash is a failed output, not a benchmark error
        return f"{type(exc).__name__}: {exc}"


def check_golden(cli, checks: Checks, work: Path) -> None:
    transcript = work / "golden.tsv"
    rc = call_main(cli, GOLDEN_ARGV + ["--transcript", str(transcript), "--stats", str(work / "golden.stats")])
    checks.check(
        rc == 0 and transcript.exists() and transcript.read_bytes() == GOLDEN.read_bytes(),
        f"golden transcript not reproduced (exit {rc})",
    )


def check_run_rep(rc, message: str, stats_path: Path, rep: int, checks: Checks) -> int:
    """Checks one session's exit code and statistics; returns 1 session."""
    try:
        stats = dict(read_table(stats_path))
    except (OSError, ValueError) as exc:
        stats = {"unreadable": str(exc)}
    checks.check(
        rc == 0
        and stats.get("match") == "true"
        and stats.get("decoded") == message
        and stats.get("violations") == "0",
        f"rep {rep}: exit {rc}, stats {stats}",
    )
    return 1


def check_sweep_rep(
    rc, stats_path: Path, workload: Workload, oracle: dict, rep: int, checks: Checks, tally: dict,
) -> int:
    """Checks one sweep's exit code and cells, and adds each attacked
    cell's violations and checked triplets to ``tally``; returns the
    sessions the sweep attempted."""
    attempted = workload.trials * len(oracle)
    try:
        header, *rows = read_table(stats_path)
        cells = {
            attack: (int(trials), int(checked), float(rate), float(aborts), float(accuracy))
            for attack, trials, checked, rate, aborts, accuracy in rows
        }
    except (OSError, ValueError) as exc:
        checks.check(False, f"rep {rep}: exit {rc}, unreadable stats: {exc}")
        return attempted
    checks.check(
        rc == 0 and sorted(cells) == sorted(oracle)
        and all(cell[0] == workload.trials for cell in cells.values()),
        f"rep {rep}: exit {rc}, cells {cells}",
    )
    for attack, (trials, checked, rate, aborts, accuracy) in cells.items():
        if oracle.get(attack) == 0.0:
            checks.check(
                rate == 0.0 and aborts == 0.0 and accuracy == 1.0,
                f"rep {rep}: {attack} rate={rate} abort_rate={aborts} decode_accuracy={accuracy}",
            )
        elif attack in oracle:
            violations, total = tally.get(attack, (0, 0))
            # the rate is printed to 6 decimals, so the count is exact
            tally[attack] = (violations + round(rate * checked), total + checked)
    return attempted


def check_detection(tally: dict, oracle: dict, checks: Checks) -> None:
    """Each attacked cell's detection rate, pooled over the run's sweeps,
    must lie within SIGMA_BOUND binomial standard errors of the oracle."""
    for attack, (violations, checked) in sorted(tally.items()):
        p = oracle[attack]
        rate = violations / max(checked, 1)
        sigma = math.sqrt(p * (1.0 - p) / max(checked, 1))
        checks.check(
            checked > 0 and abs(rate - p) <= SIGMA_BOUND * sigma,
            f"{attack}: rate {rate:.6f} over {checked} checked triplets, "
            f"oracle {p:.6f}, sigma {sigma:.6f}",
        )


def recorded_digest(workload: Workload) -> str | None:
    """The digest recorded for repetition 0 of seed DIGEST_SEED."""
    return json.loads(DIGESTS.read_text()).get(workload.name)


def sweep_oracle(workload: Workload) -> dict[str, float]:
    """Exact per-checked-triplet detection probability of each sweep cell."""
    from csdcsim import attacks, cli

    return {
        attacks.attack_cell_label(model): attacks.detection_oracle(model, workload.parties)
        for model in cli.SWEEP_CELLS
    }


def output_digest(transcript: Path, stats: Path) -> str:
    """sha256 over the files one repetition wrote (sweeps write no transcript)."""
    digest = hashlib.sha256()
    for path in (transcript, stats):
        if path.exists():
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_rep(
    cli, workload: Workload, seed: int, rep: int, oracle: dict, work: Path,
    checks: Checks, tally: dict,
) -> tuple[float, int]:
    """Runs and checks one repetition; returns its seconds and the
    sessions it attempted.  Its files stay in ``work`` until the next."""
    transcript, stats = work / "transcript.tsv", work / "stats.tsv"
    transcript.unlink(missing_ok=True)
    stats.unlink(missing_ok=True)
    argv = rep_argv(workload, seed, rep, str(transcript), str(stats))
    start = time.perf_counter()
    rc = call_main(cli, argv)
    duration = time.perf_counter() - start
    if workload.mode == "sweep":
        return duration, check_sweep_rep(rc, stats, workload, oracle, rep, checks, tally)
    return duration, check_run_rep(rc, rep_inputs(workload, seed, rep)[1], stats, rep, checks)


def reference_rep(cli, workload: Workload, oracle: dict, work: Path, checks: Checks) -> str:
    """Runs repetition 0 of seed DIGEST_SEED, checks its outputs and
    returns the sha256 of the files it wrote."""
    tally: dict[str, tuple[int, int]] = {}
    run_rep(cli, workload, DIGEST_SEED, 0, oracle, work, checks, tally)
    check_detection(tally, oracle, checks)
    return output_digest(work / "transcript.tsv", work / "stats.tsv")


def timed_reps(
    cli, workload: Workload, seed: int, count: int, oracle: dict, work: Path,
    checks: Checks, between_reps,
) -> dict:
    """Times ``count`` repetitions, calling ``between_reps`` with the
    share of them done after each; returns their seconds and sessions."""
    durations, sessions = [], []
    tally: dict[str, tuple[int, int]] = {}  # attacked sweep cell -> (violations, checked)
    for rep in range(count):
        duration, attempted = run_rep(cli, workload, seed, rep, oracle, work, checks, tally)
        durations.append(duration)
        sessions.append(attempted)
        between_reps((rep + 1) / count)
    check_detection(tally, oracle, checks)
    return {"durations": durations, "sessions": sessions}


def slowest_rep(reps: dict) -> int:
    """Index of the timed repetition with the fewest sessions per second."""
    return min(range(len(reps["durations"])), key=lambda i: reps["sessions"][i] / reps["durations"][i])


def rates(workload: Workload, reps: dict) -> tuple[float, float]:
    """Triplets/s and sessions/s of the slowest timed repetition, the
    rates that every repetition of the run sustained.

    The host's speed drifts by up to a third within minutes.  Its slow
    state is far steadier from run to run than its fast bursts, so the
    slowest repetition varies much less between runs than the median.
    The number of repetitions is fixed per workload, so a faster program
    is not read from the minimum of more samples.
    """
    slowest = slowest_rep(reps)
    sessions = reps["sessions"][slowest] / reps["durations"][slowest]
    return sessions * workload.triplets, sessions


def end_to_end_metrics(workload: Workload, reps: dict, setup_s: float) -> dict:
    triplets_per_s, sessions_per_s = rates(workload, reps)
    return {
        "setup_s": (setup_s, "s"),
        "triplets_per_s": (triplets_per_s, "triplets/s"),
        "sessions_per_s": (sessions_per_s, "sessions/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(workload: Workload, reps: dict, tracer: Tracer, table_s: float) -> dict:
    n = max(tracer.sessions, 1)
    per = "s/session"
    m = {}
    for k in KERNELS:
        m[f"states.{k}.calls"] = (tracer.calls(f"states.{k}") / n, "calls/session")
        m[f"states.{k}.self_s"] = (tracer.self_s(f"states.{k}") / n, per)
    kernel_calls = tracer.kernel_calls()
    m["states.amps_per_call"] = (tracer.kernel_amps / kernel_calls if kernel_calls else 0.0, "amps/call")
    m["states.bytes_computed"] = (AMPLITUDE_BYTES * tracer.kernel_amps / n, "bytes/session")
    m["states.peak_qubits"] = (tracer.peak_qubits, "qubits")
    m["protocol.session_init.s"] = (tracer.inclusive_s("protocol.session_init") / n, per)
    for phase in PHASES:
        m[f"protocol.{phase}.s"] = (tracer.inclusive_s(f"protocol.{phase}") / n, per)
        m[f"protocol.{phase}.self_s"] = (tracer.self_s(f"protocol.{phase}") / n, per)
    m["protocol.records_per_triplet"] = (tracer.records / max(tracer.triplets, 1), "records/triplet")
    m["attacks.tap.calls"] = (tracer.calls("attacks.tap") / n, "calls/session")
    m["attacks.tap.self_s"] = (tracer.self_s("attacks.tap") / n, per)
    m["attacks.estimate_detection.s"] = (tracer.inclusive_s("attacks.estimate_detection") / n, per)
    m["attacks.eve_group_information.calls"] = (tracer.calls("attacks.eve_group_information") / n, "calls/session")
    m["attacks.eve_group_information.s"] = (tracer.inclusive_s("attacks.eve_group_information") / n, per)
    m["attacks.abort_ratio"] = (tracer.aborted / n, "ratio")
    m["transcript.format_transcript.s"] = (tracer.inclusive_s("transcript.format_transcript") / n, per)
    m["transcript.bytes"] = (tracer.transcript_bytes / n, "bytes/session")
    m["transcript.records"] = (tracer.transcript_records / n, "records/session")
    m["bases.default_decode_table.s"] = (table_s, "s")
    m["bases.decode.calls"] = (tracer.calls("bases.decode") / n, "calls/session")
    m["bases.decode.self_s"] = (tracer.self_s("bases.decode") / n, per)
    m["cli.main.s"] = (tracer.inclusive_s("cli.main") / n, per)
    accounted = 0.0
    for layer in LAYERS:
        layer_self = tracer.layer_self_s(layer)
        accounted += layer_self
        m[f"{layer}.self_s"] = (layer_self / n, per)
    wall = sum(reps["durations"])
    triplets_per_s, sessions_per_s = rates(workload, reps)
    m["trace.triplets_per_s"] = (triplets_per_s, "triplets/s")
    m["trace.sessions_per_s"] = (sessions_per_s, "sessions/s")
    m["trace.wall_s"] = (wall / n, per)
    m["trace.observe_s"] = (tracer.observe_s / n, per)
    m["trace.remainder_s"] = ((wall - accounted - tracer.observe_s) / n, per)
    return m


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    import_csdcsim()
    if not GOLDEN.is_file():
        raise SystemExit(f"perfbench: golden transcript {GOLDEN} is missing")
    from csdcsim import bases, cli

    work = WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    tracer = None
    setups: list[dict[str, float]] = []

    def sample_setup(done: float) -> None:
        """Keeps the set-up samples in step with the share of the run done."""
        while len(setups) < math.ceil(SETUP_SPAWNS * done):
            setups.append(setup_sample())

    try:
        probe_start = host_probe()
        check_golden(cli, checks, work)
        setup_sample()  # warms the bytecode and file caches
        bases.default_decode_table()  # the CLI builds it once per process
        oracle = sweep_oracle(workload)
        digest = reference_rep(cli, workload, oracle, work, checks)
        expected = recorded_digest(workload)
        checks.check(digest == expected, f"digest {digest} != recorded {expected}")
        if args.trace:
            tracer = Tracer()
            tracer.install()
        try:
            count = repetitions(workload, args.seconds)
            reps = timed_reps(cli, workload, args.seed, count, oracle, work, checks, sample_setup)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s = upper_quartile([s["setup_s"] for s in setups])
        table_s = upper_quartile([s["table_s"] for s in setups])
        leftovers = leftover_wrappers()
        checks.check(not leftovers, f"tracer wrappers left installed: {leftovers}")
        probe_end = host_probe()
    finally:
        remove_work_dir(work)

    if args.trace:
        metrics = per_layer_metrics(workload, reps, tracer, table_s)
    else:
        metrics = end_to_end_metrics(workload, reps, setup_s)

    info = manifest(workload, args.seed)
    info.update(
        seconds=args.seconds,
        trace=args.trace,
        reps=len(reps["durations"]),
        sessions=sum(reps["sessions"]),
        rep_s=reps["durations"],
        slowest_rep=slowest_rep(reps),
        setup_samples_s=[s["setup_s"] for s in setups],
        digest_seed=DIGEST_SEED,
        digest=digest,
        digest_expected=expected,
        host_probe_s=[probe_start, probe_end],
        checks_attempted=checks.attempted,
        checks_failed=len(checks.failures),
        error_rate=len(checks.failures) / checks.attempted,
    )
    for failure in checks.failures:
        print(f"FAILED\t{failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    print(f"error_rate\t{info['error_rate']:.6g}\tfailed/attempted")
    print("manifest\t" + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
