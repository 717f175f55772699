"""Byte-level pins of CLI output beyond the golden transcript.

The golden file covers one honest T=8, P=3 session.  These digests also
pin multi-controller rounds, both attack taps (``collapse_qubit`` and
``apply_cnot``), the ancilla read-outs and aborted sessions, plus one
sweep, a seeded draw of a few hundred small run configurations, and two
honest T=4096 runs whose sequence numbers reach five digits.
Each digest is the sha256 of the transcript bytes followed by
the stats bytes (the stats bytes alone for the sweep); a change to any
kernel that shifts one sampled outcome or one RNG draw changes it.
Default ``--mode verify`` stdout, and verify's at twelve parties and
4096 triplets, are pinned too, with each residual
masked: residuals go through BLAS, so their last digits may differ by
platform.
"""

import contextlib
import hashlib
import io
import re

import numpy as np
import pytest

from csdcsim import cli
from csdcsim.protocol import ProtocolConfig, Session, session_capacity
from csdcsim.transcript import format_transcript
from transcript_reference import reference_records

WIDE_MESSAGE = "10110010" * 256  # fills the capacity of 4096 triplets

RUN_CASES = {
    "p5-none": (
        ["--triplets", "16", "--parties", "5", "--message", "10110010", "--seed", "3"],
        cli.EXIT_OK,
        "2ce41162c3e5e956058e17c0dab2c13e42b9229b4008fc991526c82b6d839aef",
    ),
    "p4-intercept-resend-completed": (
        ["--triplets", "8", "--parties", "4", "--message", "0110", "--seed", "5",
         "--attack", "intercept-resend", "--attack-basis", "random"],
        cli.EXIT_OK,
        "b26d3c13de17ddfb2e4d9ce6ae3e00c1dfb381bdf4719419845435f81ed49513",
    ),
    "p4-intercept-resend-aborted": (
        ["--triplets", "8", "--parties", "4", "--message", "0110", "--seed", "1",
         "--attack", "intercept-resend", "--attack-basis", "random"],
        cli.EXIT_EAVESDROPPER,
        "2d4cf43504a9b89e01f8f0abed59969fd3c1c1b6ff15ff30f144629490cf747c",
    ),
    "p3-entangle-measure-completed": (
        ["--triplets", "8", "--message", "0110", "--seed", "2", "--attack", "entangle-measure"],
        cli.EXIT_OK,
        "7bcdbbb9dd4650bf88cd392192fb79a7b534c5e56fa9853faae87605ef72b297",
    ),
    "p3-entangle-measure-aborted": (
        ["--triplets", "8", "--message", "0110", "--seed", "1", "--attack", "entangle-measure"],
        cli.EXIT_EAVESDROPPER,
        "4dd138cd54e3766bd2d8962c641a696ef437ed4ff0bcaae8d6a4e177c8ba023a",
    ),
    # 13,321 lines
    "p3-none-wide": (
        ["--triplets", "4096", "--message", WIDE_MESSAGE, "--seed", "40963"],
        cli.EXIT_OK,
        "23ece7fb50ba050a73326162ad7843ac8562ca525e3db45e6e4ecb9abbe08257",
    ),
    # 50,212 lines
    "p12-none-wide": (
        ["--triplets", "4096", "--parties", "12", "--message", WIDE_MESSAGE, "--seed", "409612"],
        cli.EXIT_OK,
        "8a696c70015acea534970f03d807c584cdb9940c51e892a903010050d0eecbbc",
    ),
}

SWEEP_ARGV = ["--mode", "sweep", "--parties", "4", "--trials", "20"]
SWEEP_DIGEST = "7e08e9767cce112c1cfb2fe85f1d382d252fbd2f0a76da1630d8c2cb3eae4462"


def sha256(*paths):
    return hashlib.sha256(b"".join(path.read_bytes() for path in paths)).hexdigest()


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_outputs_match_their_pinned_digests(tmp_path, case):
    argv, code, digest = RUN_CASES[case]
    transcript, stats = tmp_path / "transcript.tsv", tmp_path / "stats.tsv"
    got = cli.main(
        ["--mode", "run", *argv, "--transcript", str(transcript), "--stats", str(stats)]
    )
    assert got == code
    assert sha256(transcript, stats) == digest


def test_wide_transcripts_match_the_reference_records():
    # the two wide pinned runs, against records emitted one at a time
    for parties, seed, lines in ((3, 40963, 13_321), (12, 409612, 50_212)):
        cfg = ProtocolConfig(
            triplet_count=4096, message_bits=WIDE_MESSAGE, party_count=parties, seed=seed
        )
        session = Session(cfg)
        got = session.run().transcript.split("\n")
        want = format_transcript(reference_records(session, 0)).split("\n")
        assert len(got) == len(want) == lines + 1
        # line by line: pytest's diff of two texts this long would take minutes
        assert next(((g, w) for g, w in zip(got, want) if g != w), None) is None, parties


def test_sweep_output_matches_its_pinned_digest(tmp_path):
    stats = tmp_path / "stats.tsv"
    assert cli.main([*SWEEP_ARGV, "--stats", str(stats)]) == cli.EXIT_OK
    assert sha256(stats) == SWEEP_DIGEST


# Sweeps at the first seed of two entropy words and at the largest seed.
BOUNDARY_SWEEP_DIGESTS = {
    "4294967296": "395dd12e4430aa8831ee98e5ccfc962b5965c2d909adc6b6ab0efba9d0336a90",
    "18446744073709551615": "2ac965ab2be690f8e0a6666830e234d23620b0b08cdaf6a99d1ade36107a7dc1",
}


@pytest.mark.parametrize("seed", sorted(BOUNDARY_SWEEP_DIGESTS))
def test_boundary_seed_sweeps_match_their_pinned_digests(tmp_path, seed):
    stats = tmp_path / "stats.tsv"
    argv = ["--mode", "sweep", "--triplets", "8", "--trials", "20", "--seed", seed]
    assert cli.main([*argv, "--stats", str(stats)]) == cli.EXIT_OK
    assert sha256(stats) == BOUNDARY_SWEEP_DIGESTS[seed]


# Stacked sweeps at twelve parties: two chunk sessions of T=16 trials, and
# T=512 trials, so each read-out folds the branches of many trials at once.
WIDE_SWEEP_DIGESTS = {
    "--triplets 16 --trials 1100":
        "82259e6b9d4c0c155dfe1df107b61af35e130774783abb5fff9927d4ebe00d8d",
    "--triplets 512 --trials 20":
        "f70c30ac87a1f21822861175f381ab879fd504f1f6dbb2d4cd0861948a4617d9",
}


@pytest.mark.parametrize("args", sorted(WIDE_SWEEP_DIGESTS))
def test_wide_stacked_sweeps_match_their_pinned_digests(tmp_path, args):
    stats = tmp_path / "stats.tsv"
    argv = ["--mode", "sweep", "--parties", "12", *args.split()]
    assert cli.main([*argv, "--stats", str(stats)]) == cli.EXIT_OK
    assert sha256(stats) == WIDE_SWEEP_DIGESTS[args]


ATTACK_ARGV = (
    [],
    ["--attack", "intercept-resend", "--attack-basis", "random"],
    ["--attack", "intercept-resend", "--attack-basis", "z"],
    ["--attack", "intercept-resend", "--attack-basis", "x"],
    ["--attack", "entangle-measure"],
)
DRAWN_CONFIGS = 300
DRAWN_DIGEST = "58c7cd57a39b8bf7f21232b73412b454020e9bdb0cf4e5da8c5950217ac8b4bd"


def drawn_run_argvs():
    """A fixed draw of --mode run argvs: T <= 64, P 3-12, every attack cell."""
    rng = np.random.default_rng(20261018)
    argvs = []
    while len(argvs) < DRAWN_CONFIGS:
        triplets = 2 * int(rng.integers(2, 33))
        fraction = str(rng.choice(["0.25", "0.5", "0.75"]))
        parties = int(rng.integers(3, 13))
        seed = int(rng.integers(0, 2**63))
        capacity = session_capacity(triplets, float(fraction))
        if capacity == 0:
            continue
        message = "".join(map(str, rng.integers(0, 2, size=capacity)))
        argvs.append([
            "--mode", "run", "--triplets", str(triplets), "--parties", str(parties),
            "--check-fraction", fraction, "--message", message, "--seed", str(seed),
            *ATTACK_ARGV[len(argvs) % len(ATTACK_ARGV)],
            "--transcript", "-", "--stats", "-",
        ])
    return argvs


def test_drawn_run_configurations_match_their_pinned_digest():
    digest = hashlib.sha256()
    codes = set()
    for argv in drawn_run_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.add(cli.main(argv))
        digest.update(out.getvalue().encode("utf-8"))
    # the draw covers completed and aborted sessions
    assert codes == {cli.EXIT_OK, cli.EXIT_EAVESDROPPER}
    assert digest.hexdigest() == DRAWN_DIGEST


DRAWN_SWEEPS = 40
SWEEP_DRAW_DIGEST = "1d4965eff3d666cb5a484d3d6a0c04a402bf62dfa1304a7d88b6fd414e83c1ba"


def drawn_sweep_argvs():
    """A fixed draw of --mode sweep argvs: T 4-64, P 3-8 plus one P=12 case,
    several check fractions, at most 20 trials."""
    rng = np.random.default_rng(20261019)
    argvs = []
    while len(argvs) < DRAWN_SWEEPS:
        triplets = 2 * int(rng.integers(2, 33))
        fraction = str(rng.choice(["0.1", "0.25", "0.5", "0.75"]))
        parties = 12 if len(argvs) == DRAWN_SWEEPS - 1 else int(rng.integers(3, 9))
        if session_capacity(triplets, float(fraction)) == 0:
            continue
        argvs.append([
            "--mode", "sweep", "--triplets", str(triplets), "--parties", str(parties),
            "--check-fraction", fraction, "--trials", str(int(rng.integers(1, 21))),
            "--seed", str(int(rng.integers(0, 2**63))), "--stats", "-",
        ])
    return argvs


def test_drawn_sweeps_match_their_pinned_digest():
    digest = hashlib.sha256()
    accuracies = []
    for argv in drawn_sweep_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == cli.EXIT_OK
        digest.update(out.getvalue().encode("utf-8"))
        rows = [line.split("\t") for line in out.getvalue().splitlines()[1:]]
        accuracies += [(row[0], row[4], row[5]) for row in rows]
    # the draw covers attacked cells where every trial aborts (no decoded
    # bits, so the accuracy reads nan) and attacked cells where none does
    attacked = [row for row in accuracies if row[0] != "none"]
    assert any(accuracy == "nan" for _, _, accuracy in attacked)
    assert any(abort_rate == "0.000000" for _, abort_rate, _ in attacked)
    assert digest.hexdigest() == SWEEP_DRAW_DIGEST


VERIFY_DIGEST = "20205025cce6d95b31203f95d31097882f2ea78069d501dfe91cd5ba9830433c"


VERIFY_P12_ARGV = ["--parties", "12", "--triplets", "4096", "--check-fraction", "0.25"]
VERIFY_P12_DIGEST = "0fd3c6f39d5aa4b85b96a56b65dafe2837f1baf6f086b9de116c6db08ea074e6"


def masked_verify_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--mode", "verify", *argv]) == cli.EXIT_OK
    masked = re.sub(r"residual=[^\t\n]*", "residual=*", out.getvalue())
    assert masked.count("residual=*") == 25
    return hashlib.sha256(masked.encode("utf-8")).hexdigest()


def test_verify_output_matches_its_pinned_digest():
    assert masked_verify_digest([]) == VERIFY_DIGEST


def test_verify_output_at_twelve_parties_matches_its_pinned_digest():
    assert masked_verify_digest(VERIFY_P12_ARGV) == VERIFY_P12_DIGEST
