"""CLI contract tests: flags, exit codes, and output formats."""

import contextlib
import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdcsim import attacks, cli, protocol
from csdcsim.protocol import (
    MAX_PARTIES, MAX_SEED, MAX_TRIALS, MAX_TRIPLETS, ConfigError, InternalError, Session,
    session_capacity,
)
from csdcsim.transcript import parse_transcript

RUN = [sys.executable, "-m", "csdcsim.cli"]

# The directory that holds the imported csdcsim package, put first on the
# child's import path so that the CLI subprocess runs the same code as this
# test process, whatever its working directory and however PYTHONPATH is set.
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def child_env():
    inherited = os.environ.get("PYTHONPATH")
    path = PACKAGE_ROOT + (os.pathsep + inherited if inherited else "")
    return {**os.environ, "PYTHONPATH": path}


def invoke(*args, **kwargs):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=120,
        env=child_env(), **kwargs
    )


def stats_dict(text):
    pairs = [line.split("\t") for line in text.strip().splitlines()]
    return {key: value for key, value in pairs}


# --- run mode -----------------------------------------------------------


def test_run_reports_stats_and_exits_zero():
    proc = invoke("--mode", "run", "--triplets", "8", "--message", "0001", "--seed", "42")
    assert proc.returncode == 0
    stats = stats_dict(proc.stdout)
    assert stats == {
        "decoded": "0001",
        "match": "true",
        "checked_triplets": "4",
        "violations": "0",
    }


def test_run_is_byte_deterministic(tmp_path):
    paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    for path in paths:
        proc = invoke(
            "--mode", "run", "--triplets", "12", "--message", "000111",
            "--seed", "9", "--transcript", str(path),
        )
        assert proc.returncode == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_transcript_goes_to_stdout_with_dash():
    proc = invoke(
        "--mode", "run", "--triplets", "8", "--message", "0001",
        "--seed", "42", "--transcript", "-", "--stats", "/dev/null",
    )
    assert proc.returncode == 0
    records = parse_transcript(proc.stdout)
    assert records[0].seq == 1
    assert records[0].action == "PREPARE"
    assert records[-1].action == "COMPLETE"


@pytest.mark.skipif(os.devnull != "/dev/null", reason="no /dev/null device")
def test_both_outputs_may_go_to_the_null_device():
    # the same-file rule guards regular files only
    proc = invoke(
        "--mode", "run", "--triplets", "8", "--message", "0001",
        "--transcript", "/dev/null", "--stats", "/dev/null",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_hard_links_to_one_file_are_the_same_file(tmp_path):
    # two names of one regular file: writing both would lose the transcript
    first, second = tmp_path / "a", tmp_path / "b"
    first.touch()
    os.link(first, second)
    proc = invoke(
        "--mode", "run", "--triplets", "8", "--message", "0001", "--seed", "42",
        "--transcript", str(first), "--stats", str(second),
    )
    assert proc.returncode == 1, proc.stderr
    assert "same file" in proc.stderr
    assert proc.stdout == ""
    assert first.read_text() == ""


def test_transcript_is_not_written_unless_requested(tmp_path):
    proc = invoke(
        "--mode", "run", "--triplets", "8", "--message", "0001", "--seed", "42",
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert list(tmp_path.iterdir()) == []


def test_detected_eavesdropper_exits_two():
    proc = invoke(
        "--mode", "run", "--triplets", "8", "--message", "0001",
        "--seed", "2", "--attack", "intercept-resend",
    )
    assert proc.returncode == 2
    stats = stats_dict(proc.stdout)
    assert stats["match"] == "false"
    assert stats["decoded"] == ""
    assert int(stats["violations"]) > 0


def test_attack_basis_flag_is_accepted():
    proc = invoke(
        "--mode", "run", "--triplets", "8", "--message", "0001",
        "--seed", "0", "--attack", "intercept-resend", "--attack-basis", "z",
    )
    assert proc.returncode in (0, 2)


# --- usage errors -------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["--mode", "run", "--triplets", "7", "--message", "0001"],
        ["--mode", "run", "--triplets", "8", "--message", "00"],
        ["--mode", "run", "--triplets", "8", "--message", "xyz1"],
        ["--mode", "run", "--triplets", "8"],  # no message
        ["--mode", "run", "--triplets", "8", "--message", "0001", "--parties", "2"],
        ["--mode", "run", "--triplets", "8", "--message", "0001", "--check-fraction", "1.5"],
        ["--mode", "sweep", "--trials", "0"],
        # rejected before the header, before any session starts
        ["--mode", "sweep", "--trials", str(MAX_TRIALS + 1)],
        ["--mode", "sweep", "--trials", "5000000000"],
        ["--unknown-flag"],
        ["--mode", "frobnicate"],
        ["--mode", "sweep", "--check-fraction", "nan"],
        ["--mode", "sweep", "--check-fraction", "inf"],
        ["--mode", "run", "--triplets", "8", "--message", "0001", "--parties", "30"],
        ["--mode", "sweep", "--parties", "30"],
        ["--mode", "run", "--triplets", "4098", "--message", "0" * 2048],
        ["--mode", "sweep", "--triplets", "1000000000000"],
        ["--mode", "run", "--triplets", "8", "--message", "0001",
         "--transcript", "same.tsv", "--stats", "./same.tsv"],
        ["--mode", "sweep", "--triplets", "4", "--trials", "3", "--transcript", "F"],
        ["--mode", "sweep", "--triplets", "4", "--trials", "3", "--message", "01"],
        ["--mode", "verify", "--transcript", "-"],
        ["--mode", "verify", "--message", "0001"],
        ["--mode", "verify", "--triplets", "7"],
        ["--mode", "verify", "--parties", "30"],
        ["--mode", "verify", "--check-fraction", "nan"],
        # a flag that the mode does not read
        ["--mode", "sweep", "--attack", "entangle-measure", "--triplets", "8", "--trials", "3"],
        ["--mode", "run", "--triplets", "8", "--message", "0001", "--trials", "0"],
        ["--mode", "run", "--triplets", "8", "--message", "0001", "--attack-basis", "z"],
        ["--mode", "verify", "--seed", "5"],
    ],
)
def test_bad_usage_exits_one(args):
    proc = invoke(*args)
    assert proc.returncode == 1
    assert "error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# Every mode is run with no bad flag and with each flag bad in turn.  Every
# other flag is passed only in a mode that reads it, where it is left out
# or gets a small valid value, so that one argv runs in milliseconds; a
# flag that the mode does not read would make the argv a usage error.
# Sweep always gets --trials, because the default of 100 trials is slow.
BAD_NUMBERS = ["-2", "0", "nan", "inf", "x", ""]
FLAGS = {
    "--triplets": (
        st.integers(1, 8).map(lambda k: str(2 * k)),
        BAD_NUMBERS + ["7", str(MAX_TRIPLETS + 2), "1000000000000"],
    ),
    "--check-fraction": (
        st.sampled_from(["0.25", "0.5", "0.75"]), BAD_NUMBERS + ["1", "1.5", "-inf"]
    ),
    "--parties": (st.integers(3, 5).map(str), BAD_NUMBERS + ["2", str(MAX_PARTIES + 1)]),
    "--attack": (st.sampled_from(["none", "intercept-resend", "entangle-measure"]), ["tap"]),
    "--attack-basis": (st.sampled_from(["random", "z", "x"]), ["y"]),
    "--seed": (st.integers(0, MAX_SEED).map(str), BAD_NUMBERS + ["-1", str(MAX_SEED + 1)]),
    "--trials": (st.integers(1, 3).map(str), BAD_NUMBERS + [str(MAX_TRIALS + 1)]),
}
# the flags each mode reads; --attack-basis only with --attack intercept-resend
READS = {
    "run": {
        "--triplets", "--check-fraction", "--parties", "--attack", "--attack-basis", "--seed",
        "--message",
    },
    "sweep": {"--triplets", "--check-fraction", "--parties", "--seed", "--trials"},
    "verify": {"--triplets", "--check-fraction", "--parties"},
    "frobnicate": set(FLAGS) | {"--message"},
}


@st.composite
def flag_values(draw, mode, bad_flag):
    argv = []
    for flag, (valid, bad) in FLAGS.items():
        options = dict(zip(argv[::2], argv[1::2]))
        if flag == bad_flag:
            value = draw(st.sampled_from(bad))
        elif flag not in READS[mode] or (
            flag == "--attack-basis" and options.get("--attack") != "intercept-resend"
        ):
            value = None
        else:
            value = draw(valid if flag == "--trials" else st.one_of(st.none(), valid))
        if value is not None:
            argv += [flag, value]
    if "--message" not in READS[mode]:
        return argv
    # a message that fits the drawn capacity, a malformed one, or none
    try:
        options = dict(zip(argv[::2], argv[1::2]))
        fits = "0" * session_capacity(
            int(options.get("--triplets", cli.DEFAULT_TRIPLETS)),
            float(options.get("--check-fraction", cli.DEFAULT_CHECK_FRACTION)),
        )
    except (ConfigError, ValueError):
        fits = "0001"
    message = draw(st.one_of(
        st.just(fits), st.sampled_from([None, "0a01", "", "0" * 5]), st.text("01", max_size=6)
    ))
    if message is not None:
        argv += ["--message", message]
    return argv


@pytest.mark.parametrize("bad_flag", [None, *FLAGS])
@pytest.mark.parametrize("mode", ["run", "sweep", "verify", "frobnicate"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_any_argv_ends_in_a_documented_exit_code(mode, bad_flag, data):
    argv = ["--mode", mode] + data.draw(flag_values(mode, bad_flag))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())


# Any argv at all: flags in any order and number, each with a value that
# parses (int() and float() read `1_6`, full-width and Arabic-Indic digits)
# or an odd one, and stray tokens.  Sizes that parse are capped (at most 64
# triplets and 4 trials when drawn), so no argv runs long.
FLAG_VALUES = {  # each flag's (values that parse, odd values)
    "--mode": (["run", "sweep", "verify"], ["", "RUN", "frobnicate"]),
    "--triplets": (
        ["8", "16", "64", "1_6", "\uff11\uff16", "\u0668"],
        ["7", "0", "-2", "66", "nan", "inf", "", str(2**64), "x"],
    ),
    "--check-fraction": (["0.25", "0.5", "\uff10.\uff15"], ["1", "0", "nan", "inf", "-inf", ""]),
    "--parties": (["3", "5", "12", "\uff11\uff12"], ["2", "13", "nan", "", str(2**64)]),
    "--attack": (["none", "intercept-resend", "entangle-measure"], ["tap", ""]),
    "--attack-basis": (["random", "z", "x"], ["y", ""]),
    "--seed": (["0", "42", str(MAX_SEED), "1_6", "\uff11"], [str(2**64), "-1", "nan", ""]),
    "--trials": (
        ["1", "2", "4", "\uff14"], ["0", "-1", str(MAX_TRIALS + 1), str(2**64), "nan", ""]
    ),
    "--message": (["0001", "0" * 8, "0" * 32], ["", "01x", "\uff10\uff11"]),
}
STRAY_TOKENS = ["--bogus", "--mode=run", "--mode=sweep", "--mode=verify", "--tri", "--", "-", ""]


@pytest.fixture(scope="module")
def out_paths(tmp_path_factory):
    """Where --transcript and --stats may point: (stdout, the null device, a
    fresh file), (a directory, a file in a missing directory, a full device
    where there is one)."""
    folder = tmp_path_factory.mktemp("argv")
    odd = [str(folder), str(folder / "missing" / "out.tsv")]
    if os.path.exists("/dev/full"):
        odd.append("/dev/full")
    return ["-", os.devnull, str(folder / "out.tsv")], odd


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_drawn_argv_ends_in_one_documented_exit(out_paths, data):
    # a value that parses in about two draws of three, a stray token in one of four
    flag = st.one_of(*(
        st.tuples(st.just(name), st.one_of(*map(st.sampled_from, (valid, valid, odd))))
        for name, (valid, odd) in {**FLAG_VALUES, "--transcript": out_paths,
                                   "--stats": out_paths}.items()
    ))
    token = st.one_of(flag, flag, flag, st.sampled_from(STRAY_TOKENS).map(lambda t: (t,)))
    # a run's message fits the default size, unless a later one replaces it
    mode = data.draw(st.sampled_from([["run", "--message", "0" * 8], ["sweep"], ["verify"]]))
    argv = ["--mode", *mode] + [part for t in data.draw(st.lists(token, max_size=6)) for part in t]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code == 1:
        lines = err.getvalue().splitlines()
        errors = [line for line in lines if line.startswith("csdcsim: error:")]
        assert lines and errors == [lines[-1]], (argv, err.getvalue())


# --- verify mode --------------------------------------------------------


def test_verify_passes_and_reports_findings():
    proc = invoke("--mode", "verify")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    swap = [l for l in lines if l.startswith("swap-product")]
    assert len(swap) == 16
    assert all("\tpass\t" in l for l in swap)
    for line in swap:
        terms = line.split("\t")[3].split()
        assert len(terms) == 8  # four "±1/2 X*Y" terms
        assert all(sign in ("+1/2", "-1/2") for sign in terms[::2])
    assert any(l.startswith("ghz-orthonormality\tpass") for l in lines)
    findings = [l for l in lines if "\tfinding\t" in l]
    assert sorted(f.split("\t")[0] for f in findings) == [
        "ghz-expansion index=3",
        "ghz-expansion index=4",
    ]
    assert any(l.startswith("decode-table\tpass\tkeys=64") for l in lines)
    slices = [l.split("\t") for l in lines if l.startswith("decode-slice")]
    assert [label for label, _, _ in slices] == [
        "decode-slice U1 bits=00", "decode-slice U2 bits=01",
        "decode-slice U3 bits=10", "decode-slice U4 bits=11",
    ]
    assert all(status == "pass" and len(pairs.split()) == 4 for _, status, pairs in slices)
    oracle = [l.split("\t") for l in lines if l.startswith("detection-oracle")]
    assert [status for _, status, _ in oracle] == ["pass"] * 5
    assert lines[-5:] == ["\t".join(fields) for fields in oracle]


@pytest.mark.parametrize(
    "fraction, checked, abort",
    [("0.25", "2", "0.437500"), ("0.5", "4", "0.683594"), ("0.75", "6", "0.822021")],
)
def test_verify_reports_the_exact_rates_for_the_check_fraction(fraction, checked, abort):
    proc = invoke("--mode", "verify", "--triplets", "8", "--check-fraction", fraction)
    assert proc.returncode == 0, proc.stderr
    oracle = [
        line.split("\t") for line in proc.stdout.splitlines()
        if line.startswith("detection-oracle")
    ]
    assert oracle[0] == [
        "detection-oracle none", "pass", f"rate=0.000000 checked={checked} abort=0.000000"
    ]
    assert oracle[1:] == [
        [f"detection-oracle {label}", "pass", f"rate=0.250000 checked={checked} abort={abort}"]
        for label in (
            "intercept-resend:random", "intercept-resend:z",
            "intercept-resend:x", "entangle-measure",
        )
    ]


def test_verify_reports_each_cells_exact_decode_accuracy():
    # the encoding round's joint does not depend on the party count
    proc = invoke("--mode", "verify", "--parties", "12")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("decode-oracle"))
    assert lines[first - 1].startswith("decode-slice U4")
    assert lines[first:first + 5] == [
        f"decode-oracle {label}\tpass\taccuracy={accuracy}"
        for label, accuracy in (
            ("none", "1.000000"), ("intercept-resend:random", "0.562500"),
            ("intercept-resend:z", "0.500000"), ("intercept-resend:x", "0.750000"),
            ("entangle-measure", "0.500000"),
        )
    ]


@pytest.mark.parametrize(
    "patch, failing",
    [
        # a joint that is not a distribution fails every cell
        (("group_joint", lambda attack: 2 * attacks.group_joint(attack)), 5),
        # only the honest cell's accuracy is known
        (("decode_oracle", lambda attack: 0.9), 1),
    ],
    ids=["joint", "accuracy"],
)
def test_verify_decode_oracle_failure_exits_three(monkeypatch, capsys, patch, failing):
    monkeypatch.setattr(cli, *patch)
    code = cli.main(["--mode", "verify"])
    lines = capsys.readouterr().out.splitlines()
    statuses = [line.split("\t")[1] for line in lines if line.startswith("decode-oracle")]
    assert statuses == ["FAIL"] * failing + ["pass"] * (5 - failing)
    assert code == 3


def test_verify_structural_failure_exits_three(monkeypatch, capsys):
    real = cli.bases.verify_swap_identity

    def broken(left, right):
        _, amps = real(left, right)
        return 1.0, amps

    monkeypatch.setattr(cli.bases, "verify_swap_identity", broken)
    code = cli.main(["--mode", "verify"])
    capsys.readouterr()
    assert code == 3


def test_verify_decode_table_failure_exits_three(monkeypatch, capsys):
    # every operation sees every pair, so the table cannot be inverted
    monkeypatch.setattr(cli.bases, "bell_pair_amplitudes", lambda a, b: np.ones((4,) * a.ndim))
    code = cli.main(["--mode", "verify"])
    lines = capsys.readouterr().out.splitlines()
    table = [line for line in lines if line.startswith("decode-table")]
    assert len(table) == 1
    assert table[0] == (
        "decode-table\tFAIL\tdecode table collision at parities=00 sender=PSI+ receiver=PSI+"
    )
    assert not [line for line in lines if line.startswith("decode-slice")]
    assert code == 3


# --- internal errors ----------------------------------------------------


def test_simulator_bug_exits_four(monkeypatch, capsys):
    def explode(self):
        raise InternalError("phase ordering violated")

    monkeypatch.setattr(Session, "run", explode)
    code = cli.main(["--mode", "run", "--triplets", "8", "--message", "0001"])
    captured = capsys.readouterr()
    assert code == 4
    assert "internal error" in captured.err


def test_a_sweep_that_fails_writes_no_stats_file(monkeypatch, capsys, tmp_path):
    # every cell runs before --stats is opened, so neither a bad --trials
    # nor a fault in a cell leaves a file behind, not even a header
    stats = tmp_path / "sweep.tsv"
    argv = ["--mode", "sweep", "--triplets", "8", "--stats", str(stats)]
    assert cli.main(argv + ["--trials", "0"]) == 1
    assert not stats.exists()

    def explode(*args):
        raise InternalError("a cell broke")

    monkeypatch.setattr(cli, "estimate_cells", explode)
    assert cli.main(argv + ["--trials", "2"]) == 4
    assert "internal error" in capsys.readouterr().err
    assert not stats.exists()


def test_a_transcript_field_with_a_separator_leaves_no_file(monkeypatch, tmp_path):
    # the fields are checked before the transcript file is opened
    monkeypatch.setattr(protocol, "roster_names", lambda parties: ("ALICE", "BOB", "CTRL\t1"))
    transcript = tmp_path / "transcript.tsv"
    with pytest.raises(ValueError, match="separator"):
        cli.main(["--mode", "run", "--triplets", "8", "--message", "0001",
                  "--transcript", str(transcript), "--stats", str(tmp_path / "stats.tsv")])
    assert not transcript.exists()


WIDE_RUN = ["--mode", "run", "--triplets", "4096", "--message", "0" * 2048, "--stats", "/dev/null"]


def assert_one_error_line(returncode, stderr):
    # exit 1 and one line, so no traceback and no failed flush at exit
    lines = stderr.splitlines()
    assert returncode == 1 and len(lines) == 1 and lines[0].startswith("csdcsim: error: "), stderr


def test_a_transcript_cut_short_by_a_closed_pipe_exits_one():
    # the transcript is written block by block, so a reader that goes away
    # mid-transcript fails a write, and the run says so
    with subprocess.Popen(
        RUN + WIDE_RUN + ["--transcript", "-"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=child_env(),
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        returncode = proc.wait(timeout=120)
        stderr = proc.stderr.read()
    assert_one_error_line(returncode, stderr)
    assert "Broken pipe" in stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_transcript_to_a_full_device_exits_one():
    proc = invoke(*WIDE_RUN, "--transcript", "/dev/full")
    assert_one_error_line(proc.returncode, proc.stderr)
    assert proc.stdout == ""


# --- sweep mode ---------------------------------------------------------


def test_sweep_emits_one_row_per_attack_cell():
    proc = invoke("--mode", "sweep", "--triplets", "8", "--trials", "25", "--seed", "3")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    header = lines[0].split("\t")
    assert header == [
        "attack", "trials", "checked_triplets",
        "detection_rate", "abort_rate", "decode_accuracy",
    ]
    rows = [line.split("\t") for line in lines[1:]]
    assert [row[0] for row in rows] == [
        "none",
        "intercept-resend:random",
        "intercept-resend:z",
        "intercept-resend:x",
        "entangle-measure",
    ]
    for row in rows:
        assert int(row[1]) == 25
        assert int(row[2]) == 100
        for cell in row[3:]:
            float(cell)  # parseable, nan allowed
    none_row = rows[0]
    assert float(none_row[3]) == 0.0
    assert float(none_row[4]) == 0.0
    assert float(none_row[5]) == 1.0


# A child that says when csdcsim.cli is imported, then runs cli.main on its argv.
READY_THEN_MAIN = (
    "import sys\n"
    "from csdcsim import cli\n"
    "print('ready', flush=True)\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.mark.skipif(os.name == "nt", reason="no SIGINT to send to a child")
def test_an_interrupted_sweep_exits_130_with_one_line(tmp_path):
    # a sweep of many chunks, about a minute long, interrupted once it runs:
    # one line on stderr, no traceback and no stats file, not even a header
    stats = tmp_path / "sweep.tsv"
    argv = ["--mode", "sweep", "--triplets", "4096", "--trials", "4096", "--stats", str(stats)]
    proc = subprocess.Popen(
        [sys.executable, "-c", READY_THEN_MAIN, *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=child_env(),
    )
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.25)  # past the import, well into the sweep
        proc.send_signal(signal.SIGINT)
        returncode = proc.wait(timeout=60)
        stderr = proc.stderr.read()
    finally:
        proc.kill()  # a no-op once the child has exited
        proc.stdout.close()
        proc.stderr.close()
    assert returncode == cli.EXIT_INTERRUPTED == 130
    assert stderr.splitlines() == ["csdcsim: interrupted"], stderr
    assert not stats.exists()


def test_sweep_is_deterministic():
    first = invoke("--mode", "sweep", "--triplets", "8", "--trials", "10", "--seed", "11")
    second = invoke("--mode", "sweep", "--triplets", "8", "--trials", "10", "--seed", "11")
    assert first.stdout == second.stdout


def test_stats_file_destination(tmp_path):
    out = tmp_path / "stats.tsv"
    proc = invoke(
        "--mode", "run", "--triplets", "8", "--message", "0001",
        "--seed", "42", "--stats", str(out),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert stats_dict(out.read_text())["decoded"] == "0001"
