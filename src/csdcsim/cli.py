"""Command-line harness.

Three modes share one flag set:

    verify  run the structural identity suites and print a report
    run     execute one session, optionally writing transcript and stats
    sweep   run batches of sessions across every attack model

Exit codes: 0 success, 1 usage error, 2 session aborted after an
eavesdropper was detected, 3 structural verification failure,
4 internal simulator error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace
from typing import IO, Iterator

from . import bases
from .attacks import (
    AttackModel,
    BasisStrategy,
    EntangleMeasure,
    InterceptResend,
    estimate_detection,
)
from .protocol import (
    MAX_PARTIES, MAX_TRIPLETS, ConfigError, InternalError, ProtocolConfig, Session,
    session_capacity,
)
from .states import BELL_OUTCOMES
from .transcript import format_transcript

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EAVESDROPPER = 2
EXIT_VERIFY_FAILED = 3
EXIT_INTERNAL = 4

DEFAULT_TRIPLETS = 16
DEFAULT_CHECK_FRACTION = 0.5
DEFAULT_PARTIES = 3
DEFAULT_TRIALS = 100


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the harness wants 1."""

    def error(self, message: str):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="csdcsim",
        description=(
            "Simulate a controlled secure direct communication protocol on "
            "GHZ states, with optional eavesdropping attacks."
        ),
    )
    parser.add_argument(
        "--mode", choices=("verify", "run", "sweep"), default="run",
        help="verify identities, run one session, or sweep attacks (default: run)",
    )
    parser.add_argument(
        "--triplets", type=int, default=DEFAULT_TRIPLETS, metavar="N",
        help=f"number of GHZ triplets, even, at most {MAX_TRIPLETS} (default: {DEFAULT_TRIPLETS})",
    )
    parser.add_argument(
        "--message", metavar="BITS", default=None,
        help="message bits for run mode; must fill the encoding capacity exactly",
    )
    parser.add_argument(
        "--check-fraction", type=float, default=DEFAULT_CHECK_FRACTION, metavar="F",
        help=f"fraction of groups reserved for checking, in (0,1) (default: {DEFAULT_CHECK_FRACTION})",
    )
    parser.add_argument(
        "--parties", type=int, default=DEFAULT_PARTIES, metavar="P",
        help=f"total parties including sender and receiver, 3 to {MAX_PARTIES} "
        f"(default: {DEFAULT_PARTIES})",
    )
    parser.add_argument(
        "--attack", choices=("none", "intercept-resend", "entangle-measure"),
        default="none", help="eavesdropping model on the travel channel (default: none)",
    )
    parser.add_argument(
        "--attack-basis", choices=("random", "z", "x"), default="random",
        help="basis strategy for intercept-resend (default: random)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="master seed, unsigned 64-bit (default: 0)",
    )
    parser.add_argument(
        "--trials", type=int, default=DEFAULT_TRIALS, metavar="T",
        help=f"sessions per sweep cell (default: {DEFAULT_TRIALS})",
    )
    parser.add_argument(
        "--transcript", metavar="PATH", default=None,
        help="write the run transcript here ('-' for stdout; default: not written)",
    )
    parser.add_argument(
        "--stats", metavar="PATH", default=None,
        help="write statistics here ('-' for stdout; default: stdout)",
    )
    return parser


def _build_attack(args: argparse.Namespace) -> AttackModel | None:
    if args.attack == "none":
        return None
    if args.attack == "intercept-resend":
        return InterceptResend(BasisStrategy(args.attack_basis))
    return EntangleMeasure()


@contextlib.contextmanager
def _open_out(path: str | None) -> Iterator[IO[str] | None]:
    """None stays None; '-' is stdout; anything else is a fresh file."""
    if path is None:
        yield None
    elif path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle


def run_verify(out: IO[str]) -> int:
    """Check every structural identity; findings are reported, not fatal."""
    failures = 0

    for left in BELL_OUTCOMES:
        for right in BELL_OUTCOMES:
            report = bases.verify_swap_identity(left, right)
            status = "pass" if report.holds else "FAIL"
            failures += 0 if report.holds else 1
            out.write(
                f"swap-product {left.value}x{right.value}\t{status}\t"
                f"residual={report.max_residual:.2e}\n"
            )

    gram_residual = bases.ghz_orthonormality_residual()
    gram_ok = gram_residual < bases.ATOL
    failures += 0 if gram_ok else 1
    out.write(
        f"ghz-orthonormality\t{'pass' if gram_ok else 'FAIL'}\t"
        f"residual={gram_residual:.2e}\n"
    )

    for index in bases.GHZ_INDICES:
        report = bases.verify_ghz_expansion(index)
        status = "pass" if report.holds else "finding"
        out.write(
            f"ghz-expansion index={index}\t{status}\t"
            f"residual={report.max_residual:.2e}\n"
        )

    try:
        table = bases.build_decode_table()
    except ValueError as exc:
        failures += 1
        out.write(f"decode-table\tFAIL\t{exc}\n")
    else:
        out.write(f"decode-table\tpass\tkeys={len(table.entries)}\n")

    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _config_from_args(args: argparse.Namespace) -> ProtocolConfig:
    if args.message is None:
        raise ConfigError("run mode requires --message")
    return ProtocolConfig(
        triplet_count=args.triplets,
        message_bits=args.message,
        party_count=args.parties,
        check_fraction=args.check_fraction,
        attack=_build_attack(args),
        seed=args.seed,
    )


def run_single(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    stats_path = args.stats if args.stats is not None else "-"
    # one output would truncate the other only in a regular file; a device
    # such as /dev/null may take both
    files = [
        os.path.realpath(p) for p in (args.transcript, stats_path)
        if p not in (None, "-") and (os.path.isfile(p) or not os.path.exists(p))
    ]
    if len(set(files)) < len(files):
        raise ConfigError("--transcript and --stats name the same file")
    result = Session(config).run()
    with _open_out(args.transcript) as transcript_out:
        if transcript_out is not None:
            transcript_out.write(format_transcript(result.records))
    with _open_out(stats_path) as stats_out:
        decoded = result.decoded_bits if result.decoded_bits is not None else ""
        stats_out.write(f"decoded\t{decoded}\n")
        stats_out.write(f"match\t{str(result.match).lower()}\n")
        stats_out.write(f"checked_triplets\t{result.checked_triplets}\n")
        stats_out.write(f"violations\t{result.violations}\n")
    return EXIT_OK if result.completed else EXIT_EAVESDROPPER


SWEEP_CELLS: tuple[AttackModel | None, ...] = (
    None,
    InterceptResend(BasisStrategy.RANDOM),
    InterceptResend(BasisStrategy.ALWAYS_Z),
    InterceptResend(BasisStrategy.ALWAYS_X),
    EntangleMeasure(),
)


def run_sweep(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError("sweep needs a positive --trials")
    # sweep sessions carry random messages, so any valid capacity works
    base = ProtocolConfig(
        triplet_count=args.triplets,
        message_bits="0" * session_capacity(args.triplets, args.check_fraction),
        party_count=args.parties,
        check_fraction=args.check_fraction,
        seed=args.seed,
    )
    stats_path = args.stats if args.stats is not None else "-"
    with _open_out(stats_path) as out:
        out.write(
            "attack\ttrials\tchecked_triplets\tdetection_rate\t"
            "abort_rate\tdecode_accuracy\n"
        )
        for attack in SWEEP_CELLS:
            stats = estimate_detection(replace(base, attack=attack), args.trials)
            out.write(
                f"{stats.attack}\t{stats.trials}\t{stats.checked_triplets}\t"
                f"{stats.detection_rate:.6f}\t{stats.abort_rate:.6f}\t"
                f"{stats.decode_accuracy:.6f}\n"
            )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        for flag, value in (("--transcript", args.transcript), ("--message", args.message)):
            if value is not None and args.mode != "run":
                raise ConfigError(f"{flag} applies only to --mode run")
        if args.mode == "verify":
            with _open_out(args.stats if args.stats is not None else "-") as out:
                return run_verify(out)
        if args.mode == "run":
            return run_single(args)
        return run_sweep(args)
    except ConfigError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"{parser.prog}: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
