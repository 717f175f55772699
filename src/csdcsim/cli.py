"""Command-line harness.

Three modes share one flag set:

    verify  run the structural identity suites and print a report
    run     execute one session, optionally writing transcript and stats
    sweep   run batches of sessions across every attack model

A flag that the mode does not read (``MODE_FLAGS``) must keep its
default; any other value is a usage error, not silently ignored.

Verify prints one tab-separated ``label<TAB>status<TAB>detail`` line
per check: the sixteen swap products with their four signed terms, GHZ
orthonormality and expansions, the decode table with its zero-parity
slice and each sweep cell's exact decode accuracy, and last each cell's
exact detection rate and abort probability for the --parties, --triplets
and --check-fraction given.

Run writes its transcript block by block as the writer renders it, so
the whole text is never held.  The writer checks its fields before the
file is opened; a write that fails part way (a full device, a closed
pipe) is an error with exit code 1 and may leave the blocks already
written, as any failed write may.

Exit codes: 0 success, 1 usage error or failed write, 2 session aborted
after an eavesdropper was detected, 3 structural verification failure,
4 internal simulator error, 130 interrupted (SIGINT): one
``csdcsim: interrupted`` line on stderr and no traceback.  An interrupted
sweep writes no stats file; an interrupted run may leave part of its
transcript, as a failed write may.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import IO, Iterator

from . import bases
from .attacks import (
    AttackModel,
    BasisStrategy,
    EntangleMeasure,
    InterceptResend,
    abort_probability,
    attack_cell_label,
    decode_oracle,
    detection_oracle,
    estimate_cells,
    group_joint,
)
from .protocol import (
    MAX_PARTIES, MAX_TRIALS, MAX_TRIPLETS, ConfigError, InternalError, ProtocolConfig, Session,
    session_capacity,
)
from .states import BELL_OUTCOMES
from .transcript import transcript_blocks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EAVESDROPPER = 2
EXIT_VERIFY_FAILED = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130  # the shell's code for death by SIGINT

DEFAULT_TRIPLETS = 16
DEFAULT_CHECK_FRACTION = 0.5
DEFAULT_PARTIES = 3
DEFAULT_TRIALS = 100

# The flags each mode reads, by argparse dest; --attack-basis is read only
# with --attack intercept-resend.
MODE_FLAGS = {
    "run": (
        "triplets", "message", "check_fraction", "parties", "attack", "attack_basis",
        "seed", "transcript", "stats",
    ),
    "sweep": ("triplets", "check_fraction", "parties", "seed", "trials", "stats"),
    "verify": ("triplets", "check_fraction", "parties", "stats"),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the harness wants 1."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache  # built once per process; parsing leaves it unchanged
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
        help=f"sessions per sweep cell, 1 to {MAX_TRIALS} (default: {DEFAULT_TRIALS})",
    )
    parser.add_argument(
        "--transcript", metavar="PATH", default=None,
        help="write the run transcript here ('-' for stdout; default: not written)",
    )
    parser.add_argument(
        "--stats", metavar="PATH", default="-",
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
def _open_out(path: str) -> Iterator[IO[str]]:
    """'-' is stdout; anything else is a fresh file."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle


def run_verify(out: IO[str], config: ProtocolConfig) -> int:
    """Check every structural identity, then print the exact detection
    rates for ``config``'s parties and checked triplets; findings are
    reported, not fatal."""
    failures = 0

    for left in BELL_OUTCOMES:
        for right in BELL_OUTCOMES:
            residual, amps = bases.verify_swap_identity(left, right)
            holds = residual < bases.ATOL
            failures += 0 if holds else 1
            terms = " ".join(
                f"{'+' if amps[s, r].real >= 0 else '-'}1/2 "
                f"{BELL_OUTCOMES[s].value}*{BELL_OUTCOMES[r].value}"
                for s, r in zip(*(abs(amps) > bases.ATOL).nonzero())
            )
            out.write(
                f"swap-product {left.value}x{right.value}\t{'pass' if holds else 'FAIL'}\t"
                f"residual={residual:.2e}\t{terms}\n"
            )

    gram_residual = bases.ghz_orthonormality_residual()
    gram_ok = gram_residual < bases.ATOL
    failures += 0 if gram_ok else 1
    out.write(
        f"ghz-orthonormality\t{'pass' if gram_ok else 'FAIL'}\t"
        f"residual={gram_residual:.2e}\n"
    )

    for index in bases.GHZ_INDICES:
        residual = bases.verify_ghz_expansion(index)
        status = "pass" if residual < bases.ATOL else "finding"
        out.write(f"ghz-expansion index={index}\t{status}\tresidual={residual:.2e}\n")

    try:
        table = bases.build_decode_table()
    except ValueError as exc:
        failures += 1
        out.write(f"decode-table\tFAIL\t{exc}\n")
    else:
        out.write(f"decode-table\tpass\tkeys={table.dense.size}\n")
        for position, op in enumerate(bases.EncodingOp):
            pairs = sorted(
                f"({BELL_OUTCOMES[s].value},{BELL_OUTCOMES[r].value})"
                for s, r in zip(*(table.dense[0, 0] == position).nonzero())
            )
            out.write(f"decode-slice {op.name} bits={op.bits}\tpass\t{' '.join(pairs)}\n")
        for attack in SWEEP_CELLS:
            # the joint is a distribution, and every honest group decodes right
            accuracy, total = decode_oracle(attack), group_joint(attack).sum()
            misses = [total - 1] + ([accuracy - 1] if attack is None else [])
            holds = all(abs(miss) <= bases.ATOL for miss in misses)
            failures += 0 if holds else 1
            out.write(
                f"decode-oracle {attack_cell_label(attack)}\t{'pass' if holds else 'FAIL'}\t"
                f"accuracy={accuracy:.6f}\n"
            )

    checked = config.checked_triplets
    for attack in SWEEP_CELLS:
        rate = detection_oracle(attack, config.party_count)
        claim = 0.0 if attack is None else 0.25
        abort = abort_probability(attack, checked, config.party_count)
        out.write(
            f"detection-oracle {attack_cell_label(attack)}\t"
            f"{'pass' if abs(rate - claim) <= bases.ATOL else 'finding'}\t"
            f"rate={rate:.6f} checked={checked} abort={abort:.6f}\n"
        )

    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _config_from_args(args: argparse.Namespace) -> ProtocolConfig:
    message = args.message
    if args.mode != "run":
        # sweep and verify send no message; any that fills the capacity will do
        message = "0" * session_capacity(args.triplets, args.check_fraction)
    elif message is None:
        raise ConfigError("run mode requires --message")
    return ProtocolConfig(
        triplet_count=args.triplets,
        message_bits=message,
        party_count=args.parties,
        check_fraction=args.check_fraction,
        attack=_build_attack(args),
        seed=args.seed,
    )


def run_single(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    # one output would truncate the other only in a regular file; a device
    # such as /dev/null may take both.  A file that exists is known by its
    # device and inode, so two hard links to it are one file.
    files = [
        (os.stat(p).st_dev, os.stat(p).st_ino) if os.path.exists(p) else os.path.realpath(p)
        for p in (args.transcript, args.stats)
        if p not in (None, "-") and (os.path.isfile(p) or not os.path.exists(p))
    ]
    if len(set(files)) < len(files):
        raise ConfigError("--transcript and --stats name the same file")
    result = Session(config).run()
    if args.transcript is not None:
        # its fields are checked here, before the file is opened, so a bad one
        # leaves no file; each block is rendered as the one before is written
        blocks = transcript_blocks(**result.outcomes)
        with _open_out(args.transcript) as transcript_out:
            transcript_out.writelines(blocks)
    with _open_out(args.stats) as stats_out:
        decoded = result.decoded_bits if result.decoded_bits is not None else ""
        stats_out.write(f"decoded\t{decoded}\n")
        stats_out.write(f"match\t{str(result.match).lower()}\n")
        stats_out.write(f"checked_triplets\t{result.config.checked_triplets}\n")
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
    # each trial gets a random message and the cells replace the attack; all run
    # before --stats is opened, so a sweep that fails (bad --trials too) writes no file
    base = _config_from_args(args)
    cells = estimate_cells(base, args.trials, SWEEP_CELLS)
    with _open_out(args.stats) as out:
        out.write(
            "attack\ttrials\tchecked_triplets\tdetection_rate\t"
            "abort_rate\tdecode_accuracy\n"
        )
        for stats in cells:
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
        # a flag set away from its default where nothing reads it
        for dest, value in vars(args).items():
            if dest == "mode" or value == parser.get_default(dest):
                continue
            flag = "--" + dest.replace("_", "-")
            if dest not in MODE_FLAGS[args.mode]:
                raise ConfigError(f"{flag} is not read by --mode {args.mode}")
            if dest == "attack_basis" and args.attack != "intercept-resend":
                raise ConfigError(f"{flag} is read only with --attack intercept-resend")
        if args.mode == "verify":
            # built before anything is printed, so verify rejects what sweep does
            config = _config_from_args(args)
            with _open_out(args.stats) as out:
                return run_verify(out, config)
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
    except KeyboardInterrupt:
        print(f"{parser.prog}: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
