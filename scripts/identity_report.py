#!/usr/bin/env python3
"""Print a verbose report of the algebraic identities the protocol rests on.

Covers the sixteen entanglement-swapping product expansions, GHZ basis
orthonormality, the diagonal-basis expansion check for each basis element,
and the structure of the decode table.
"""

import argparse

from csdcsim.bases import (
    GHZ_INDICES,
    EncodingOp,
    build_decode_table,
    ghz_orthonormality_residual,
    verify_ghz_expansion,
    verify_swap_identity,
)
from csdcsim.states import BELL_OUTCOMES


def swap_section() -> None:
    print("entanglement swapping: Bell products re-expanded over crossed pairs")
    print()
    for left in BELL_OUTCOMES:
        for right in BELL_OUTCOMES:
            report = verify_swap_identity(left, right)
            support = {
                key: coeff
                for key, coeff in report.outcome_table.items()
                if abs(coeff) > 1e-9
            }
            terms = " ".join(
                f"{'+' if coeff.real >= 0 else '-'}1/2 {a.value}*{b.value}"
                for (a, b), coeff in support.items()
            )
            flag = "ok" if report.holds else "MISMATCH"
            print(f"  {left.value} x {right.value}  ->  {terms}   [{flag}]")
    print()


def ghz_section() -> None:
    residual = ghz_orthonormality_residual()
    print(f"GHZ basis Gram residual: {residual:.2e}")
    print()
    print("diagonal-basis expansion check per basis element:")
    for index in GHZ_INDICES:
        report = verify_ghz_expansion(index)
        status = "holds" if report.holds else "does NOT hold"
        print(f"  element {index}: {status} (max residual {report.max_residual:.15f})")
    print()


def decode_section() -> None:
    table = build_decode_table()
    print(f"decode table: {len(table.entries)} keys, collision free")
    print()
    print("zero-parity slice (sender outcome, receiver outcome -> operation):")
    by_op: dict[EncodingOp, list[str]] = {op: [] for op in EncodingOp}
    for key, op in sorted(
        table.entries.items(),
        key=lambda item: (item[1].bits, item[0].sender_bell.value, item[0].receiver_bell.value),
    ):
        if (key.controller_parity_1, key.controller_parity_2) != (0, 0):
            continue
        by_op[op].append(f"({key.sender_bell.value},{key.receiver_bell.value})")
    for op, pairs in by_op.items():
        print(f"  {op.name} <- bits {op.bits}: {' '.join(pairs)}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--section",
        choices=("swap", "ghz", "decode", "all"),
        default="all",
        help="which part of the report to print (default: all)",
    )
    args = parser.parse_args()
    if args.section in ("swap", "all"):
        swap_section()
    if args.section in ("ghz", "all"):
        ghz_section()
    if args.section in ("decode", "all"):
        decode_section()


if __name__ == "__main__":
    main()
