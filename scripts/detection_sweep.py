#!/usr/bin/env python3
"""Sweep eavesdropping detection over attack models and check fractions.

For each grid cell the script runs a batch of seeded sessions and prints
the measured per-triplet violation rate and session abort rate next to
the exact predictions, so drift is visible at a glance.
"""

import argparse
from dataclasses import replace

from csdcsim.attacks import abort_probability, detection_oracle, estimate_detection
from csdcsim.cli import SWEEP_CELLS
from csdcsim.protocol import MAX_SEED, ConfigError, ProtocolConfig, session_capacity


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--triplets", type=int, default=16)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=[0.25, 0.5, 0.75],
        help="check fractions to sweep (each strictly between 0 and 1)",
    )
    args = parser.parse_args()
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    # checked here too, because a fraction with no capacity builds no config
    if not (0 <= args.seed <= MAX_SEED):
        parser.error(f"--seed must fit in an unsigned 64-bit integer, got {args.seed}")
    try:
        capacities = [session_capacity(args.triplets, f) for f in args.fractions]
        # None marks a fraction that leaves no encoding capacity
        bases = [
            ProtocolConfig(
                triplet_count=args.triplets,
                message_bits="0" * capacity,
                check_fraction=fraction,
                seed=args.seed,
            )
            if capacity > 0
            else None
            for fraction, capacity in zip(args.fractions, capacities)
        ]
    except ConfigError as exc:
        parser.error(str(exc))

    header = (
        "attack", "fraction", "checked/session", "measured_rate",
        "predicted_rate", "measured_abort", "predicted_abort",
    )
    print("\t".join(header))
    for fraction, base in zip(args.fractions, bases):
        if base is None:
            print(f"# skipping fraction {fraction}: no encoding capacity left")
            continue
        k = 2 * base.checking_group_count
        for attack in SWEEP_CELLS:
            stats = estimate_detection(replace(base, attack=attack), args.trials)
            predicted_rate = detection_oracle(attack)
            predicted_abort = abort_probability(attack, checked_triplets=k)
            print(
                f"{stats.attack}\t{fraction:g}\t{k}\t"
                f"{stats.detection_rate:.4f}\t{predicted_rate:.4f}\t"
                f"{stats.abort_rate:.4f}\t{predicted_abort:.4f}"
            )


if __name__ == "__main__":
    main()
