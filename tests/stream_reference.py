"""The per-trial seed and message streams of a sweep, through numpy's scalar
``SeedSequence``.

``csdcsim.attacks.estimate_detection`` computes the same words for every
trial of a cell in one pass (``protocol.seed_state``); the tests compare
it, and the sessions built from it, against these references.
"""

import numpy as np


def _trial_seed(base_seed: int, trial: int) -> int:
    return int(
        np.random.SeedSequence(entropy=(base_seed, trial)).generate_state(1, np.uint64)[0]
    )


def _trial_message(base_seed: int, trial: int, capacity: int) -> str:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(base_seed, trial, 1)))
    return "".join(map(str, rng.integers(0, 2, size=capacity).tolist()))
