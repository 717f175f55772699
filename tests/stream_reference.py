"""numpy's own route to every stream a session or sweep draws from: scalar
``SeedSequence``s and a ``Generator`` per stream.

``csdcsim.streams`` computes the same seed words for every trial and stream
in one pass (``seed_state``) and draws on all streams at once
(``Streams``); the tests compare both, and the sessions built on them,
against these references.
"""

import numpy as np


class Words(np.random.bit_generator.ISeedSequence):
    """An ISeedSequence of precomputed state words, all a PCG64 reads from its
    seed sequence."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 reads them through a raw pointer, so they must be contiguous
        words = np.ascontiguousarray(self.words, np.uint64)
        if dtype is not np.uint64 or words.shape != (n_words,):
            raise ValueError("precomputed words seed a PCG64 only")
        return words


def seeded_generator(words: np.ndarray) -> np.random.Generator:
    """``default_rng`` of the seed sequence whose ``seed_state`` row this is."""
    return np.random.Generator(np.random.PCG64(Words(words)))


def draw_random_bases(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``count`` photons, a uniformly random basis, its position
    in BASES, and then the uniform draw that measures it, interleaved on one
    stream in a scalar loop."""
    draws = np.array([(rng.integers(0, 2), rng.random()) for _ in range(count)]).reshape(count, 2)
    return draws[:, 0].astype(np.intp), draws[:, 1]


def stream_state(streams, row: int) -> dict:
    """Row ``row`` of a ``csdcsim.streams.Streams`` in the shape of
    ``PCG64.state``; ``uinteger`` only where a half is kept, as no draw reads
    the stale one numpy leaves once the kept half is used."""
    (hi, lo), (inc_hi, inc_lo) = streams._pcg[:, :, row].T.tolist()
    kept = int(streams.has_uint32[row])
    return {
        "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": kept,
        "uinteger": int(streams.uinteger[row]) if kept else None,
    }


def generator_state(rng: np.random.Generator) -> dict:
    """``rng``'s PCG64 state as ``stream_state`` gives it."""
    state = rng.bit_generator.state
    kept = state["has_uint32"]
    return {
        "state": state["state"],
        "has_uint32": kept,
        "uinteger": state["uinteger"] if kept else None,
    }


def _trial_seed(base_seed: int, trial: int) -> int:
    return int(
        np.random.SeedSequence(entropy=(base_seed, trial)).generate_state(1, np.uint64)[0]
    )


def _trial_message(base_seed: int, trial: int, capacity: int) -> str:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(base_seed, trial, 1)))
    return "".join(map(str, rng.integers(0, 2, size=capacity).tolist()))
