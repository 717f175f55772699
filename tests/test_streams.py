"""The random streams of sessions and sweeps are numpy's SeedSequence streams.

``protocol.seed_state`` computes the state words of many seed sequences in
one vectorised pass; these tests pin it word for word, and the generators
built from it state for state, against ``np.random.SeedSequence``.
"""

import numpy as np
import pytest

from csdcsim import attacks
from csdcsim.attacks import _trial_entropy, estimate_detection
from csdcsim.protocol import (
    EVE,
    MAX_PARTIES,
    MAX_TRIALS,
    ProtocolConfig,
    Session,
    _words_type,
    seed_state,
    seeded_generator,
)
from stream_reference import _trial_message, _trial_seed

BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
# one-word and two-word seeds, drawn once
_DRAW = np.random.default_rng(20261018)
SEEDS = BOUNDARY_SEEDS + [
    int(seed) for high in (2**32, 2**64) for seed in _DRAW.integers(0, high, 100, dtype=np.uint64)
]
TRIALS = np.array([0, 1, 99, MAX_TRIALS - 1])


def test_spawned_words_match_numpy_seed_sequences():
    entropy = np.array([(seed & 0xFFFFFFFF, seed >> 32, 0, 0) for seed in SEEDS], np.uint32).T
    words = seed_state(entropy, MAX_PARTIES + 1)
    assert words.shape == (MAX_PARTIES + 1, len(SEEDS), 4) and words.dtype == np.uint64
    for key in range(MAX_PARTIES + 1):
        for seed, got in zip(SEEDS, words[key]):
            expected = np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(4, np.uint64)
            assert got.tolist() == expected.tolist(), (seed, key)


@pytest.mark.parametrize("tail", [(), (1,)], ids=["seed", "message"])
def test_trial_words_match_numpy_seed_sequences(tail):
    for seed in SEEDS:
        words = seed_state(_trial_entropy(seed, TRIALS, *tail))
        for trial, got in zip(TRIALS.tolist(), words):
            sequence = np.random.SeedSequence((seed, trial, *tail))
            assert got.tolist() == sequence.generate_state(4, np.uint64).tolist(), (seed, trial)
            # a trial seed is the first word
            assert got[:1].tolist() == sequence.generate_state(1, np.uint64).tolist()


@pytest.mark.parametrize("parties", [3, 12])
def test_session_streams_equal_numpy_spawned_generators(parties):
    seeds = BOUNDARY_SEEDS + SEEDS[-3:]
    cfg = ProtocolConfig(triplet_count=8, message_bits="0001", party_count=parties, seed=seeds[0])
    for session in [Session(cfg), Session(cfg, seeds)]:
        for i, name in enumerate(cfg.roster + (EVE,)):
            assert len(session._rngs[name]) == len(session.seeds)
            for seed, rng in zip(session.seeds.tolist(), session._rngs[name]):
                reference = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
                assert rng.bit_generator.state == reference.bit_generator.state


def test_sweep_trials_get_the_reference_seeds_and_messages(monkeypatch):
    built = []

    class Recording(Session):
        def __init__(self, config, seeds, messages):
            assert seeds.dtype == np.uint64 and messages.dtype == np.uint8
            built.append((config, seeds.tolist(), messages.tolist()))
            super().__init__(config, seeds, messages)

    monkeypatch.setattr(attacks, "Session", Recording)
    monkeypatch.setattr(attacks, "SESSION_ROWS", 7 * 4)  # sessions of 7, 7 and 6 trials
    for seed in BOUNDARY_SEEDS:
        built.clear()
        base = ProtocolConfig(triplet_count=4, message_bits="00", seed=seed)
        estimate_detection(base, trials=20)
        assert [len(seeds) for _, seeds, _ in built] == [7, 7, 6]
        assert all(config is base for config, _, _ in built)
        assert sum((seeds for _, seeds, _ in built), []) == [
            _trial_seed(seed, trial) for trial in range(20)
        ]
        assert sum((messages for _, _, messages in built), []) == [
            list(map(int, _trial_message(seed, trial, 2))) for trial in range(20)
        ]


def test_precomputed_words_seed_nothing_but_a_pcg64():
    words = seed_state(np.zeros((4, 1), np.uint32))[0]
    assert seeded_generator(words).bit_generator.state == np.random.default_rng(0).bit_generator.state
    # a strided row seeds the same generator: PCG64 reads the words unchecked
    strided = np.asfortranarray(np.stack([words, words + 1]))[0]
    assert seeded_generator(strided).bit_generator.state == np.random.default_rng(0).bit_generator.state
    with pytest.raises(ValueError):
        np.random.MT19937(_words_type()(words))
