"""The random streams of sessions and sweeps are numpy's streams, bit for bit.

``streams.seed_state`` computes the state words of many seed sequences in one
pass, and ``streams.Streams`` draws on many PCG64 streams at once; these
tests pin the words against ``np.random.SeedSequence``, and every draw and
every stream's full state after it against a ``Generator`` per stream
(``stream_reference``).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csdcsim
from csdcsim import attacks
from csdcsim.attacks import (
    BasisStrategy, EntangleMeasure, InterceptResend, _trial_entropy, attack_cell_label,
    estimate_detection,
)
from csdcsim.protocol import EVE, MAX_PARTIES, MAX_TRIALS, ProtocolConfig, Session
from csdcsim.streams import Streams, seed_state
from stream_reference import (
    Words, _trial_message, _trial_seed, draw_random_bases, generator_state, seeded_generator,
    stream_state,
)

BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
# one-word and two-word seeds, drawn once
_DRAW = np.random.default_rng(20261018)
SEEDS = BOUNDARY_SEEDS + [
    int(seed) for high in (2**32, 2**64) for seed in _DRAW.integers(0, high, 100, dtype=np.uint64)
]
TRIALS = np.array([0, 1, 99, MAX_TRIALS - 1])
# the stream words of 300 seed sequences, (seed, 0, 0, 0) and (seed, 1, 0, 0)
# for each of the 150 seeds of one draw
PIN_ENTROPY = np.array(
    [(s & 0xFFFFFFFF, s >> 32, k, 0) for s in SEEDS[:150] for k in (0, 1)], np.uint32
).T
PERMUTED = [1, 2, 3, 5, 8, 13, 64, 2048]


def _entropy(seeds) -> np.ndarray:
    return np.array([(seed & 0xFFFFFFFF, seed >> 32, 0, 0) for seed in seeds], np.uint32).T


def pinned_streams(entropy=PIN_ENTROPY):
    """A ``Streams`` over the words of each column of ``entropy``, all its
    rows, and a reference ``Generator`` for each row."""
    words = seed_state(entropy)
    return Streams(words), np.arange(len(words)), [seeded_generator(w) for w in words]


def assert_states_match(streams, rows, generators):
    for row, rng in zip(rows.tolist(), generators):
        assert stream_state(streams, row) == generator_state(rng), row


def test_spawned_words_match_numpy_seed_sequences():
    words = seed_state(_entropy(SEEDS), MAX_PARTIES + 1)
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
        trials = len(session.seeds)
        assert session._streams.has_uint32.shape == ((parties + 1) * trials,)
        for i, name in enumerate(cfg.roster + (EVE,)):
            for k, seed in enumerate(session.seeds.tolist()):
                reference = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
                assert stream_state(session._streams, i * trials + k) == generator_state(reference)


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
        np.random.MT19937(Words(words))


# --- every draw, against a Generator per stream ----------------------------


def test_raw_words_and_states_match_numpy_pcg64():
    streams, rows, generators = pinned_streams()
    for stop in (0, 1, 9, 3000):
        words, states = streams._walk(rows, stop)
        references = [seeded_generator(w) for w in seed_state(PIN_ENTROPY)]
        expected = [rng.bit_generator.random_raw(stop) for rng in references]
        assert words.tolist() == np.array(expected).reshape(len(rows), stop).tolist()
    # a row put on by its own count of steps lands where its generator does
    steps = np.arange(len(rows)) % 7
    streams._step(rows, states, steps)
    for rng, step in zip(generators, steps.tolist()):
        rng.bit_generator.random_raw(step)
    assert_states_match(streams, rows, generators)


DRAWS = {
    "random": (Streams.random, lambda rng, n: rng.random(n)),
    "bits": (Streams.bits, lambda rng, n: rng.integers(0, 2, n)),
    "random_bases": (
        lambda streams, n, rows: np.stack(streams.random_bases(n, rows), axis=1),
        lambda rng, n: np.stack(draw_random_bases(rng, n)),
    ),
    "permutation": (Streams.permutation, lambda rng, n: rng.permutation(n)),
}
CASES = [(draw, n) for draw in DRAWS for n in (0, 1, 2, 7, 8, 33)] + [
    ("permutation", n) for n in PERMUTED if n not in (1, 2)
]


@pytest.mark.parametrize("draw, n", CASES, ids=[f"{draw}-{n}" for draw, n in CASES])
def test_draws_match_numpy_generators_from_either_half(draw, n):
    # every other row first draws one bit, so it starts on a kept half
    streams, rows, generators = pinned_streams()
    odd = rows[1::2]
    assert streams.bits(1, odd)[:, 0].tolist() == [rng.integers(0, 2) for rng in generators[1::2]]
    assert streams.has_uint32.tolist() == [0, 1] * (len(rows) // 2)
    ours, theirs = DRAWS[draw]
    got = ours(streams, n, rows)
    expected = np.array([theirs(rng, n) for rng in generators])
    assert got.dtype == expected.dtype if draw != "bits" else got.dtype == np.uint8
    assert got.tolist() == expected.reshape(got.shape).tolist()
    assert_states_match(streams, rows, generators)
    # and the next draw of each stream follows on
    assert streams.random(3, rows).tolist() == [rng.random(3).tolist() for rng in generators]
    assert_states_match(streams, rows, generators)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 16])
def test_the_senders_basis_draw_follows_the_permutation_on_a_kept_half(n):
    # S3 draws a permutation of the groups from uint32 halves and S4 the
    # checked bases on the same stream: a half S3 left kept comes first
    streams, rows, generators = pinned_streams()
    orders = streams.permutation(8, rows)
    assert orders.tolist() == [rng.permutation(8).tolist() for rng in generators]
    kept = streams.has_uint32.astype(bool)
    assert kept.any() and not kept.all()
    bases, uniforms = streams.random_bases(n, rows)
    for got_bases, got_uniforms, rng in zip(bases, uniforms, generators):
        want_bases, want_uniforms = draw_random_bases(rng, n)
        assert got_bases.tolist() == want_bases.tolist()
        assert got_uniforms.tolist() == want_uniforms.tolist()
    assert_states_match(streams, rows, generators)


def test_a_permutation_that_runs_out_of_words_walks_on_for_its_row_alone(monkeypatch):
    # (3596, 0, 0, 0)'s stream rejects so often that permutation(8) reads
    # past the 8 words of its first batch; found by a search over 20,000 seeds
    calls = []
    walk = Streams._walk

    def recording(self, rows, stop):
        calls.append((rows.tolist(), stop))
        return walk(self, rows, stop)

    monkeypatch.setattr(Streams, "_walk", recording)
    streams, rows, generators = pinned_streams(_entropy([3595, 3596, 3597]))
    orders = streams.permutation(8, rows)
    assert calls == [([0, 1, 2], 8), ([1], 16)]
    assert orders.tolist() == [rng.permutation(8).tolist() for rng in generators]
    assert_states_match(streams, rows, generators)


def replay_phase(session: Session, phase: str, generators: dict) -> None:
    """The draws of one phase of ``session``, on a reference generator per
    stream and trial; ``generators`` maps a stream's name to its trials'."""
    cfg, attack, live = session.config, session.config.attack, session._live
    probe = isinstance(attack, EntangleMeasure)
    groups = cfg.encoding_group_count
    if phase == "prepare_and_distribute" and isinstance(attack, InterceptResend):
        for rng in generators[EVE]:
            if attack.strategy is BasisStrategy.RANDOM:
                draw_random_bases(rng, cfg.triplet_count)
            else:
                rng.random(cfg.triplet_count)
    elif phase == "select_groups":
        for k, rng in enumerate(generators[cfg.sender]):
            order = rng.permutation(cfg.group_count)[: cfg.checking_group_count]
            assert session.checking_groups[k].tolist() == sorted(order + 1)
    elif phase == "run_check":
        count = cfg.checked_triplets
        bases = [draw_random_bases(rng, count)[0] for rng in generators[cfg.sender]]
        assert session._check_bases.tolist() == np.concatenate(bases).tolist()
        for party in (cfg.receiver,) + cfg.controllers + ((EVE,) if probe else ()):
            for rng in generators[party]:
                rng.random(count)
    elif phase == "controller_round":
        for ctrl in cfg.controllers:
            for k in live:
                generators[ctrl][k].random(2 * groups)
    elif phase == "encode_and_announce":
        for k in live:
            generators[cfg.sender][k].random(groups)
    elif phase == "receiver_decode":
        for party in (cfg.receiver,) + ((EVE,) if probe else ()):
            for k in live:
                generators[party][k].random(groups)


@pytest.mark.parametrize("parties", [3, 12])
@pytest.mark.parametrize(
    "attack", [InterceptResend(BasisStrategy.RANDOM), EntangleMeasure()], ids=attack_cell_label
)
def test_each_stream_matches_numpy_after_every_phase(attack, parties):
    cfg = ProtocolConfig(
        triplet_count=12, message_bits="0" * 6, party_count=parties, attack=attack, seed=0
    )
    seeds = np.arange(16, dtype=np.uint64)
    session = Session(cfg, seeds)
    names = cfg.roster + (EVE,)
    generators = {
        name: [np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(i,)))
               for seed in seeds.tolist()]
        for i, name in enumerate(names)
    }
    phases = ["prepare_and_distribute", "select_groups", "run_check", "controller_round",
              "encode_and_announce", "receiver_decode"]
    for phase in phases:
        getattr(session, phase)()
        replay_phase(session, phase, generators)
        for i, name in enumerate(names):
            rows = i * len(seeds) + np.arange(len(seeds))
            assert_states_match(session._streams, rows, generators[name])
    # aborted and completed trials in one session, and kept halves left
    assert 0 < np.count_nonzero(session.completed) < len(seeds)
    assert session._streams.has_uint32.any()


# --- numpy.random stays unloaded -------------------------------------------

PACKAGE_ROOT = str(Path(csdcsim.__file__).resolve().parents[1])
UNLOADED = """
import contextlib, io, sys
from csdcsim import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "verify"],
        ["--mode", "sweep", "--triplets", "8", "--trials", "20"],
        ["--mode", "run", "--triplets", "8", "--message", "0001", "--seed", "42"],
        ["--mode", "run", "--triplets", "8", "--message", "0001", "--seed", "42",
         "--attack", "intercept-resend", "--attack-basis", "random"],
        ["--mode", "run", "--triplets", "8", "--message", "0001", "--seed", "42",
         "--attack", "entangle-measure"],
    ],
    ids=["verify", "sweep", "run", "intercept-resend", "entangle-measure"],
)
def test_the_cli_leaves_numpy_random_unloaded(argv):
    # numpy.random costs 17-27 ms a process to import, and no stream needs it
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    if probe.stdout.split() != ["False"]:
        pytest.skip("this numpy imports numpy.random itself")
    child = subprocess.run(
        [sys.executable, "-c", UNLOADED, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
    )
    code, loaded = child.stdout.split()
    assert code in ("0", "2") and loaded == "False", child.stderr
