"""Unit tests for the session engine: phases, checking, and decoding."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csdcsim import protocol
from csdcsim.protocol import (
    ALICE,
    BOB,
    ConfigError,
    InternalError,
    MAX_PARTIES,
    MAX_TRIPLETS,
    ProtocolConfig,
    Session,
    _distinct,
    coincidence_ok,
    roster_names,
    session_capacity,
    triplet_parity,
    untapped,
)
from csdcsim.attacks import (
    BasisStrategy, EntangleMeasure, InterceptResend, attack_cell_label, estimate_cells,
)
from csdcsim.cli import SWEEP_CELLS
from csdcsim.states import (
    ATOL, BASES, MeasurementBasis, QubitId, measure_branches, reorder, take_rows,
)
from csdcsim.streams import Streams, seed_state
from csdcsim.transcript import EVE, format_transcript, parse_transcript
from kernel_reference import amplitude
from readout_reference import reference_decode, reference_encoding, reference_readout
from stream_reference import draw_random_bases, generator_state, stream_state
from transcript_reference import reference_records

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def config(**overrides) -> ProtocolConfig:
    base = dict(triplet_count=8, message_bits="0001", seed=42)
    base.update(overrides)
    return ProtocolConfig(**base)


def detail_fields(record) -> dict[str, str]:
    return dict(item.split("=", 1) for item in record.detail.split())


# --- configuration ------------------------------------------------------


def test_roster_names():
    assert roster_names(3) == ("ALICE", "BOB", "CTRL1")
    assert roster_names(5) == ("ALICE", "BOB", "CTRL1", "CTRL2", "CTRL3")


def test_capacity_accounting():
    cfg = config()
    assert cfg.group_count == 4
    assert cfg.checking_group_count == 2
    assert cfg.encoding_group_count == 2
    assert cfg.capacity_bits == 4
    assert session_capacity(8, 0.5) == 4
    assert session_capacity(10, 0.5) == 4  # ceil(2.5) = 3 checking groups
    assert session_capacity(4, 0.9) == 0


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5, float("nan"), float("inf")])
def test_capacity_rule_rejects_fractions_outside_the_open_interval(fraction):
    with pytest.raises(ConfigError):
        session_capacity(8, fraction)


@pytest.mark.parametrize("triplets", [7, 0, -2, MAX_TRIPLETS + 2])
def test_capacity_rule_rejects_triplet_counts_that_are_not_positive_and_even(triplets):
    with pytest.raises(ConfigError):
        session_capacity(triplets, 0.5)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(triplet_count=7),
        dict(triplet_count=0),
        dict(triplet_count=-2),
        dict(party_count=2),
        dict(check_fraction=0.0),
        dict(check_fraction=1.0),
        dict(seed=-1),
        dict(seed=2**64),
        dict(message_bits="00a1"),
        dict(message_bits="000"),
        dict(sender="EVE"),
        dict(sender="ALICE"),  # collides with the default receiver
        dict(party_count=MAX_PARTIES + 1),
        dict(triplet_count=MAX_TRIPLETS + 2),
        dict(seed=1.5),
        dict(seed="12"),
        dict(seed=True),
        dict(seed=np.bool_(True)),
        dict(triplet_count=np.True_),
        dict(party_count=True),
        # a value that is not an attack model, which would run untapped
        dict(attack="intercept-resend"),
        dict(attack=object()),
        dict(attack=SimpleNamespace(tap=None)),
        # a model's class, whose tap is unbound
        dict(attack=EntangleMeasure),
        dict(attack=InterceptResend),
        # a value with a callable tap that is not an attack model
        dict(attack=SimpleNamespace(tap=untapped)),
    ],
)
def test_invalid_configs_are_rejected(overrides):
    with pytest.raises(ConfigError):
        config(**overrides)


@pytest.mark.parametrize(
    "overrides, error",
    [
        (dict(triplet_count=8.0), "triplet count must be an integer"),
        (dict(triplet_count="8"), "triplet count must be an integer"),
        (dict(party_count=3.5), "party count must be an integer"),
        (dict(party_count=3.0), "party count must be an integer"),
        (dict(check_fraction="0.5"), "check fraction must be a real number"),
        (dict(check_fraction=None), "check fraction must be a real number"),
        (dict(check_fraction=0.5j), "check fraction must be a real number"),
        (dict(message_bits=["0", "0", "0", "1"]), "message must be a string"),
        (dict(message_bits=b"0001"), "message must be a string"),
    ],
    ids=[
        "triplets-float", "triplets-string", "parties-float", "parties-whole-float",
        "fraction-string", "fraction-none", "fraction-complex", "message-list", "message-bytes",
    ],
)
def test_configs_of_the_wrong_type_are_rejected(overrides, error):
    with pytest.raises(ConfigError, match=error):
        config(**overrides)


def test_a_trial_outside_the_session_is_rejected():
    session = Session(ProtocolConfig(8, "0001"), [3, 4], np.zeros((2, 4), int))
    session.run_trials()
    assert [session.result(trial).config.seed for trial in (0, 1)] == [3, 4]
    assert session.result(np.int64(1)) == session.result(1)
    # a negative trial would slice no rows, and write a transcript without its S4 lines
    for trial in (-1, -2, 2, "0", 0.0, True):
        with pytest.raises(IndexError, match="is not one of the session's 2"):
            session.result(trial)


def test_a_session_that_has_not_run_has_no_result():
    with pytest.raises(RuntimeError, match="not run"):
        Session(ProtocolConfig(8, "0001")).result(0)


PHASES = ("prepare_and_distribute", "select_groups", "run_check", "controller_round",
          "encode_and_announce", "receiver_decode")


@pytest.mark.parametrize("ran", range(1, len(PHASES)))
def test_a_partly_run_session_has_no_result(ran):
    # a run ends only when run_trials has checked that every photon was
    # measured, so no proper prefix of the phases gives a result
    session = Session(ProtocolConfig(8, "0001"))
    for phase in PHASES[:ran]:
        getattr(session, phase)()
    with pytest.raises(RuntimeError, match="not run"):
        session.result(0)


def test_a_fork_has_no_result_until_it_has_run():
    session = Session(ProtocolConfig(8, "0001"))
    session.select_groups()
    fork = session.fork(InterceptResend())
    for unrun in (session, fork):
        with pytest.raises(RuntimeError, match="not run"):
            unrun.result(0)
    fork.run_trials()
    assert fork.result(0).violations == fork.violations[0]
    with pytest.raises(RuntimeError, match="not run"):
        session.result(0)


FORKS = "forks only after S3 and before S1"
S1_S3 = ("prepare_and_distribute", "select_groups")
S1_S4 = S1_S3 + ("run_check",)
S1_S5 = S1_S4 + ("controller_round",)
S1_S7 = S1_S5 + ("encode_and_announce",)
# each misuse: the steps a session has taken, the one it is refused, and the refusal
MISUSES = {
    "fork-before-S3": ((), "fork", FORKS),
    "fork-after-S1-and-S3": (S1_S3, "fork", FORKS),
    "fork-after-run-trials": (("run_trials",), "fork", FORKS),
    "second-run-trials": (("run_trials",), "run_trials", "runs once: it has ended"),
    "second-run-trials-on-a-fork": (
        ("select_groups", "fork", "run_trials"), "run_trials", "runs once: it has ended"
    ),
    "S1-after-run-trials": (("run_trials",), "prepare_and_distribute", "runs once: it has ended"),
    "second-S4": (S1_S4, "run_check", "runs once: S4 has already run"),
    "second-S5": (S1_S5, "controller_round", "runs once: S5 has already run"),
    "second-S7": (S1_S7, "encode_and_announce", "runs once: S7 has already run"),
    "second-S9": (S1_S7 + ("receiver_decode",), "receiver_decode", "runs once: S9 has already run"),
    "S4-on-a-fresh-session": ((), "run_check", "S4 runs only after S1 and S3"),
    "S4-before-S1": (("select_groups",), "run_check", "S4 runs only after S1$"),
    "S4-before-S3": (("prepare_and_distribute",), "run_check", "S4 runs only after S3"),
    "S5-on-a-fresh-session": ((), "controller_round", "S5 runs only after S4"),
    "S7-on-a-fresh-session": ((), "encode_and_announce", "S7 runs only after S5"),
    "S9-on-a-fresh-session": ((), "receiver_decode", "S9 runs only after S7"),
    "S5-after-every-trial-aborted": (
        S1_S4, "controller_round", "S5 runs only after a trial passed S4"
    ),
}
# the session's seed where it is not 0: at 0 its one trial passes S4, at 2 it aborts
MISUSE_SEEDS = {"S5-after-every-trial-aborted": 2}


def _take(session: Session, step: str) -> Session:
    """Take one step: a phase or driver, or a fork, which the session becomes."""
    if step == "fork":
        return session.fork(EntangleMeasure())
    getattr(session, step)()
    return session


@pytest.mark.parametrize("misuse", MISUSES)
def test_a_session_runs_once_and_forks_only_between_s3_and_s1(misuse):
    # refused with a RuntimeError, not an InternalError or a numpy error from
    # deep in a phase, before any stream draws a number
    steps, refused_step, refusal = MISUSES[misuse]
    seed = MISUSE_SEEDS.get(misuse, 0)
    session = Session(ProtocolConfig(8, "0001", attack=InterceptResend(), seed=seed))
    for step in steps:
        session = _take(session, step)
    streams = {name: array.copy() for name, array in vars(session._streams).items()}
    ran = session._ran
    result = session.result(0) if "end" in ran else None
    with pytest.raises(RuntimeError, match=refusal) as refused:
        _take(session, refused_step)
    assert not isinstance(refused.value, InternalError)
    assert session._ran == ran  # a refused phase is not recorded as run
    for name, array in vars(session._streams).items():
        assert np.array_equal(array, streams[name]), name
    if result is not None:
        assert session.result(0) == result


@pytest.mark.parametrize("seed", [0, 2])  # the one trial passes S4 at seed 0, aborts at 2
@pytest.mark.parametrize(
    "steps", [(), S1_S3, ("select_groups",), S1_S4], ids=["fresh", "S1-S3", "S3", "S1-S4"]
)
def test_run_trials_runs_the_phases_not_yet_run(steps, seed):
    # S1 and S3 commute, and a session part way through (or after S3 alone,
    # as a sweep's is) ends as a fresh run does
    cfg = ProtocolConfig(8, "0001", attack=InterceptResend(), seed=seed)
    session = Session(cfg)
    for step in steps:
        getattr(session, step)()
    session.run_trials()
    assert session.result(0) == Session(cfg).run()
    assert session.result(0).completed == (seed == 0)


def test_numpy_numbers_are_accepted_where_python_ones_are():
    cfg = config(triplet_count=np.int64(8), party_count=np.int32(3), check_fraction=np.float32(0.5))
    assert cfg.capacity_bits == 4 and cfg.roster == ("ALICE", "BOB", "CTRL1")
    assert Session(cfg).run().match


def test_trials_left_out_take_the_configs_own_seed_and_message():
    cfg = config()
    session = Session(cfg, seeds=[cfg.seed, 7], messages=[[0, 0, 0, 1], [1, 1, 1, 0]])
    session.run_trials()
    assert session.result(0).config == cfg
    assert session.result(1).config == replace(cfg, seed=7, message_bits="1110")
    assert Session(cfg).seeds.tolist() == [cfg.seed]
    assert Session(cfg, seeds=[1, 2]).messages.tolist() == [[0, 0, 0, 1]] * 2
    assert Session(cfg, messages=[[1, 1, 1, 0]]).seeds.tolist() == [cfg.seed]
    # a list of Python ints past 2**63 stays exact, not a float array
    assert Session(cfg, seeds=[1, 2**64 - 1]).seeds.tolist() == [1, 2**64 - 1]


@pytest.mark.parametrize(
    "trials, error",
    [
        (dict(seeds=[]), "one or more trials"),
        (dict(messages=np.zeros((0, 4), np.uint8)), "1 seed.* but 0 message"),
        (dict(messages=np.zeros((2, 4), np.uint8)), "1 seed.* but 2 message"),
        (dict(seeds=[1, 2], messages=np.zeros((3, 4), np.uint8)), "2 seed.* but 3 message"),
        (dict(seeds=[1, 2], messages=np.zeros((1, 4), np.uint8)), "2 seed.* but 1 message"),
        (dict(messages=np.zeros((1, 6), np.uint8)), "4 bits long"),
        (dict(messages=np.zeros((1, 2), np.uint8)), "4 bits long"),
        (dict(seeds=[1, 2, 3, 4], messages=np.zeros(4, np.uint8)), "4 bits long"),
        (dict(messages=[[0, 0, 2, 1]]), "0s and 1s"),
        (dict(messages=[[0, 0, -1, 1]]), "0s and 1s"),
        (dict(messages=[[0, 0, 0.5, 1]]), "0s and 1s"),
        (dict(seeds=[1.7]), "seeds must be a 1-D sequence of integers"),
        (dict(seeds=np.array([1.7])), "seeds must be a 1-D sequence of integers"),
        (dict(seeds=[-1]), "seeds must be a 1-D sequence of integers"),
        (dict(seeds=np.array([-1])), "seeds must be a 1-D sequence of integers"),
        (dict(seeds=[2**64]), "seeds must be a 1-D sequence of integers"),
        (dict(seeds=np.zeros((1, 1), np.uint64)), "seeds must be a 1-D sequence of integers"),
        (dict(seeds=[[1]]), "seeds must be a 1-D sequence of integers"),
        (dict(seeds="12"), "seeds must be a 1-D sequence of integers"),
        (dict(seeds=[True]), "seeds must be a 1-D sequence of integers"),
        (dict(seeds=[1, np.bool_(False)]), "seeds must be a 1-D sequence of integers"),
        (dict(seeds=np.array([True])), "seeds must be a 1-D sequence of integers"),
        # past the row budget, refused before any stream is built
        (dict(seeds=np.arange(2049)), "2049 trials exceed the 2048 that fit in one session"),
    ],
    ids=["no-trials", "no-messages", "more-messages-than-its-seed", "more-messages",
         "more-seeds", "wider", "narrower", "flat", "two", "negative", "fraction",
         "seed-fraction", "seed-fraction-array", "seed-negative", "seed-negative-array",
         "seed-past-64-bits", "seeds-2d-array", "seeds-2d", "seeds-string", "seed-bool",
         "seed-numpy-bool", "seed-bool-array", "past-the-row-budget"],
)
def test_a_session_rejects_trials_that_do_not_fit_its_config(trials, error):
    with pytest.raises(ConfigError, match=error):
        Session(config(), **trials)


def test_twelve_parties_are_within_the_ceiling():
    # the widest benchmark workload, run-wide, has 12 parties
    assert MAX_PARTIES >= 12
    assert config(party_count=12).party_count == 12


def test_two_triplets_leave_no_encoding_capacity():
    with pytest.raises(ConfigError):
        ProtocolConfig(triplet_count=2, message_bits="00", seed=0)


def test_message_must_fill_capacity_exactly():
    with pytest.raises(ConfigError):
        config(message_bits="00")
    with pytest.raises(ConfigError):
        config(message_bits="000100")


# --- checking rule ------------------------------------------------------

Z, X = map(BASES.index, (MeasurementBasis.COMPUTATIONAL, MeasurementBasis.DIAGONAL))


def test_computational_rule_accepts_equal_bits():
    assert coincidence_ok(Z, (0, 0, 0))
    assert coincidence_ok(Z, (1, 1, 1, 1))
    assert not coincidence_ok(Z, (0, 1, 0))


def test_diagonal_rule_accepts_even_parity():
    assert coincidence_ok(X, (0, 0, 0))
    assert coincidence_ok(X, (1, 1, 0))
    assert coincidence_ok(X, (0, 1, 1))
    assert not coincidence_ok(X, (1, 0, 0))
    assert not coincidence_ok(X, (1, 1, 1))


@given(st.lists(st.integers(0, 1), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_diagonal_rule_is_the_xor(bits):
    assert coincidence_ok(X, bits) == (sum(bits) % 2 == 0)


def test_random_bases_match_the_scalar_reference_loop():
    # entropy (seed, 0, 0, 0) seeds the stream default_rng(seed) seeds
    seeds = list(range(50))
    entropy = np.zeros((4, len(seeds)), np.uint32)
    entropy[0] = seeds
    rows = np.arange(len(seeds))
    for count in (0, 1, 2, 7, 64, 513):
        for kept in (False, True):
            streams = Streams(seed_state(entropy))
            generators = [np.random.default_rng(seed) for seed in seeds]
            if kept:  # start the draw on a kept half
                streams.bits(1, rows)
                for rng in generators:
                    rng.integers(0, 2)
            bases, uniforms = streams.random_bases(count, rows)
            for row, rng in zip(rows.tolist(), generators):
                expected_bases, expected_uniforms = draw_random_bases(rng, count)
                assert bases[row].tolist() == expected_bases.tolist(), (row, count, kept)
                assert uniforms[row].tolist() == expected_uniforms.tolist(), (row, count, kept)
                assert stream_state(streams, row) == generator_state(rng), (row, count, kept)


def test_triplet_parity_is_xor():
    assert triplet_parity((0,)) == 0
    assert triplet_parity((1, 1)) == 0
    assert triplet_parity((1, 0, 1, 1)) == 1


# --- state preparation --------------------------------------------------


@pytest.mark.parametrize("parties", [3, 4])
def test_prepared_triplets_are_ghz(parties):
    cfg = config(party_count=parties)
    sess = Session(cfg)
    sess.prepare_and_distribute()
    width = 2 + (parties - 2)
    prepared = sess._prepared
    assert prepared.num_qubits == width
    # every triplet's row of the index names one register of the stack
    assert sess._index.shape == (1, cfg.triplet_count)
    for n in range(1, cfg.triplet_count + 1):
        state = take_rows(prepared, sess._index[0, [n - 1]])
        ends = "0" * width, "1" * width
        for bits in ends:
            assert np.isclose(amplitude(state, bits), INV_SQRT2, atol=ATOL)


def test_group_selection_is_seed_deterministic():
    first = Session(config())
    first.prepare_and_distribute()
    first.select_groups()
    second = Session(config())
    second.prepare_and_distribute()
    second.select_groups()
    assert np.array_equal(first.checking_groups, second.checking_groups)
    assert np.array_equal(first.encoding_groups, second.encoding_groups)
    # every group is checking or encoding, and both kinds occur
    kinds = first.checking_groups[0].tolist(), first.encoding_groups[0].tolist()
    assert all(kinds) and sorted(kinds[0] + kinds[1]) == list(range(1, 5))


def test_controller_collapse_leaves_signed_pair():
    # the residual home/travel pair carries the controller parity in its sign
    for seed in range(12):
        parties = 3 + seed % 3
        cfg = config(seed=seed, party_count=parties)
        sess = Session(cfg)
        sess.prepare_and_distribute()
        sess.select_groups()
        assert sess.run_check()
        sess.controller_round()
        # one row per encoding triplet, in group order
        encoding = take_rows(*sess._encoding)
        assert encoding.rows == 2 * sess.encoding_groups.shape[1]
        home, travel = QubitId(1, "h"), QubitId(1, "t")
        for i in range(sess.encoding_groups.shape[1]):
            for slot_index in range(2):
                state = take_rows(encoding, [2 * i + slot_index])
                state = reorder(state, (home, travel))
                sign = -1.0 if sess.parities[0, 2 * i + slot_index] else 1.0
                assert np.isclose(amplitude(state, "00"), INV_SQRT2, atol=ATOL)
                assert np.isclose(amplitude(state, "11"), sign * INV_SQRT2, atol=ATOL)
                assert abs(amplitude(state, "01")) < ATOL
                assert abs(amplitude(state, "10")) < ATOL


# --- full sessions ------------------------------------------------------


def test_honest_session_decodes_the_message():
    result = Session(config()).run()
    assert result.completed
    assert result.match
    assert result.decoded_bits == "0001"
    assert result.violations == 0
    assert result.config.checked_triplets == 4


def test_roles_can_rotate():
    for sender, receiver in [(ALICE, BOB), ("CTRL1", ALICE), (BOB, "CTRL1")]:
        result = Session(config(sender=sender, receiver=receiver)).run()
        assert result.completed and result.match, (sender, receiver)


def test_all_photons_accounted_for():
    sess = Session(config())
    sess.run()
    # every prepared register was taken out, and the phase stacks are spent
    assert sess._taken.all()
    assert sess._encoding is None and sess._pairs is None


def test_measuring_a_photon_twice_is_an_internal_error():
    sess = Session(config())
    sess.prepare_and_distribute()
    sess.select_groups()
    assert sess.run_check()
    # a checking group's photons were all measured in S4
    sess.encoding_groups[0, 0] = sess.checking_groups[0, 0]
    with pytest.raises(InternalError):
        sess.controller_round()
    sess = Session(config())
    sess.run()
    first, twice = np.array([[1]]), np.array([[1, 1]])
    with pytest.raises(InternalError):
        sess._measure_photons(np.array([0]), first, [(ALICE, "h")], Z, {ALICE: np.zeros((1, 1))})
    # one read-out that names a triplet twice, none of it measured before
    sess = Session(config())
    sess.prepare_and_distribute()
    with pytest.raises(InternalError):
        sess._measure_photons(np.array([0]), twice, [(ALICE, "h")], Z, {ALICE: np.zeros((1, 2))})


# the wire labels of the protocol module's docstring, in protocol order
PHASE_LABELS = ("S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S11")


def test_phases_are_monotonic():
    # an honest session; an eavesdropped one that aborts (TAP,
    # ANCILLA_MEASURE and ABORT records); one that completes (ANCILLA_BELL)
    sessions = ({}, dict(seed=1, attack=EntangleMeasure()), dict(seed=0, attack=EntangleMeasure()))
    actions = set()
    for overrides in sessions:
        records = Session(config(**overrides)).run().records
        labels = [r.phase for r in records]
        assert set(labels) <= set(PHASE_LABELS), overrides
        orders = [PHASE_LABELS.index(label) for label in labels]
        assert orders == sorted(orders), overrides
        actions.update(r.action for r in records)
    assert {"TAP", "ANCILLA_MEASURE", "ABORT", "ANCILLA_BELL", "COMPLETE"} <= actions


def test_sequence_numbers_are_dense():
    result = Session(config()).run()
    assert [r.seq for r in result.records] == list(range(1, len(result.records) + 1))


def test_transcript_round_trips():
    result = Session(config()).run()
    text = format_transcript(result.records)
    assert text == result.transcript
    assert parse_transcript(text) == list(result.records)
    assert format_transcript(parse_transcript(text)) == text


def random_message(seed: int, triplets: int) -> str:
    bits = np.random.default_rng(seed).integers(0, 2, session_capacity(triplets, 0.5))
    return "".join(map(str, bits.tolist()))


def stacked_trials(parties: int) -> tuple[ProtocolConfig, np.ndarray, np.ndarray]:
    """Twelve intercept-resend trials of 16 triplets: a config, seeds, messages."""
    seeds = np.arange(12, dtype=np.uint64)
    messages = np.array([list(map(int, random_message(seed, 16))) for seed in range(12)])
    cfg = config(triplet_count=16, message_bits=random_message(0, 16), party_count=parties,
                 attack=InterceptResend(BasisStrategy.RANDOM))
    return cfg, seeds, messages


@pytest.mark.parametrize("triplets", [8, 64])
@pytest.mark.parametrize("parties", [3, 5])
@pytest.mark.parametrize(
    "attack",
    [
        None, InterceptResend(BasisStrategy.RANDOM), InterceptResend(BasisStrategy.ALWAYS_Z),
        EntangleMeasure(),
    ],
    ids=attack_cell_label,
)
def test_transcript_text_matches_the_reference_records(attack, parties, triplets):
    # the text written straight from the phase arrays, against records
    # emitted one at a time from the same arrays; aborted trials included
    for seed in range(10):
        cfg = config(
            triplet_count=triplets, message_bits=random_message(seed, triplets),
            party_count=parties, attack=attack, seed=seed,
        )
        session = Session(cfg)
        result = session.run()
        assert result.transcript == format_transcript(reference_records(session, 0)), seed
        assert result.records == tuple(parse_transcript(result.transcript))


@pytest.mark.parametrize("parties", [3, 5])
def test_stacked_transcripts_match_the_reference_records(parties):
    # every trial of a stacked session, those after an aborted one included
    session = Session(*stacked_trials(parties))
    session.run_trials()
    # past the first trial, some abort and some complete
    assert set(session.completed[1:].tolist()) == {False, True}
    # a trial is one row: of every trial, or from S5 on of every trial that passed
    trials, passed = len(session.seeds), len(session._live)
    per_trial = [
        session._index, session._taken, session._tap[0], session._tap[1], session.checking_groups,
        session.encoding_groups, session._check_bases, *session._check_bits.values(),
        session.violations, session.completed, session.abort_triplet, session.decoded,
    ]
    per_passing = [
        *session._controller_bits.values(), session.parities, session._ops,
        session._sender_bell, session._receiver_bell, session._ancilla_bell,
    ]
    assert [len(array) for array in per_trial] == [trials] * len(per_trial)
    assert [len(array) for array in per_passing] == [passed] * len(per_passing)
    for trial in range(len(session.seeds)):
        result = session.result(trial)
        assert result.transcript == format_transcript(reference_records(session, trial)), trial
        assert result.records == tuple(parse_transcript(result.transcript))


@given(st.lists(st.integers(0, 40), min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
@example([7])  # one key
@example([3, 3, 3, 3])  # all keys equal
@example([0, 9, 2, 9, 30, 2])  # gaps in the key range
def test_distinct_is_unique_with_its_inverse(keys):
    for dtype in (np.intp, np.int64, np.int32):
        typed = np.array(keys, dtype)
        values, inverse = _distinct(typed)
        want_values, want_inverse = np.unique(typed, return_inverse=True)
        assert values.dtype == want_values.dtype and inverse.dtype == want_inverse.dtype
        assert values.tolist() == want_values.tolist()
        assert inverse.tolist() == want_inverse.tolist()


def assert_same_rows(got, want):
    assert got.qubits == want.qubits
    assert got.amps.tobytes() == want.amps.tobytes()


def checked_readouts(monkeypatch, *trials) -> tuple[Session, list[str]]:
    """Run a session whose every read-out (S4, then S5, S7 and S9 if a
    trial passed) is checked against the per-row reference; returns it and
    the labels of the read-outs checked, in order."""
    real, real_uniforms = Session._measure_photons, Session._uniforms
    real_encode, real_decode = Session.encode_and_announce, Session.receiver_decode
    readouts, drawn = [], []

    def compared(self, trials, triplets, measuring, bases, draws):
        want, want_left = reference_readout(self, trials, triplets, measuring, bases, draws)
        outcomes, left, index = real(self, trials, triplets, measuring, bases, draws)
        assert list(outcomes) == list(want)
        for party, column in want.items():
            assert outcomes[party].tolist() == column.tolist(), party
        assert_same_rows(take_rows(left, index), want_left)
        readouts.append("S5" if readouts else "S4")
        return outcomes, left, index

    def recorded(self, parties, count, trials):
        drawn.append(real_uniforms(self, parties, count, trials))
        return drawn[-1]

    def encode(self):
        encoding = take_rows(*self._encoding)
        real_encode(self)
        sender = drawn[-1][self.config.sender].ravel()
        want, want_left = reference_encoding(encoding, self._ops.ravel(), sender)
        assert self._sender_bell.ravel().tolist() == want.tolist()
        assert_same_rows(take_rows(*self._pairs), want_left)
        readouts.append("S7")

    def decode(self):
        pairs = take_rows(*self._pairs)
        real_decode(self)
        want = reference_decode(pairs, {party: draws.ravel() for party, draws in drawn[-1].items()})
        assert self._receiver_bell.ravel().tolist() == want[self.config.receiver].tolist()
        assert self._ancilla_bell.ravel().tolist() == want.get(EVE, np.zeros(0)).tolist()
        readouts.append("S9")

    monkeypatch.setattr(Session, "_measure_photons", compared)
    monkeypatch.setattr(Session, "_uniforms", recorded)
    monkeypatch.setattr(Session, "encode_and_announce", encode)
    monkeypatch.setattr(Session, "receiver_decode", decode)
    session = Session(*trials)
    session.run_trials()
    return session, readouts


ENCODING_READOUTS = ["S4", "S5", "S7", "S9"]


@pytest.mark.parametrize("triplets", [8, 64])
@pytest.mark.parametrize("parties", [3, 5, 12])
@pytest.mark.parametrize("attack", SWEEP_CELLS, ids=attack_cell_label)
def test_readout_matches_the_per_row_reference(monkeypatch, attack, parties, triplets):
    # S4, S5, S7 and S9 read each distinct register and branch once; that
    # must give the outcomes and bytes of reading every triplet's or group's
    # register out
    passed = 0
    for seed in range(10):
        cfg = config(
            triplet_count=triplets, message_bits=random_message(seed, triplets),
            party_count=parties, attack=attack, seed=seed,
        )
        session, readouts = checked_readouts(monkeypatch, cfg)
        assert readouts == ENCODING_READOUTS[: 1 + 3 * session.completed[0]], seed
        passed += session.completed[0]
    # an attacked trial of 64 triplets all but never passes its check
    assert passed or (attack is not None and triplets == 64)


def test_stacked_readout_matches_the_per_row_reference(monkeypatch):
    session, readouts = checked_readouts(monkeypatch, *stacked_trials(5))
    assert readouts == ENCODING_READOUTS and set(session.completed.tolist()) == {False, True}


def test_the_s4_and_s5_read_outs_keep_a_few_registers(monkeypatch):
    # S4 and S5 keep each branch once by its bytes, not once per (register,
    # outcome) path: at twelve parties the paths run to hundreds, the GHZ
    # branches they reach to a handful
    rows = []

    def recorded(state, *args):
        rows.append(state.rows)
        return measure_branches(state, *args)

    monkeypatch.setattr(protocol, "measure_branches", recorded)
    wide = config(triplet_count=512, message_bits=random_message(0, 512), party_count=12)
    assert Session(wide).run().completed
    assert len(rows) == 12 + 10 and max(rows) <= 8, rows
    rows.clear()
    # one chunk session of a T=16 sweep, every cell forked from it: the
    # untapped cell's twelve S4 and ten S5 read-outs first, then the tapped
    # cells', whose taps leave up to four registers, each read in two bases
    sweep = config(triplet_count=16, message_bits=random_message(0, 16), party_count=12)
    assert SWEEP_CELLS[0] is None
    estimate_cells(sweep, 1000, SWEEP_CELLS)
    assert max(rows[:12 + 10]) <= 8 and max(rows) <= 16, rows


def test_same_seed_same_transcript():
    a = Session(config()).run()
    b = Session(config()).run()
    assert format_transcript(a.records) == format_transcript(b.records)


def test_different_seed_different_run():
    a = Session(config(seed=1)).run()
    b = Session(config(seed=2)).run()
    assert format_transcript(a.records) != format_transcript(b.records)


def test_verdict_counts_every_checked_triplet():
    result = Session(config()).run()
    verdicts = [r for r in result.records if r.action == "CHECK_VERDICT"]
    assert len(verdicts) == 1
    assert detail_fields(verdicts[0])["checked"] == "4"


def test_abort_ends_the_transcript():
    # a frozen seed known to trip the eavesdropping check
    cfg = config(seed=2, attack=InterceptResend(BasisStrategy.RANDOM))
    result = Session(cfg).run()
    assert not result.completed
    assert result.decoded_bits is None
    assert not result.match
    assert result.abort_triplet is not None
    assert result.records[-1].action == "ABORT"
    assert result.violations > 0
    verdict, abort = result.records[-2:]
    assert verdict.detail == f"verdict=abort checked=4 violations={result.violations}"
    assert abort.detail == f"reason=check_failed triplet={result.abort_triplet}"


def test_checked_photons_are_consumed_even_on_abort():
    cfg = config(seed=2, attack=InterceptResend(BasisStrategy.RANDOM))
    sess = Session(cfg)
    result = sess.run()
    assert not result.completed
    checked = {
        int(detail_fields(r)["triplet"]) for r in result.records if r.action == "CHECK_ANNOUNCE"
    }
    assert len(checked) == 4
    # exactly the checked registers were taken out; the encoding groups'
    # photons are left alive after an abort
    assert set((np.flatnonzero(sess._taken) + 1).tolist()) == checked


def test_message_detail_formats():
    result = Session(config()).run()
    by_action = {}
    for record in result.records:
        by_action.setdefault(record.action, record)
    assert by_action["PREPARE"].detail == "triplets=8 parties=3 groups=4"
    selection = by_action["GROUP_SELECTION"].detail
    assert selection.startswith("checking=") and " encoding=" in selection
    assert by_action["CHECK_ANNOUNCE"].detail.startswith("triplet=")
    assert "outcome=" in by_action["BELL_ANNOUNCE"].detail
