"""Unit tests for the session engine: phases, checking, and decoding."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdcsim.protocol import (
    ALICE,
    BOB,
    ConfigError,
    InternalError,
    MAX_PARTIES,
    MAX_TRIPLETS,
    ProtocolConfig,
    Session,
    coincidence_ok,
    roster_names,
    session_capacity,
    triplet_parity,
)
from csdcsim.attacks import BasisStrategy, EntangleMeasure, InterceptResend, attack_cell_label
from csdcsim.cli import SWEEP_CELLS
from csdcsim.states import ATOL, BASES, MeasurementBasis, QubitId, reorder, take_rows
from csdcsim.streams import Streams, seed_state
from csdcsim.transcript import format_transcript, parse_transcript
from kernel_reference import amplitude
from readout_reference import reference_readout
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
    ],
    ids=["no-trials", "no-messages", "more-messages-than-its-seed", "more-messages",
         "more-seeds", "wider", "narrower", "flat", "two", "negative", "fraction",
         "seed-fraction", "seed-fraction-array", "seed-negative", "seed-negative-array",
         "seed-past-64-bits", "seeds-2d-array", "seeds-2d", "seeds-string"],
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
    assert sess._index.shape == (cfg.triplet_count,)
    for n in range(1, cfg.triplet_count + 1):
        state = take_rows(prepared, sess._index[[n - 1]])
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
        encoding = sess._encoding
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
    with pytest.raises(InternalError):
        sess._measure_photons(
            np.array([0]), [(ALICE, "h")], [MeasurementBasis.COMPUTATIONAL], {ALICE: np.zeros(1)}
        )


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
    for trial in range(len(session.seeds)):
        result = session.result(trial)
        assert result.transcript == format_transcript(reference_records(session, trial)), trial
        assert result.records == tuple(parse_transcript(result.transcript))


def checked_readouts(monkeypatch, *trials) -> tuple[Session, int]:
    """Run a session whose every read-out (S4, then S5 if a trial passed)
    is checked against the per-row reference; returns it and the count."""
    real = Session._measure_photons
    readouts = []

    def compared(self, rows, measuring, bases, draws):
        want, want_left = reference_readout(self, rows, measuring, bases, draws)
        outcomes, left = real(self, rows, measuring, bases, draws)
        assert list(outcomes) == list(want)
        for party, column in want.items():
            assert outcomes[party].tolist() == column.tolist(), party
        assert left.qubits == want_left.qubits
        assert left.amps.tobytes() == want_left.amps.tobytes()
        readouts.append(rows)
        return outcomes, left

    monkeypatch.setattr(Session, "_measure_photons", compared)
    session = Session(*trials)
    session.run_trials()
    return session, len(readouts)


@pytest.mark.parametrize("triplets", [8, 64])
@pytest.mark.parametrize("parties", [3, 5, 12])
@pytest.mark.parametrize("attack", SWEEP_CELLS, ids=attack_cell_label)
def test_readout_matches_the_per_row_reference(monkeypatch, attack, parties, triplets):
    # S4 and S5 read each distinct register and branch once; that must give
    # the outcomes and bytes of reading every triplet's register out
    passed = 0
    for seed in range(10):
        cfg = config(
            triplet_count=triplets, message_bits=random_message(seed, triplets),
            party_count=parties, attack=attack, seed=seed,
        )
        session, readouts = checked_readouts(monkeypatch, cfg)
        assert readouts == 1 + session.completed[0], seed
        passed += session.completed[0]
    # an attacked trial of 64 triplets all but never passes its check
    assert passed or (attack is not None and triplets == 64)


def test_stacked_readout_matches_the_per_row_reference(monkeypatch):
    session, readouts = checked_readouts(monkeypatch, *stacked_trials(5))
    assert readouts == 2 and set(session.completed.tolist()) == {False, True}


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
