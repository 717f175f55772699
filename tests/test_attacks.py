"""Unit tests for eavesdropping models and detection statistics."""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from csdcsim import attacks, bases, states
from csdcsim.attacks import (
    BasisStrategy,
    EntangleMeasure,
    InterceptResend,
    NoAttack,
    abort_probability,
    attack_cell_label,
    detection_oracle,
    estimate_detection,
    eve_group_information,
)
from csdcsim.cli import SWEEP_CELLS
from csdcsim.protocol import MAX_PARTIES, MAX_TRIALS, SESSION_ROWS, ProtocolConfig, Session
from csdcsim.states import (
    BASES, MeasurementBasis, QubitId, apply_cnot, collapse_qubit, make_state, take_rows, tensor,
)
from csdcsim.streams import Streams, seed_state
from kernel_reference import amplitude
from stream_reference import _trial_message, _trial_seed, draw_random_bases, seeded_generator

ALL_ATTACKS = [
    InterceptResend(BasisStrategy.RANDOM),
    InterceptResend(BasisStrategy.ALWAYS_Z),
    InterceptResend(BasisStrategy.ALWAYS_X),
    EntangleMeasure(),
]


def config(**overrides) -> ProtocolConfig:
    base = dict(triplet_count=8, message_bits="0001", seed=0)
    base.update(overrides)
    return ProtocolConfig(**base)


# --- attack mechanics ---------------------------------------------------


def stream_words(seed, trials):
    """The seed words of one stream for each of ``trials`` trials."""
    return seed_state(np.array([[seed, k, 0, 0] for k in range(trials)], np.uint32).T)


def streams(seed, trials):
    """A ``Streams`` with one row for each trial, and its rows, as a session
    hands EVE's to a tap."""
    return Streams(stream_words(seed, trials)), np.arange(trials)


def test_no_attack_is_the_identity():
    qubit = QubitId(1, "t")
    state = make_state((qubit,), [0.6, 0.8])
    out, index, seen = NoAttack().tap(qubit, state, *streams(0, 3), 1)
    assert out is state
    assert index.tolist() == [0, 0, 0]
    assert seen.shape == (2, 0)


def test_intercept_resend_collapses_to_an_eigenstate():
    qubit = QubitId(1, "t")
    for seed in range(20):
        state = make_state((qubit,), [0.6, 0.8])
        out, index, (bases, outcomes) = InterceptResend(BasisStrategy.ALWAYS_Z).tap(
            qubit, state, *streams(seed, 1), 1
        )
        assert bases.tolist() == [BASES.index(MeasurementBasis.COMPUTATIONAL)]
        assert index.tolist() == [2 * bases[0] + outcomes[0]]
        assert np.isclose(abs(amplitude(take_rows(out, index), str(outcomes[0]))), 1.0)


def test_entangle_measure_adds_one_ancilla():
    qubit = QubitId(3, "t")
    state = make_state((qubit,), [1, 0])
    out, index, seen = EntangleMeasure().tap(qubit, state, *streams(0, 1), 1)
    assert out.rows == 1 and index.tolist() == [0]
    assert seen.shape == (2, 0)
    assert set(out.qubits) == {qubit, QubitId(3, "e")}


@pytest.mark.parametrize("attack", ALL_ATTACKS, ids=attack_cell_label)
@pytest.mark.parametrize("parties", [3, 5, 12])
def test_taps_match_per_row_kernels_bit_for_bit(parties, attack):
    # a tap reads every triplet off one register; it must give the bytes
    # the kernels give on a stack of that register, one row per triplet
    roles = ("h", "t") + tuple(f"c{j}" for j in range(1, parties - 1))
    ghz = np.zeros(1 << parties)
    ghz[0] = ghz[-1] = 1.0
    register = make_state([QubitId(1, role) for role in roles], ghz)
    travel = QubitId(1, "t")
    trials, count = 3, 16
    for seed in range(4):
        eve, rows = streams(seed, trials)
        stack, index, (bases, outcomes) = attack.tap(travel, register, eve, rows, count)
        broadcast = take_rows(register, np.zeros(trials * count, np.intp))
        if isinstance(attack, EntangleMeasure):
            probe = QubitId(1, "e")
            expected = tensor(broadcast, make_state((probe,), [1.0, 0.0]))
            expected = apply_cnot(expected, travel, probe)
            assert bases.size == outcomes.size == 0
        else:
            drawn = [seeded_generator(words) for words in stream_words(seed, trials)]
            if attack.strategy is BasisStrategy.RANDOM:
                picks = [draw_random_bases(rng, count) for rng in drawn]
                want, uniforms = (np.concatenate(column) for column in zip(*picks))
            else:
                uniforms = np.concatenate([rng.random(count) for rng in drawn])
                basis = MeasurementBasis(attack.strategy.value.upper())
                want = np.full(len(uniforms), BASES.index(basis))
            got, expected = collapse_qubit(broadcast, travel, want, uniforms)
            assert bases.tolist() == want.tolist()
            assert outcomes.tolist() == got.tolist()
        assert stack.qubits == expected.qubits
        assert take_rows(stack, index).amps.tobytes() == expected.amps.tobytes()


@pytest.mark.parametrize("strategy, amplitudes", [
    (BasisStrategy.ALWAYS_Z, [1.0, 0.0]),
    (BasisStrategy.ALWAYS_X, [1.0, 1.0]),
], ids=["z-on-zero", "x-on-plus"])
def test_a_branch_of_zero_weight_is_never_divided(strategy, amplitudes):
    # |0> read in Z, or |+> in X, has an outcome of zero weight; reading
    # every outcome at once must leave it zero, not divide 0 by 0
    qubit = QubitId(1, "t")
    state = make_state((qubit,), amplitudes)
    basis = MeasurementBasis(strategy.value.upper())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs, collapsed = states.collapse_branches(state, qubit)
        measured, left = states.measure_branches(state, qubit, basis)
        out, index, (_, outcomes) = InterceptResend(strategy).tap(qubit, state, *streams(3, 1), 40)
    zero = 2 * BASES.index(basis) + 1
    assert probs.reshape(-1)[zero] == 0.0
    assert not collapsed.amps[zero].any()
    assert measured[0, 1] == 0.0 and left.rows == 2
    assert not left.amps[1].any()
    assert outcomes.tolist() == [0] * 40
    assert np.allclose(take_rows(out, index).amps, state.amps)


@pytest.mark.parametrize("attack", [*ALL_ATTACKS, NoAttack(), None], ids=attack_cell_label)
def test_the_prepared_stack_holds_each_distinct_register_once(attack):
    # a tap acts on travel photons alone: intercept-resend leaves one of
    # four registers (basis x outcome), every other cell one register
    cfg = config(attack=attack)
    session = Session(cfg, seeds=np.arange(6, dtype=np.uint64))
    session.prepare_and_distribute()
    prepared, index = session._prepared, session._index
    if isinstance(attack, InterceptResend):
        assert prepared.rows <= 4
        assert index.tolist() == (2 * session._tap_bases + session._tap_bits).tolist()
    else:
        assert prepared.rows == 1
    # one entry for every triplet of every trial, each naming a register
    assert index.shape == (6 * 8,)
    assert 0 <= index.min() and index.max() < prepared.rows
    session.select_groups()
    session.run_check()
    assert np.count_nonzero(session._taken) == 6 * cfg.checked_triplets


def test_an_explicit_no_attack_runs_as_no_attack():
    # NoAttack() and no attack take one path through S1, so they give one
    # result, transcript included, alone and stacked, and one sweep tally
    for trials in (1, 20):
        seeds = np.arange(trials, dtype=np.uint64)
        expected, got = Session(config(), seeds), Session(config(attack=NoAttack()), seeds)
        expected.run_trials()
        got.run_trials()
        for trial in range(trials):
            want = expected.result(trial)
            assert replace(got.result(trial), config=want.config) == want
    assert estimate_detection(config(attack=NoAttack()), 30) == estimate_detection(config(), 30)


def test_tap_records_name_what_the_tap_saw():
    # the taps return positions; only the transcript names them
    expected = [
        (InterceptResend(BasisStrategy.ALWAYS_Z), "basis=Z outcome=[01]"),
        (EntangleMeasure(), "probe=cnot"),
        (NoAttack(), None),
        (None, None),
    ]
    for attack, detail in expected:
        for seed in range(3):
            records = Session(config(attack=attack, seed=seed)).run().records
            taps = [(r.phase, r.actor, r.detail) for r in records if r.action == "TAP"]
            if detail is None:
                assert taps == []
                continue
            assert len(taps) == 8
            for n, (phase, actor, got) in enumerate(taps, 1):
                assert (phase, actor) == ("S1", "EVE")
                assert re.fullmatch(f"triplet={n} {detail}", got), got


def test_attack_cell_labels():
    assert attack_cell_label(None) == "none"
    assert attack_cell_label(NoAttack()) == "none"
    assert attack_cell_label(InterceptResend(BasisStrategy.RANDOM)) == "intercept-resend:random"
    assert attack_cell_label(InterceptResend(BasisStrategy.ALWAYS_X)) == "intercept-resend:x"
    assert attack_cell_label(EntangleMeasure()) == "entangle-measure"


# --- exact oracle -------------------------------------------------------


def test_oracle_is_zero_without_an_attack():
    for parties in (3, 4, 5):
        assert detection_oracle(None, parties) == 0.0
        assert detection_oracle(NoAttack(), parties) == 0.0


def test_oracle_is_one_quarter_for_every_attack():
    for attack in ALL_ATTACKS:
        for parties in (3, 4, 5):
            assert np.isclose(detection_oracle(attack, parties), 0.25, atol=1e-12)


@pytest.mark.parametrize("parties", [2, MAX_PARTIES + 1])
def test_oracle_rejects_party_counts_outside_the_protocol(parties):
    with pytest.raises(ValueError, match="parties"):
        detection_oracle(EntangleMeasure(), parties)


def test_abort_probability_compounds_per_triplet():
    attack = InterceptResend(BasisStrategy.RANDOM)
    expected = 1.0 - 0.75**8
    assert np.isclose(abort_probability(attack, 8), expected, atol=1e-12)
    assert abort_probability(None, 8) == 0.0
    assert abort_probability(attack, 0) == 0.0


# --- per-basis violation structure --------------------------------------


def _per_basis_violations(attack, sessions, base_seed=100):
    """Count violations split by announced check basis via transcripts."""
    counts = {"Z": [0, 0], "X": [0, 0]}  # basis -> [checked, violated]
    for i in range(sessions):
        cfg = config(seed=base_seed + i, attack=attack)
        records = Session(cfg).run().records
        announced = {}
        replies = {}
        for record in records:
            if record.action == "CHECK_ANNOUNCE":
                fields = dict(kv.split("=") for kv in record.detail.split())
                n = int(fields["triplet"])
                announced[n] = fields["basis"]
                replies[n] = [int(fields["outcome"])]
            elif record.action == "CHECK_REPLY":
                fields = dict(kv.split("=") for kv in record.detail.split())
                replies[int(fields["triplet"])].append(int(fields["outcome"]))
        for n, basis in announced.items():
            bits = replies[n]
            if basis == "Z":
                bad = len(set(bits)) > 1
            else:
                bad = sum(bits) % 2 == 1
            counts[basis][0] += 1
            counts[basis][1] += int(bad)
    return counts


def test_always_z_interception_only_trips_diagonal_checks():
    counts = _per_basis_violations(InterceptResend(BasisStrategy.ALWAYS_Z), 150)
    z_checked, z_bad = counts["Z"]
    x_checked, x_bad = counts["X"]
    assert z_checked > 100 and x_checked > 100
    assert z_bad == 0
    rate = x_bad / x_checked
    sigma = math.sqrt(0.25 / x_checked)
    assert abs(rate - 0.5) < 4 * sigma


def test_cnot_probe_only_trips_diagonal_checks():
    counts = _per_basis_violations(EntangleMeasure(), 150)
    z_checked, z_bad = counts["Z"]
    x_checked, x_bad = counts["X"]
    assert z_bad == 0
    rate = x_bad / x_checked
    sigma = math.sqrt(0.25 / x_checked)
    assert abs(rate - 0.5) < 4 * sigma


def test_always_x_interception_only_trips_computational_checks():
    # the mirror image of ALWAYS_Z: the forwarded diagonal eigenstate keeps
    # the three-party parity intact, so only equal-bits checks can fail
    counts = _per_basis_violations(InterceptResend(BasisStrategy.ALWAYS_X), 150)
    z_checked, z_bad = counts["Z"]
    x_checked, x_bad = counts["X"]
    assert x_bad == 0
    rate = z_bad / z_checked
    sigma = math.sqrt(0.25 / z_checked)
    assert abs(rate - 0.5) < 4 * sigma


# --- Monte Carlo estimates ----------------------------------------------


def test_estimate_without_attack_is_silent():
    stats = estimate_detection(config(), trials=50)
    assert stats.attack == "none"
    assert stats.detection_rate == 0.0
    assert stats.aborts == 0
    assert stats.decode_accuracy == 1.0
    assert stats.checked_triplets == 200


def test_estimate_matches_oracle_at_small_scale():
    attack = InterceptResend(BasisStrategy.RANDOM)
    stats = estimate_detection(config(attack=attack), trials=400)
    expected = detection_oracle(attack)
    sigma = math.sqrt(expected * (1 - expected) / stats.checked_triplets)
    assert abs(stats.detection_rate - expected) < 3 * sigma


def test_estimate_decode_accuracy_is_nan_when_nothing_completes():
    # 30 checked triplets per session make survival vanishingly rare
    attack = InterceptResend(BasisStrategy.RANDOM)
    cfg = ProtocolConfig(
        triplet_count=32, message_bits="00", check_fraction=0.9,
        attack=attack, seed=5,
    )
    stats = estimate_detection(cfg, trials=40)
    if stats.aborts == stats.trials:
        assert math.isnan(stats.decode_accuracy)
    else:  # vanishingly unlikely at these settings, but keep the test honest
        assert 0.0 <= stats.decode_accuracy <= 1.0


@pytest.mark.parametrize("attack", SWEEP_CELLS, ids=attack_cell_label)
@pytest.mark.parametrize("parties", [3, 5])
def test_stacked_trials_match_one_trial_sessions(parties, attack):
    # a trial reaches the same result stacked with others as alone: the
    # abort mask and the row bookkeeping never mix trials
    base = ProtocolConfig(
        triplet_count=16, message_bits="0" * 8, party_count=parties, attack=attack, seed=77
    )
    seeds = [_trial_seed(77, trial) for trial in range(20)]
    messages = [_trial_message(77, trial, 8) for trial in range(20)]
    stacked = Session(base, seeds, [list(map(int, message)) for message in messages])
    stacked.run_trials()
    decoded = []
    for trial, (seed, message) in enumerate(zip(seeds, messages)):
        single = Session(replace(base, seed=seed, message_bits=message)).run()
        # what estimate_detection tallies, read from the stacked arrays
        assert stacked.completed[trial] == single.completed
        assert stacked.config.checked_triplets == single.config.checked_triplets
        assert stacked.violations[trial] == single.violations
        decoded += [single.decoded_bits] if single.completed else []
        # and the whole result, with the abort triplet and the transcript
        assert stacked.result(trial) == single
    rows = stacked.decoded[stacked.completed].tolist()
    assert ["".join(map(str, row)) for row in rows] == decoded


def test_sweep_stacks_stay_within_one_sessions_widest(monkeypatch):
    # stacking trials must not let a wide sweep build a larger register
    # stack than one session of the same shape does
    real = states._state
    largest = [0]

    def recording(qubits, amps):
        state = real(qubits, amps)
        largest[0] = max(largest[0], state.amps.size)
        return state

    monkeypatch.setattr(states, "_state", recording)
    base = ProtocolConfig(triplet_count=64, message_bits="0" * 32, party_count=12, seed=8)
    for attack in SWEEP_CELLS:
        cfg = replace(base, attack=attack)
        largest[0] = 0
        Session(cfg).run()
        single = largest[0]
        largest[0] = 0
        estimate_detection(cfg, trials=3)
        assert 0 < largest[0] <= single, attack


@pytest.mark.parametrize(
    "attack, probe", [(EntangleMeasure(), 1), (InterceptResend(), 0), (None, 0)]
)
def test_a_wide_tapped_stack_is_held_once(attack, probe):
    # a tap leaves each distinct register once, and S4 and S5 read each
    # distinct register and branch once, so no wide register is held per
    # triplet: at P=12, 8x the triplets must not double the traced peak (a
    # per-triplet read-out of the registers grows it about 8x)
    def traced_peak(triplets):
        cfg = ProtocolConfig(
            triplet_count=triplets, message_bits="0" * (triplets // 2), party_count=12,
            attack=attack,
        )
        session = Session(cfg)
        tracemalloc.start()
        try:
            session.run_trials()
            return session, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bases.default_decode_table()  # cached on first use, outside every run
    session, few = traced_peak(256)
    assert session._prepared.num_qubits == 12 + probe
    _, many = traced_peak(2048)
    assert many <= 2 * few, many / few


@pytest.mark.parametrize("parties", [3, 5])
def test_sweep_statistics_do_not_depend_on_the_session_rows(monkeypatch, parties):
    # one trial a session, three a session, or the whole cell in one: the
    # row budget sets only the time and memory a cell takes
    base = ProtocolConfig(triplet_count=16, message_bits="0" * 8, party_count=parties, seed=2026)

    def sweep():
        return [estimate_detection(replace(base, attack=attack), 40) for attack in SWEEP_CELLS]

    expected = sweep()
    assert 40 <= SESSION_ROWS // 16
    # the tallies compared hold aborted and decoded trials alike
    assert any(0 < stats.aborts < 40 for stats in expected)
    assert all(stats.decoded_bits_correct > 0 for stats in expected)
    for rows in (16, 3 * 16):
        monkeypatch.setattr(attacks, "SESSION_ROWS", rows)
        assert sweep() == expected, rows


def test_a_sweeps_memory_follows_the_row_budget_not_its_trials():
    # the seeds, messages and streams of a cell are drawn session by
    # session, so four sessions' worth of trials peak as high as one's
    cfg = ProtocolConfig(triplet_count=16, message_bits="0" * 8, seed=5)
    chunk = SESSION_ROWS // cfg.triplet_count

    def traced_peak(trials):
        tracemalloc.start()
        try:
            estimate_detection(cfg, trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    estimate_detection(cfg, 1)  # caches filled on first use, outside every trace
    one = traced_peak(chunk)
    assert traced_peak(4 * chunk) <= 1.25 * one


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        estimate_detection(config(), trials=0)


def test_trials_above_the_cap_are_rejected():
    with pytest.raises(ValueError, match=str(MAX_TRIALS)):
        estimate_detection(config(), trials=MAX_TRIALS + 1)


# --- leakage of the probed register -------------------------------------


def test_cnot_probe_extracts_one_bit_per_group():
    assert np.isclose(eve_group_information(), 1.0, atol=1e-12)


def test_exact_analyses_run_without_the_state_kernels(monkeypatch):
    # the exact analyses are the reference the sessions' kernels are checked
    # against, and the decode table is what the sessions decode with, so
    # none of them may build a StateVector
    def refuse(qubits, amps):
        raise AssertionError("an exact analysis built a StateVector")

    monkeypatch.setattr(states, "_state", refuse)
    assert np.isclose(eve_group_information(), 1.0, atol=1e-12)
    assert bases.build_decode_table().dense.size == 64
    for left in states.BELL_OUTCOMES:
        for right in states.BELL_OUTCOMES:
            assert bases.verify_swap_identity(left, right).holds, (left, right)
    holding = [bases.verify_ghz_expansion(index).holds for index in bases.GHZ_INDICES]
    assert holding == [True, True, False, False, True, True, True, True]
    assert bases.ghz_orthonormality_residual() < states.ATOL
    for cell in SWEEP_CELLS:
        for parties in (3, 12):
            expected = 0.0 if cell is None else 0.25
            assert np.isclose(detection_oracle(cell, parties), expected, atol=1e-12)
