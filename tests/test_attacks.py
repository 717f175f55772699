"""Unit tests for eavesdropping models and detection statistics."""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

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
    decode_oracle,
    detection_oracle,
    estimate_cells,
    estimate_detection,
    eve_group_information,
)
from csdcsim.cli import SWEEP_CELLS
from csdcsim.protocol import (
    MAX_PARTIES, MAX_TRIALS, SESSION_ROWS, ConfigError, ProtocolConfig, Session, untapped,
)
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
        measured, left = states.project(state, (qubit,), basis.vectors.conj())
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
        assert index.tolist() == (2 * session._tap[0] + session._tap[1]).tolist()
    else:
        assert prepared.rows == 1
    # one entry for every triplet of every trial, each naming a register
    assert index.shape == (6, 8)
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
            want, result = expected.result(trial), got.result(trial)
            assert replace(result, config=want.config) == want
            assert result.transcript == want.transcript
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
    # a value that is not an attack model has no cell, rather than the last one
    with pytest.raises(ValueError, match="not an attack model"):
        attack_cell_label("intercept-resend")


@pytest.mark.parametrize(
    "attack",
    [EntangleMeasure, NoAttack, "intercept-resend", SimpleNamespace(tap=untapped)],
    ids=["model-class", "no-attack-class", "string", "duck-with-a-tap"],
)
def test_every_check_rejects_what_is_not_an_attack_model(monkeypatch, attack):
    # the config, the cell label and the oracle know a model by its type alike,
    # so a sweep refuses it before any of its cells runs
    with pytest.raises(ConfigError, match="attack must be None or an attack model"):
        config(attack=attack)
    with pytest.raises(ValueError, match="not an attack model"):
        attack_cell_label(attack)
    with pytest.raises(ValueError, match="not an attack model"):
        detection_oracle(attack)

    def refuse(*args):
        raise AssertionError("a session was built")

    monkeypatch.setattr(attacks, "Session", refuse)
    with pytest.raises(ValueError, match="not an attack model"):
        estimate_cells(config(), 3, (None, attack))


@pytest.mark.parametrize("strategy", ["z", "random", None])
def test_intercept_resend_takes_only_a_basis_strategy(strategy):
    # any other value would read as X in the tap and fail only after the trials ran
    with pytest.raises(ConfigError, match="BasisStrategy"):
        InterceptResend(strategy)


# --- exact oracle -------------------------------------------------------


def test_oracle_is_zero_without_an_attack():
    for parties in (3, 4, 5):
        assert detection_oracle(None, parties) == 0.0
        assert detection_oracle(NoAttack(), parties) == 0.0


def test_oracle_is_one_quarter_for_every_attack():
    for attack in ALL_ATTACKS:
        for parties in (3, 4, 5):
            assert np.isclose(detection_oracle(attack, parties), 0.25, atol=1e-12)


@pytest.mark.parametrize("parties", [2, MAX_PARTIES + 1, 3.0, 3.5, True, np.True_])
def test_oracle_rejects_party_counts_outside_the_protocol(parties):
    # checked before the untouched channel's shortcut, so no attack is no excuse
    for attack in (EntangleMeasure(), None):
        with pytest.raises(ValueError, match="parties"):
            detection_oracle(attack, parties)


def test_abort_probability_compounds_per_triplet():
    attack = InterceptResend(BasisStrategy.RANDOM)
    expected = 1.0 - 0.75**8
    assert np.isclose(abort_probability(attack, 8), expected, atol=1e-12)
    assert abort_probability(None, 8) == 0.0
    assert abort_probability(attack, 0) == 0.0


@pytest.mark.parametrize("checked", [-1, 2.5, 8.0, True])
def test_abort_probability_takes_a_count_of_checked_triplets(checked):
    with pytest.raises(ValueError, match="checked_triplets"):
        abort_probability(InterceptResend(), checked)


@pytest.mark.parametrize("parties", [3, 5, 12])
def test_each_check_basis_applies_its_own_rule(parties):
    # Z fails unless every party's bit agrees, X on odd parity; a probe
    # ancilla (the last axis) is summed out, never read as a party.  The
    # probed GHZ state is symmetric in all its qubits, so only an ancilla in
    # |1> beside |0...0> shows which axis was summed out.
    ghz = attacks._ghz_vector(parties)
    zeros = np.zeros((2,) * parties)
    zeros.flat[0] = 1.0
    last_flipped = np.roll(zeros, 1, axis=parties - 1)
    probed = attacks._cnot_vector(np.multiply.outer(ghz, [1.0, 0.0]), 1, parties)
    beside_one = np.multiply.outer(zeros, [0.0, 1.0])
    for psi, in_z, in_x in [
        (ghz, 0.0, 0.0), (zeros, 0.0, 0.5), (last_flipped, 1.0, 0.5), (probed, 0.0, 0.5),
        (beside_one, 0.0, 0.5),
    ]:
        for diagonal, expected in ((False, in_z), (True, in_x)):
            got = attacks._violation_probability(psi, parties, diagonal)
            assert np.isclose(got, expected, rtol=0.0, atol=1e-12), (psi.shape, diagonal)


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
        assert stacked.result(trial).transcript == single.transcript
    rows = stacked.decoded[stacked.completed].tolist()
    assert ["".join(map(str, row)) for row in rows] == decoded


@pytest.mark.parametrize("parties", [3, 5])
def test_a_fork_is_a_fresh_session(monkeypatch, parties):
    # a sweep's cells run on forks of one session that drew the trials'
    # group orders and S4 party draws; each must end as a fresh session of
    # its own attack would, down to every stream's state, with every fork
    # run before any is read
    base = ProtocolConfig(triplet_count=16, message_bits="0" * 8, party_count=parties, seed=77)
    seeds = [_trial_seed(77, trial) for trial in range(20)]
    messages = [list(map(int, _trial_message(77, trial, 8))) for trial in range(20)]
    shared = Session(base, seeds, messages)
    shared.select_groups()
    forks = [shared.fork(cell) for cell in SWEEP_CELLS]
    for fork in forks:
        fork.run_trials()
    for cell, fork in zip(SWEEP_CELLS, forks):
        fresh = Session(replace(base, attack=cell), seeds, messages)
        fresh.run_trials()
        assert fork.config == fresh.config
        for trial in range(20):
            got, want = fork.result(trial), fresh.result(trial)
            assert got == want and got.transcript == want.transcript, (cell, trial)
        for name, state in vars(fresh._streams).items():
            assert np.array_equal(getattr(fork._streams, name), state), (cell, name)

    # estimate_cells tallies what fresh sessions of each cell tally, in
    # sessions of one trial, of three, or of the whole cell
    def fresh_stats(cell):
        trials = range(40)
        messages = np.array([list(map(int, _trial_message(77, k, 8))) for k in trials])
        fresh = Session(replace(base, attack=cell), [_trial_seed(77, k) for k in trials], messages)
        fresh.run_trials()
        checked, violations = 40 * base.checked_triplets, int(fresh.violations.sum())
        aborts = int(np.count_nonzero(~fresh.completed))
        return attacks.DetectionStats(
            attack_cell_label(cell), 40, checked, violations, violations / checked, aborts,
            aborts / 40, base.capacity_bits * (40 - aborts),
            int(np.count_nonzero((fresh.decoded == messages)[fresh.completed])),
        )

    expected = tuple(map(fresh_stats, SWEEP_CELLS))
    assert any(0 < stats.aborts < 40 for stats in expected)
    assert estimate_cells(base, 40, SWEEP_CELLS) == expected
    for rows in (16, 3 * 16):
        monkeypatch.setattr(attacks, "SESSION_ROWS", rows)
        assert estimate_cells(base, 40, SWEEP_CELLS) == expected, rows


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


def test_a_five_cell_sweeps_memory_follows_the_row_budget():
    # the cells of a chunk run one after the other on forks of its session,
    # so four sessions' worth of trials peak as high as one's over all five
    cfg = ProtocolConfig(triplet_count=16, message_bits="0" * 8, seed=5)
    chunk = SESSION_ROWS // cfg.triplet_count

    def traced_peak(trials):
        tracemalloc.start()
        try:
            estimate_cells(cfg, trials, SWEEP_CELLS)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    estimate_cells(cfg, 1, SWEEP_CELLS)  # caches filled on first use, outside every trace
    one = traced_peak(chunk)
    assert traced_peak(4 * chunk) <= 1.25 * one


def test_a_sweep_of_no_cells_is_empty():
    assert estimate_cells(ProtocolConfig(8, "0001"), 5, ()) == ()


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        estimate_detection(config(), trials=0)


@pytest.mark.parametrize("trials", [2.0, True, np.True_, "2"])
def test_trials_must_be_an_integer(trials):
    # a float would end in range's TypeError, and True would run as one trial
    with pytest.raises(ValueError, match="integer"):
        estimate_detection(config(), trials=trials)


def test_trials_above_the_cap_are_rejected():
    with pytest.raises(ValueError, match=str(MAX_TRIALS)):
        estimate_detection(config(), trials=MAX_TRIALS + 1)


# --- leakage of the probed register -------------------------------------


def test_cnot_probe_extracts_one_bit_per_group():
    assert np.isclose(eve_group_information(), 1.0, atol=1e-12)


def test_the_oracle_imports_no_state_kernel():
    # the oracle is independent of the engine through its imports: the
    # models' taps, which run on the kernels, live in protocol
    kernels = {"apply_cnot", "collapse_branches", "make_state", "project", "tensor", "_sample"}
    assert not kernels & set(vars(attacks))


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
            assert bases.verify_swap_identity(left, right)[0] < states.ATOL, (left, right)
    holding = [bases.verify_ghz_expansion(index) < states.ATOL for index in bases.GHZ_INDICES]
    assert holding == [True, True, False, False, True, True, True, True]
    assert bases.ghz_orthonormality_residual() < states.ATOL
    for cell in SWEEP_CELLS:
        for parties in (3, 12):
            expected = 0.0 if cell is None else 0.25
            assert np.isclose(detection_oracle(cell, parties), expected, atol=1e-12)
        assert 0.5 - 1e-12 <= decode_oracle(cell) <= 1.0 + 1e-12
