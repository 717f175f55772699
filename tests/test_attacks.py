"""Unit tests for eavesdropping models and detection statistics."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from csdcsim import states
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
    _trial_message,
    _trial_seed,
)
from csdcsim.cli import SWEEP_CELLS
from csdcsim.protocol import ProtocolConfig, Session
from csdcsim.states import QubitId, make_state

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


def test_no_attack_is_the_identity():
    qubit = QubitId(1, "t")
    state = make_state((qubit,), [0.6, 0.8])
    out, tap = NoAttack().tap(qubit, state, [(np.random.default_rng(0), 1)])
    assert out is state
    assert tap is None


def test_intercept_resend_collapses_to_an_eigenstate():
    qubit = QubitId(1, "t")
    for seed in range(20):
        state = make_state((qubit,), [0.6, 0.8])
        out, (detail,) = InterceptResend(BasisStrategy.ALWAYS_Z).tap(
            qubit, state, [(np.random.default_rng(seed), 1)]
        )
        assert detail.startswith("basis=Z outcome=")
        outcome = detail.rsplit("=", 1)[1]
        assert np.isclose(abs(out.amplitude(outcome)), 1.0)


def test_entangle_measure_adds_one_ancilla():
    qubit = QubitId(3, "t")
    state = make_state((qubit,), [1, 0])
    out, (detail,) = EntangleMeasure().tap(qubit, state, [(np.random.default_rng(0), 1)])
    assert detail == "probe=cnot"
    assert set(out.qubits) == {qubit, QubitId(3, "e")}


def test_tap_detail_formats():
    qubit = QubitId(1, "t")
    state = make_state((qubit,), [1, 0])
    _, (detail,) = InterceptResend(BasisStrategy.ALWAYS_Z).tap(
        qubit, state, [(np.random.default_rng(0), 1)]
    )
    assert detail == "basis=Z outcome=0"
    _, (detail,) = EntangleMeasure().tap(qubit, state, [(np.random.default_rng(0), 1)])
    assert detail == "probe=cnot"


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
    configs = [
        replace(base, seed=_trial_seed(77, trial), message_bits=_trial_message(77, trial, 8))
        for trial in range(20)
    ]
    stacked = Session(*configs)
    stacked.run_trials()
    for trial, cfg in enumerate(configs):
        single = Session(cfg).run()
        # what estimate_detection tallies, read from the stacked arrays
        assert stacked.completed[trial] == single.completed
        assert stacked.checked_triplets == single.checked_triplets
        assert stacked.violations[trial] == single.violations
        assert stacked.decoded_bits[trial] == single.decoded_bits
        # and the whole result, with the abort triplet and the transcript
        assert stacked.result(trial) == single


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


@pytest.mark.parametrize("attack, probe", [(EntangleMeasure(), 1), (InterceptResend(), 0)])
def test_a_wide_tapped_stack_is_held_once(attack, probe):
    # the tapped registers dominate a wide attacked session; the engine
    # must not hold a second copy of them while joining its blocks
    triplets, parties = 256, 12
    cfg = ProtocolConfig(
        triplet_count=triplets, message_bits="0" * 128, party_count=parties, attack=attack
    )
    tapped_bytes = triplets * 2 ** (parties + probe) * 16
    session = Session(cfg)
    tracemalloc.start()
    try:
        session.run_trials()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * tapped_bytes, peak / tapped_bytes


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        estimate_detection(config(), trials=0)


# --- leakage of the probed register -------------------------------------


def test_cnot_probe_extracts_one_bit_per_group():
    assert np.isclose(eve_group_information(), 1.0, atol=1e-9)
