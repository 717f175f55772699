"""Acceptance suite.

One test per acceptance criterion, in order. Each asserts the stated
tolerance against values derived independently of the implementation
wherever the criterion admits an oracle.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import stats as scipy_stats

from csdcsim.attacks import (
    BasisStrategy,
    EntangleMeasure,
    InterceptResend,
    abort_probability,
    decode_oracle,
    detection_oracle,
    estimate_detection,
)
from csdcsim.bases import (
    GHZ_INDICES,
    EncodingOp,
    bell_state_vector,
    default_decode_table,
    ghz_orthonormality_residual,
    ghz_state_vector,
    verify_ghz_expansion,
    verify_swap_identity,
)
from csdcsim.cli import SWEEP_CELLS
from csdcsim.protocol import ProtocolConfig, Session
from csdcsim.states import (
    ATOL,
    BELL_OUTCOMES,
    BellOutcome,
    Gate,
    MeasurementBasis,
    QubitId,
    apply_gate,
    make_state,
    measure_bell,
    measure_qubit,
    tensor,
)
from csdcsim.transcript import format_transcript

from kernel_reference import amplitude, bell_product_amplitudes

GOLDEN = Path(__file__).parent / "data" / "golden_transcript.tsv"

PSI = BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS
PHI = BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS


def test_swap_identities_reproduce_the_sign_patterns():
    # independent literal copies of the four PSI+ product expansions
    half = 0.5
    expected_rows = {
        BellOutcome.PSI_PLUS: {
            (PSI[0], PSI[0]): half, (PSI[1], PSI[1]): -half,
            (PHI[0], PHI[0]): half, (PHI[1], PHI[1]): -half,
        },
        BellOutcome.PSI_MINUS: {
            (PSI[0], PSI[1]): half, (PSI[1], PSI[0]): -half,
            (PHI[0], PHI[1]): -half, (PHI[1], PHI[0]): half,
        },
        BellOutcome.PHI_PLUS: {
            (PSI[0], PHI[0]): half, (PSI[1], PHI[1]): -half,
            (PHI[0], PSI[0]): half, (PHI[1], PSI[1]): -half,
        },
        BellOutcome.PHI_MINUS: {
            (PSI[0], PHI[1]): half, (PSI[1], PHI[0]): -half,
            (PHI[0], PSI[1]): -half, (PHI[1], PSI[0]): half,
        },
    }
    for right, pattern in expected_rows.items():
        residual, amps = verify_swap_identity(BellOutcome.PSI_PLUS, right)
        assert residual < 1e-12
        support = {
            (BELL_OUTCOMES[s], BELL_OUTCOMES[r]): amps[s, r]
            for s, r in zip(*(np.abs(amps) > 1e-9).nonzero())
        }
        assert set(support) == set(pattern)
        for key, coeff in pattern.items():
            assert abs(support[key] - coeff) < 1e-12

    # every one of the 16 products spreads uniformly over four outcomes
    for left in BELL_OUTCOMES:
        for right in BELL_OUTCOMES:
            residual, amps = verify_swap_identity(left, right)
            assert residual < 1e-12
            support = [v for v in amps.flat if abs(v) > 1e-9]
            assert len(support) == 4
            assert all(abs(abs(v) - 0.5) < 1e-12 for v in support)


def test_ghz_basis_is_orthonormal_and_expansions_enumerate():
    assert ghz_orthonormality_residual() < 1e-12

    # the first two tabulated expansions hold exactly
    for index in (1, 2):
        assert verify_ghz_expansion(index) < 1e-12

    # the remaining six enumerate: four more hold, two miss by 1/sqrt(2)
    expected = {3: False, 4: False, 5: True, 6: True, 7: True, 8: True}
    for index, holds in expected.items():
        residual = verify_ghz_expansion(index)
        assert (residual < ATOL) == holds
        assert math.isfinite(residual)
        if holds:
            assert residual < 1e-12
        else:
            assert abs(residual - 1.0 / math.sqrt(2.0)) < 1e-12
    assert GHZ_INDICES == tuple(range(1, 9))


def test_controller_collapse_sign_tracks_the_outcome():
    home, travel, ctrl = QubitId(1, "h"), QubitId(1, "t"), QubitId(1, "c1")
    rng = np.random.default_rng(20260817)
    trials = 10_000
    ones = 0
    inv = 1.0 / math.sqrt(2.0)
    for _ in range(trials):
        state = ghz_state_vector(1, (home, travel, ctrl))
        state = apply_gate(state, Gate.HADAMARD, ctrl)
        (outcome,), rest = measure_qubit(
            state, ctrl, MeasurementBasis.COMPUTATIONAL, rng.random(1)
        )
        ones += outcome
        sign = -1.0 if outcome else 1.0
        assert abs(amplitude(rest, "00") - inv) < 1e-12
        assert abs(amplitude(rest, "11") - sign * inv) < 1e-12
        assert abs(amplitude(rest, "01")) < 1e-12 and abs(amplitude(rest, "10")) < 1e-12
    assert abs(ones / trials - 0.5) < 0.015


def test_decode_table_zero_parity_slice_is_reproduced():
    # independent literal copy of the sixteen zero-parity rows
    rows = {
        (PHI[0], PHI[0]): EncodingOp.U1, (PHI[1], PHI[1]): EncodingOp.U1,
        (PSI[0], PSI[0]): EncodingOp.U1, (PSI[1], PSI[1]): EncodingOp.U1,
        (PHI[0], PSI[0]): EncodingOp.U2, (PHI[1], PSI[1]): EncodingOp.U2,
        (PSI[0], PHI[0]): EncodingOp.U2, (PSI[1], PHI[1]): EncodingOp.U2,
        (PHI[0], PSI[1]): EncodingOp.U3, (PHI[1], PSI[0]): EncodingOp.U3,
        (PSI[0], PHI[1]): EncodingOp.U3, (PSI[1], PHI[0]): EncodingOp.U3,
        (PHI[0], PHI[1]): EncodingOp.U4, (PHI[1], PHI[0]): EncodingOp.U4,
        (PSI[0], PSI[1]): EncodingOp.U4, (PSI[1], PSI[0]): EncodingOp.U4,
    }
    assert len(rows) == 16
    table = default_decode_table()
    for (sender, receiver), op in rows.items():
        assert table.decode(0, 0, sender, receiver) == op.bits
    assert table.dense[0, 0].size == 16


def test_thousand_honest_sessions_decode_perfectly():
    rng = np.random.default_rng(424242)
    aborts = 0
    for _ in range(1000):
        parties = int(rng.choice([3, 4, 5]))
        triplets = int(rng.choice([4, 8, 12]))
        groups = triplets // 2
        capacity = 2 * (groups - math.ceil(0.5 * groups))
        message = "".join(str(int(b)) for b in rng.integers(0, 2, size=capacity))
        cfg = ProtocolConfig(
            triplet_count=triplets,
            message_bits=message,
            party_count=parties,
            seed=int(rng.integers(0, 2**63)),
        )
        result = Session(cfg).run()
        if not result.completed:
            aborts += 1
            continue
        assert result.decoded_bits == message
        assert result.violations == 0
    assert aborts == 0


def test_joint_bell_outcomes_are_uniform_for_identity_encoding():
    h1, t1 = QubitId(1, "h"), QubitId(1, "t")
    h2, t2 = QubitId(2, "h"), QubitId(2, "t")
    rng = np.random.default_rng(777)
    counts: dict[tuple[BellOutcome, BellOutcome], int] = {}
    samples = 10_000
    for _ in range(samples):
        state = tensor(
            bell_state_vector(BellOutcome.PHI_PLUS, (h1, t1)),
            bell_state_vector(BellOutcome.PHI_PLUS, (h2, t2)),
        )
        state = apply_gate(state, EncodingOp.U1.gate, t1)
        (sender,), state = measure_bell(state, (t1, t2), rng.random(1))
        (receiver,), _ = measure_bell(state, (h1, h2), rng.random(1))
        key = (BELL_OUTCOMES[sender], BELL_OUTCOMES[receiver])
        counts[key] = counts.get(key, 0) + 1

    compatible = {(b, b) for b in BELL_OUTCOMES}
    assert set(counts) == compatible

    observed = [counts[key] for key in sorted(counts, key=lambda k: (k[0].value, k[1].value))]
    statistic, pvalue = scipy_stats.chisquare(observed)
    assert pvalue > 0.001, (statistic, pvalue)

    # the decode table agrees on every observed pair
    table = default_decode_table()
    for sender, receiver in counts:
        assert table.decode(0, 0, sender, receiver) == "00"


def test_detection_rates_match_the_exact_oracle():
    trials = 1250  # 8 checked triplets per session -> 10^4 checked
    base = ProtocolConfig(triplet_count=16, message_bits="0" * 8, seed=1234)

    honest = estimate_detection(base, trials=trials)
    assert honest.detection_rate == 0.0
    assert honest.aborts == 0

    attacks = [
        InterceptResend(BasisStrategy.RANDOM),
        InterceptResend(BasisStrategy.ALWAYS_Z),
        InterceptResend(BasisStrategy.ALWAYS_X),
        EntangleMeasure(),
    ]
    for attack in attacks:
        stats = estimate_detection(replace(base, attack=attack), trials=trials)
        assert stats.checked_triplets == 10_000

        p = detection_oracle(attack)
        sigma = math.sqrt(p * (1.0 - p) / stats.checked_triplets)
        assert abs(stats.detection_rate - p) <= 3 * sigma, attack

        expected_abort = abort_probability(attack, checked_triplets=8)
        abort_sigma = math.sqrt(expected_abort * (1.0 - expected_abort) / trials)
        assert abs(stats.abort_rate - expected_abort) <= 3 * abort_sigma, attack


def test_decode_accuracy_of_each_sweep_cell_matches_its_exact_value():
    """The receiver's decode accuracy over the sessions an attack lets pass.

    A Z-type disturbance (intercept-resend in z, or the CNOT probe once
    its ancilla is traced out) leaves only the bit-flip part of the
    operation readable; the phase bit is a coin flip, so both bits are
    right or both are wrong: 1/2.  An X-type disturbance leaves the first
    bit exact and the second a coin flip: 3/4.  A mixed group carries
    nothing: 1/2.  So a random basis gives (1/2 + 3/4 + 2 * 1/2) / 4 = 9/16.

    Each sample is a group of two correlated bits, so a group's mean has a
    variance of at most 1/4.  ``decode_oracle`` works each value out from
    the exact joint of the encoding round; the constants here are a second,
    independent statement of it.
    """
    exact = {
        None: 1.0,
        InterceptResend(BasisStrategy.RANDOM): 9 / 16,
        InterceptResend(BasisStrategy.ALWAYS_Z): 1 / 2,
        InterceptResend(BasisStrategy.ALWAYS_X): 3 / 4,
        EntangleMeasure(): 1 / 2,
    }
    assert tuple(exact) == SWEEP_CELLS
    base = ProtocolConfig(
        triplet_count=64, message_bits="0" * 60, check_fraction=0.05, seed=12
    )
    for attack, accuracy in exact.items():
        assert abs(decode_oracle(attack) - accuracy) <= 1e-12, attack
        stats = estimate_detection(replace(base, attack=attack), trials=300)
        if attack is None:
            assert stats.decode_accuracy == 1.0
            continue
        groups = stats.decoded_bits_total // 2
        sigma = math.sqrt(0.25 / groups)
        assert abs(stats.decode_accuracy - accuracy) <= 3 * sigma, (attack, stats)


def test_transcripts_are_byte_identical_and_match_the_golden_file():
    cfg = ProtocolConfig(triplet_count=8, message_bits="0001", seed=42)
    first = format_transcript(Session(cfg).run().records)
    second = format_transcript(Session(cfg).run().records)
    assert first == second
    assert first.encode() == GOLDEN.read_bytes()


def test_equal_controller_parity_patterns_decode_identically():
    # exhaustive enumeration of both controllers' outcomes on one group
    h1, t1, h2, t2 = (QubitId(n, r) for n in (1, 2) for r in ("h", "t"))
    c = {n: (QubitId(n, "c1"), QubitId(n, "c2")) for n in (1, 2)}
    table = default_decode_table()

    def residual_pair(pattern: tuple[int, int], n, home, travel):
        # four-qubit GHZ, Hadamard both controllers, project on the pattern
        amps = np.zeros(16)
        amps[0] = amps[15] = 1.0
        state = make_state((home, travel, *c[n]), amps)
        for ctrl in c[n]:
            state = apply_gate(state, Gate.HADAMARD, ctrl)
        a, b = pattern
        projected = [
            amplitude(state, f"{hb}{tb}{a}{b}") for hb in (0, 1) for tb in (0, 1)
        ]
        return make_state((home, travel), projected)

    decode_maps: dict[tuple[int, int], dict] = {}
    for bits in range(16):
        pat1 = ((bits >> 3) & 1, (bits >> 2) & 1)
        pat2 = ((bits >> 1) & 1, bits & 1)
        parities = (pat1[0] ^ pat1[1], pat2[0] ^ pat2[1])
        joint_map = {}
        for op in EncodingOp:
            state = tensor(
                residual_pair(pat1, 1, h1, t1),
                residual_pair(pat2, 2, h2, t2),
            )
            state = apply_gate(state, op.gate, t1)
            amps = bell_product_amplitudes(state, (t1, t2), (h1, h2))
            support = {k: v for k, v in amps.items() if abs(v) ** 2 > 1e-9}
            assert len(support) == 4
            for (sender, receiver), amp in support.items():
                assert abs(abs(amp) ** 2 - 0.25) < 1e-9
                decoded = table.decode(*parities, sender, receiver)
                assert decoded == op.bits, (bits, op, parities, sender, receiver)
                joint_map[(op, sender, receiver)] = decoded
        if parities in decode_maps:
            assert decode_maps[parities] == joint_map
        else:
            decode_maps[parities] = joint_map
    assert set(decode_maps) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    # the same invariance holds in full four-party runs
    for seed in range(6):
        cfg = ProtocolConfig(
            triplet_count=8, message_bits="0110", party_count=4, seed=seed
        )
        result = Session(cfg).run()
        assert result.completed and result.match
        # the one trial's encoding groups, in order
        decoded, outcomes = result.decoded_bits, result.outcomes
        groups = zip(
            outcomes["parities"].reshape(-1, 2).tolist(),
            outcomes["sender_bell"].tolist(), outcomes["receiver_bell"].tolist(),
            [decoded[k : k + 2] for k in range(0, len(decoded), 2)],
        )
        for i, ((p1, p2), sender, receiver, decoded) in enumerate(groups):
            read = table.decode(p1, p2, BELL_OUTCOMES[sender], BELL_OUTCOMES[receiver])
            assert read == decoded == cfg.message_bits[2 * i : 2 * i + 2]
