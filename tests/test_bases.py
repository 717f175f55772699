"""Unit tests for Bell and GHZ basis algebra and the decode table."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdcsim import bases
from csdcsim.bases import (
    GHZ_INDICES,
    DecodeKey,
    EncodingOp,
    bell_pair_amplitudes,
    bell_state_vector,
    build_decode_table,
    default_decode_table,
    ghz_orthonormality_residual,
    ghz_state_vector,
    verify_ghz_expansion,
    verify_swap_identity,
)
from csdcsim.states import (
    ATOL,
    BELL_OUTCOMES,
    BellOutcome,
    Gate,
    MeasurementBasis,
    QubitId,
    apply_gate,
    inner_product,
    make_state,
    tensor,
)

from kernel_reference import bell_product_amplitudes

INV_SQRT2 = 1.0 / math.sqrt(2.0)

PAIR = (QubitId(0, "a"), QubitId(0, "b"))
TRIPLE = (QubitId(0, "h"), QubitId(0, "t"), QubitId(0, "c"))


# --- Bell and GHZ vectors -----------------------------------------------


def test_bell_vectors_match_sign_conventions():
    expected = {
        BellOutcome.PSI_PLUS: {"01": INV_SQRT2, "10": INV_SQRT2},
        BellOutcome.PSI_MINUS: {"01": INV_SQRT2, "10": -INV_SQRT2},
        BellOutcome.PHI_PLUS: {"00": INV_SQRT2, "11": INV_SQRT2},
        BellOutcome.PHI_MINUS: {"00": INV_SQRT2, "11": -INV_SQRT2},
    }
    for outcome, nonzero in expected.items():
        ket = bell_state_vector(outcome, PAIR)
        for bits in ("00", "01", "10", "11"):
            assert np.isclose(ket.amplitude(bits), nonzero.get(bits, 0.0), atol=ATOL)


def test_ghz_element_one_is_the_standard_pair():
    ket = ghz_state_vector(1, TRIPLE)
    assert np.isclose(ket.amplitude("000"), INV_SQRT2, atol=ATOL)
    assert np.isclose(ket.amplitude("111"), INV_SQRT2, atol=ATOL)


def test_ghz_element_five_flips_the_travel_bit():
    ket = ghz_state_vector(5, TRIPLE)
    assert np.isclose(ket.amplitude("010"), INV_SQRT2, atol=ATOL)
    assert np.isclose(ket.amplitude("101"), INV_SQRT2, atol=ATOL)


def test_ghz_index_range_is_enforced():
    with pytest.raises(ValueError):
        ghz_state_vector(0, TRIPLE)
    with pytest.raises(ValueError):
        ghz_state_vector(9, TRIPLE)


def test_ghz_basis_is_orthonormal():
    assert ghz_orthonormality_residual() < 1e-12


# --- diagonal-basis expansions ------------------------------------------


def test_expansion_reports_follow_the_known_pattern():
    expected_holds = {1: True, 2: True, 3: False, 4: False,
                      5: True, 6: True, 7: True, 8: True}
    for index in GHZ_INDICES:
        report = verify_ghz_expansion(index)
        assert report.index == index
        assert report.holds == expected_holds[index]


def test_holding_expansions_are_exact():
    for index in (1, 2, 5, 6, 7, 8):
        assert verify_ghz_expansion(index).max_residual < 1e-12


def test_failing_expansions_have_the_known_residual():
    # the two tabulated rows that disagree miss by exactly 1/sqrt(2)
    for index in (3, 4):
        report = verify_ghz_expansion(index)
        assert np.isclose(report.max_residual, 0.707106781186548, atol=1e-12)


def test_reference_expansion_is_normalized():
    # the tabulated terms as written, not renormalised
    diag = MeasurementBasis.DIAGONAL.vectors
    for index in GHZ_INDICES:
        terms = bases._DIAGONAL_EXPANSION_TERMS[index]
        ket = sum(0.5 * coeff * np.kron(np.kron(diag[h], diag[t]), diag[c])
                  for h, t, c, coeff in terms)
        assert np.isclose(np.linalg.norm(ket), 1.0, atol=ATOL), index


# --- entanglement swapping ----------------------------------------------


def test_all_sixteen_swap_products_hold():
    for left in BELL_OUTCOMES:
        for right in BELL_OUTCOMES:
            report = verify_swap_identity(left, right)
            assert report.holds, (left, right)
            assert report.max_residual < 1e-12


def _nonzero(table):
    return {key: coeff for key, coeff in table.items() if abs(coeff) > 1e-9}


def test_swap_outcome_tables_are_uniform_on_four():
    for left in BELL_OUTCOMES:
        for right in BELL_OUTCOMES:
            table = verify_swap_identity(left, right).outcome_table
            assert len(table) == 16
            support = _nonzero(table)
            assert len(support) == 4
            for coeff in support.values():
                assert np.isclose(abs(coeff), 0.5, atol=ATOL)


def test_psi_plus_squared_sign_pattern():
    table = _nonzero(
        verify_swap_identity(BellOutcome.PSI_PLUS, BellOutcome.PSI_PLUS).outcome_table
    )
    expected = {
        (BellOutcome.PSI_PLUS, BellOutcome.PSI_PLUS): 0.5,
        (BellOutcome.PSI_MINUS, BellOutcome.PSI_MINUS): -0.5,
        (BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS): 0.5,
        (BellOutcome.PHI_MINUS, BellOutcome.PHI_MINUS): -0.5,
    }
    assert set(table) == set(expected)
    for key, coeff in expected.items():
        assert np.isclose(table[key], coeff, atol=ATOL)


def test_bell_product_amplitudes_are_complete():
    # the plain-array read-out against the kernel route on every swap product
    q1, q2, q3, q4 = (QubitId(i, "q") for i in (1, 2, 3, 4))
    for left in BELL_OUTCOMES:
        for right in BELL_OUTCOMES:
            state = tensor(
                bell_state_vector(left, (q1, q2)),
                bell_state_vector(right, (q3, q4)),
            )
            reference = bell_product_amplitudes(state, (q1, q3), (q2, q4))
            amps = bell_pair_amplitudes(left.vector.reshape(2, 2), right.vector.reshape(2, 2))
            assert amps.shape == (4, 4)
            for (s, r), amp in reference.items():
                assert np.isclose(amps[BELL_OUTCOMES.index(s), BELL_OUTCOMES.index(r)],
                                  amp, atol=ATOL)
            assert np.isclose(np.sum(np.abs(amps) ** 2), 1.0, atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_bell_pair_amplitudes_match_the_kernel_route_on_three_pairs(seed):
    rng = np.random.default_rng(seed)
    a, b = (tuple(QubitId(n, role) for role in "abc") for n in (1, 2))
    first, second = (
        make_state(qubits, rng.normal(size=8) + 1j * rng.normal(size=8)) for qubits in (a, b)
    )
    reference = bell_product_amplitudes(tensor(first, second), *zip(a, b))
    amps = bell_pair_amplitudes(first.amps.reshape(2, 2, 2), second.amps.reshape(2, 2, 2))
    assert amps.shape == (4, 4, 4)
    for cell, amp in reference.items():
        assert np.isclose(amps[tuple(map(BELL_OUTCOMES.index, cell))], amp, atol=ATOL)


def test_bell_product_amplitudes_of_three_bell_states_have_one_unit_cell():
    q = [QubitId(i, "q") for i in range(1, 7)]
    pairs = ((q[0], q[1]), (q[2], q[3]), (q[4], q[5]))
    outcomes = (BellOutcome.PSI_MINUS, BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS)
    state = tensor(
        tensor(bell_state_vector(outcomes[0], pairs[0]), bell_state_vector(outcomes[1], pairs[1])),
        bell_state_vector(outcomes[2], pairs[2]),
    )
    # ask for the pairs in another order than the register holds them
    amps = bell_product_amplitudes(state, pairs[2], pairs[0], pairs[1])
    assert len(amps) == 4**3
    cell = (outcomes[2], outcomes[0], outcomes[1])
    assert [c for c, amp in amps.items() if abs(amp) > ATOL] == [cell]
    assert np.isclose(abs(amps[cell]), 1.0, atol=ATOL)


# --- encoding operations ------------------------------------------------


def test_encoding_bits_round_trip():
    # an operation's position is its bits read as a number
    for op in EncodingOp:
        assert tuple(EncodingOp)[int(op.bits, 2)] is op
    assert [op.bits for op in EncodingOp] == ["00", "01", "10", "11"]


def test_encoding_gates_map_phi_plus_to_distinct_bell_states():
    # acting on the first qubit of PHI+ permutes the Bell basis
    expected = {
        EncodingOp.U1: BellOutcome.PHI_PLUS,
        EncodingOp.U2: BellOutcome.PSI_PLUS,
        EncodingOp.U3: BellOutcome.PSI_MINUS,
        EncodingOp.U4: BellOutcome.PHI_MINUS,
    }
    for op, target in expected.items():
        state = bell_state_vector(BellOutcome.PHI_PLUS, PAIR)
        moved = apply_gate(state, op.gate, PAIR[0])
        overlap = inner_product(bell_state_vector(target, PAIR), moved)
        assert np.isclose(abs(overlap), 1.0, atol=ATOL)


def test_encoding_gate_identities():
    assert EncodingOp.U1.gate is Gate.IDENTITY
    assert EncodingOp.U2.gate is Gate.PAULI_X
    assert EncodingOp.U3.gate is Gate.MINUS_I_PAULI_Y
    assert EncodingOp.U4.gate is Gate.PAULI_Z


# --- decode table -------------------------------------------------------


def test_decode_table_is_complete_and_collision_free():
    table = build_decode_table()
    assert len(table.entries) == 64
    keys = set(table.entries)
    assert len(keys) == 64


def test_decode_table_build_rejects_an_ambiguous_or_incomplete_readout(monkeypatch):
    # every operation seeing every pair collides at the first key a second
    # operation marks; no operation seeing any pair leaves every key empty
    monkeypatch.setattr(bases, "bell_pair_amplitudes", lambda a, b: np.ones((4,) * a.ndim))
    first = DecodeKey(0, 0, BELL_OUTCOMES[0], BELL_OUTCOMES[0])
    with pytest.raises(ValueError, match=re.escape(f"decode table collision at {first}")):
        build_decode_table()
    monkeypatch.setattr(bases, "bell_pair_amplitudes", lambda a, b: np.zeros((4,) * a.ndim))
    with pytest.raises(ValueError, match="decode table incomplete: 0 of 64 keys"):
        build_decode_table()


def test_decode_table_zero_parity_slice():
    table = default_decode_table()
    expected = {
        (BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS): EncodingOp.U1,
        (BellOutcome.PHI_MINUS, BellOutcome.PHI_MINUS): EncodingOp.U1,
        (BellOutcome.PSI_PLUS, BellOutcome.PSI_PLUS): EncodingOp.U1,
        (BellOutcome.PSI_MINUS, BellOutcome.PSI_MINUS): EncodingOp.U1,
        (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS): EncodingOp.U2,
        (BellOutcome.PHI_MINUS, BellOutcome.PSI_MINUS): EncodingOp.U2,
        (BellOutcome.PSI_PLUS, BellOutcome.PHI_PLUS): EncodingOp.U2,
        (BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS): EncodingOp.U2,
        (BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS): EncodingOp.U3,
        (BellOutcome.PHI_MINUS, BellOutcome.PSI_PLUS): EncodingOp.U3,
        (BellOutcome.PSI_PLUS, BellOutcome.PHI_MINUS): EncodingOp.U3,
        (BellOutcome.PSI_MINUS, BellOutcome.PHI_PLUS): EncodingOp.U3,
        (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS): EncodingOp.U4,
        (BellOutcome.PHI_MINUS, BellOutcome.PHI_PLUS): EncodingOp.U4,
        (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS): EncodingOp.U4,
        (BellOutcome.PSI_MINUS, BellOutcome.PSI_PLUS): EncodingOp.U4,
    }
    for (sender, receiver), op in expected.items():
        assert table.entries[DecodeKey(0, 0, sender, receiver)] is op


def _sign_flip(outcome: BellOutcome) -> BellOutcome:
    return {
        BellOutcome.PSI_PLUS: BellOutcome.PSI_MINUS,
        BellOutcome.PSI_MINUS: BellOutcome.PSI_PLUS,
        BellOutcome.PHI_PLUS: BellOutcome.PHI_MINUS,
        BellOutcome.PHI_MINUS: BellOutcome.PHI_PLUS,
    }[outcome]


def test_parity_flips_act_as_sender_sign_flips():
    table = default_decode_table()
    for sender in BELL_OUTCOMES:
        for receiver in BELL_OUTCOMES:
            base = table.entries[DecodeKey(0, 0, _sign_flip(sender), receiver)]
            assert table.entries[DecodeKey(1, 0, sender, receiver)] is base
            assert table.entries[DecodeKey(0, 1, sender, receiver)] is base
            both = table.entries[DecodeKey(0, 0, sender, receiver)]
            assert table.entries[DecodeKey(1, 1, sender, receiver)] is both


@given(
    st.integers(0, 1),
    st.integers(0, 1),
    st.sampled_from(list(BELL_OUTCOMES)),
)
@settings(max_examples=64, deadline=None)
def test_decode_is_bijective_per_announcement(p1, p2, sender):
    # with parities and the sender outcome fixed, the receiver outcome
    # determines the operation uniquely and covers all four
    table = default_decode_table()
    ops = {table.entries[DecodeKey(p1, p2, sender, r)] for r in BELL_OUTCOMES}
    assert ops == set(EncodingOp)


def test_dense_decode_view_matches_decode_on_every_key():
    table = default_decode_table()
    dense = table.dense
    assert dense.shape == (2, 2, 4, 4)
    for p1, p2, s, r in np.ndindex(dense.shape):
        key = DecodeKey(p1, p2, BELL_OUTCOMES[s], BELL_OUTCOMES[r])
        assert tuple(EncodingOp)[dense[p1, p2, s, r]].bits == table.decode(key)


def test_decode_returns_bit_strings():
    table = default_decode_table()
    key = DecodeKey(0, 0, BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS)
    assert table.decode(key) == "01"


def test_decode_rejects_unknown_keys():
    table = default_decode_table()
    with pytest.raises(KeyError):
        table.decode((0, 0, "PHI+", "PHI+"))  # type: ignore[arg-type]
