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

from kernel_reference import amplitude, bell_product_amplitudes

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
            assert np.isclose(amplitude(ket, bits), nonzero.get(bits, 0.0), atol=ATOL)


def test_ghz_element_one_is_the_standard_pair():
    ket = ghz_state_vector(1, TRIPLE)
    assert np.isclose(amplitude(ket, "000"), INV_SQRT2, atol=ATOL)
    assert np.isclose(amplitude(ket, "111"), INV_SQRT2, atol=ATOL)


def test_ghz_element_five_flips_the_travel_bit():
    ket = ghz_state_vector(5, TRIPLE)
    assert np.isclose(amplitude(ket, "010"), INV_SQRT2, atol=ATOL)
    assert np.isclose(amplitude(ket, "101"), INV_SQRT2, atol=ATOL)


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
        assert (verify_ghz_expansion(index) < ATOL) == expected_holds[index]


def test_holding_expansions_are_exact():
    for index in (1, 2, 5, 6, 7, 8):
        assert verify_ghz_expansion(index) < 1e-12


def test_failing_expansions_have_the_known_residual():
    # the two tabulated rows that disagree miss by exactly 1/sqrt(2)
    for index in (3, 4):
        assert np.isclose(verify_ghz_expansion(index), 0.707106781186548, atol=1e-12)


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
            residual, _ = verify_swap_identity(left, right)
            assert residual < 1e-12, (left, right)


def _nonzero(amps):
    """The cells of a (4, 4) swap table that carry amplitude, by outcome pair."""
    return {
        (BELL_OUTCOMES[s], BELL_OUTCOMES[r]): amps[s, r]
        for s, r in zip(*(np.abs(amps) > 1e-9).nonzero())
    }


def test_swap_outcome_tables_are_uniform_on_four():
    for left in BELL_OUTCOMES:
        for right in BELL_OUTCOMES:
            _, amps = verify_swap_identity(left, right)
            assert amps.shape == (4, 4)
            support = _nonzero(amps)
            assert len(support) == 4
            for coeff in support.values():
                assert np.isclose(abs(coeff), 0.5, atol=ATOL)


def test_psi_plus_squared_sign_pattern():
    table = _nonzero(verify_swap_identity(BellOutcome.PSI_PLUS, BellOutcome.PSI_PLUS)[1])
    expected = {
        (BellOutcome.PSI_PLUS, BellOutcome.PSI_PLUS): 0.5,
        (BellOutcome.PSI_MINUS, BellOutcome.PSI_MINUS): -0.5,
        (BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS): 0.5,
        (BellOutcome.PHI_MINUS, BellOutcome.PHI_MINUS): -0.5,
    }
    assert set(table) == set(expected)
    for key, coeff in expected.items():
        assert np.isclose(table[key], coeff, atol=ATOL)


def _psi_plus_squared_with_one_sign_flipped():
    amps = np.zeros((4, 4))
    for (a, b), coeff in bases._PSI_PLUS_REFERENCE_PATTERNS[BellOutcome.PSI_PLUS].items():
        amps[BELL_OUTCOMES.index(a), BELL_OUTCOMES.index(b)] = coeff
    cell = BELL_OUTCOMES.index(BellOutcome.PSI_PLUS)
    amps[cell, cell] *= -1
    return amps


@pytest.mark.parametrize(
    "left, malformed",
    [
        # two cells at 1/sqrt(2): complete, but not four at 1/2
        (BellOutcome.PHI_PLUS, np.diag([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2)),
        # eight cells at 1/(2 sqrt(2)): complete, but eight magnitudes are neither 0 nor 1/2
        (BellOutcome.PHI_PLUS, np.vstack([np.full((2, 4), 1 / math.sqrt(8)), np.zeros((2, 4))])),
        # four cells at 1/2 and complete, but off the reference sign table
        (BellOutcome.PSI_PLUS, _psi_plus_squared_with_one_sign_flipped()),
    ],
    ids=["two-cells", "eight-cells", "one-sign-flipped"],
)
def test_a_malformed_swap_table_fails_on_its_residual_alone(monkeypatch, left, malformed):
    monkeypatch.setattr(bases, "bell_pair_amplitudes", lambda first, second: malformed)
    residual, amps = verify_swap_identity(left, BellOutcome.PSI_PLUS)
    assert amps is malformed
    assert np.isclose(np.sum(np.abs(amps) ** 2), 1.0, atol=ATOL)
    assert residual >= ATOL


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
    assert table.dense.shape == (2, 2, 4, 4)
    assert set(table.dense.ravel().tolist()) == set(range(len(EncodingOp)))


def test_decode_table_build_rejects_an_ambiguous_or_incomplete_readout(monkeypatch):
    # every operation seeing every pair collides at the first key a second
    # operation marks; no operation seeing any pair leaves every key empty
    monkeypatch.setattr(bases, "bell_pair_amplitudes", lambda a, b: np.ones((4,) * a.ndim))
    first = f"parities=00 sender={BELL_OUTCOMES[0].value} receiver={BELL_OUTCOMES[0].value}"
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
        assert table.decode(0, 0, sender, receiver) == op.bits


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
            base = table.decode(0, 0, _sign_flip(sender), receiver)
            assert table.decode(1, 0, sender, receiver) == base
            assert table.decode(0, 1, sender, receiver) == base
            both = table.decode(0, 0, sender, receiver)
            assert table.decode(1, 1, sender, receiver) == both


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
    bits = {table.decode(p1, p2, sender, r) for r in BELL_OUTCOMES}
    assert bits == {op.bits for op in EncodingOp}


def test_dense_decode_view_matches_decode_on_every_key():
    table = default_decode_table()
    dense = table.dense
    assert dense.shape == (2, 2, 4, 4)
    for p1, p2, s, r in np.ndindex(dense.shape):
        bits = table.decode(p1, p2, BELL_OUTCOMES[s], BELL_OUTCOMES[r])
        assert tuple(EncodingOp)[dense[p1, p2, s, r]].bits == bits


@pytest.mark.parametrize(
    "key",
    [
        (-1, 0, BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS),
        (0, -1, BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS),
        (2, 0, BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS),
        (0, 2, BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS),
        (0, 0, "PHI+", BellOutcome.PHI_PLUS),
        (0, 0, BellOutcome.PHI_PLUS, "PHI+"),
        (0, 0, 2, 3),
    ],
    ids=["p1-negative", "p2-negative", "p1-two", "p2-two", "sender-string", "receiver-string",
         "positions"],
)
def test_decode_rejects_keys_the_dense_table_would_wrap_or_misread(key):
    # read as array indices, a parity of -1 would be row 1 and a position
    # would pass for an outcome
    with pytest.raises(KeyError):
        default_decode_table().decode(*key)


def test_decode_returns_bit_strings():
    table = default_decode_table()
    assert table.decode(0, 0, BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS) == "01"


def test_decode_rejects_unknown_keys():
    table = default_decode_table()
    with pytest.raises(KeyError):
        table.decode(0, 0, "PHI+", "PHI+")  # type: ignore[arg-type]
