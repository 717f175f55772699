"""Unit tests for the dense statevector core."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdcsim.attacks import _apply_single, _cnot_vector
from csdcsim.states import (
    ATOL,
    BASES,
    BELL_OUTCOMES,
    BellOutcome,
    Gate,
    MeasurementBasis,
    QubitId,
    StateVector,
    _sample,
    apply_cnot,
    apply_gate,
    collapse_qubit,
    inner_product,
    make_state,
    measure_bell,
    measure_branches,
    measure_qubit,
    reorder,
    take_rows,
    tensor,
)

from kernel_reference import amplitude

INV_SQRT2 = 1.0 / math.sqrt(2.0)

Q = [QubitId(n, "q") for n in range(6)]


def random_state(qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** len(qubits)) + 1j * rng.normal(size=2 ** len(qubits))
    return make_state(tuple(qubits), amps)


# --- construction -------------------------------------------------------


def test_make_state_normalizes():
    state = make_state((Q[0],), [3.0, 4.0])
    assert np.isclose(abs(amplitude(state, "0")), 0.6)
    assert np.isclose(abs(amplitude(state, "1")), 0.8)


def test_make_state_rejects_duplicates():
    with pytest.raises(ValueError):
        make_state((Q[0], Q[0]), [1, 0, 0, 0])


def test_make_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        make_state((Q[0],), [1, 0, 0])


def test_make_state_rejects_zero_vector():
    with pytest.raises(ValueError):
        make_state((Q[0],), [0, 0])


# neither a NaN nor an infinite norm is <= ATOL, so the zero-norm test alone lets it through
@pytest.mark.parametrize(
    "amplitudes", [[math.nan, 1], [math.inf, 1], [1, 1j * math.inf]], ids=["nan", "inf", "inf-imag"]
)
def test_make_state_rejects_non_finite_amplitudes(amplitudes):
    with pytest.raises(ValueError, match="non-finite"):
        make_state((Q[0],), amplitudes)


def test_amplitudes_are_frozen():
    state = make_state((Q[0],), [1, 0])
    with pytest.raises(ValueError):
        state.amps[0] = 0.5


# --- gates --------------------------------------------------------------


def test_all_gates_are_unitary():
    for gate in Gate:
        matrix = gate.matrix
        assert np.allclose(matrix @ matrix.conj().T, np.eye(2), atol=ATOL)


def test_hadamard_on_zero():
    state = apply_gate(make_state((Q[0],), [1, 0]), Gate.HADAMARD, Q[0])
    assert np.isclose(amplitude(state, "0"), INV_SQRT2, atol=ATOL)
    assert np.isclose(amplitude(state, "1"), INV_SQRT2, atol=ATOL)


def test_minus_i_pauli_y_matrix():
    # real rotation [[0,-1],[1,0]]: |0> -> |1>, |1> -> -|0>
    state = apply_gate(make_state((Q[0],), [1, 0]), Gate.MINUS_I_PAULI_Y, Q[0])
    assert np.isclose(amplitude(state, "1"), 1.0, atol=ATOL)
    state = apply_gate(make_state((Q[0],), [0, 1]), Gate.MINUS_I_PAULI_Y, Q[0])
    assert np.isclose(amplitude(state, "0"), -1.0, atol=ATOL)


def test_gate_targets_named_qubit_only():
    pair = make_state((Q[0], Q[1]), [1, 0, 0, 0])
    flipped = apply_gate(pair, Gate.PAULI_X, Q[1])
    assert np.isclose(amplitude(flipped, "01"), 1.0, atol=ATOL)


def test_cnot_truth_table():
    for control_bit, target_bit in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        amps = np.zeros(4)
        amps[2 * control_bit + target_bit] = 1.0
        state = make_state((Q[0], Q[1]), amps)
        out = apply_cnot(state, Q[0], Q[1])
        expected = f"{control_bit}{target_bit ^ control_bit}"
        assert np.isclose(amplitude(out, expected), 1.0, atol=ATOL)


def test_cnot_copies_computational_superposition():
    plus = apply_gate(make_state((Q[0],), [1, 0]), Gate.HADAMARD, Q[0])
    joint = tensor(plus, make_state((Q[1],), [1, 0]))
    out = apply_cnot(joint, Q[0], Q[1])
    assert np.isclose(amplitude(out, "00"), INV_SQRT2, atol=ATOL)
    assert np.isclose(amplitude(out, "11"), INV_SQRT2, atol=ATOL)
    assert abs(amplitude(out, "01")) < ATOL


# --- tensor and reorder -------------------------------------------------


def test_tensor_of_psi_plus_pairs():
    psi = make_state((Q[0], Q[1]), [0, INV_SQRT2, INV_SQRT2, 0])
    other = make_state((Q[2], Q[3]), [0, INV_SQRT2, INV_SQRT2, 0])
    joint = tensor(psi, other)
    for bits in ["0101", "0110", "1001", "1010"]:
        assert np.isclose(amplitude(joint, bits), 0.5, atol=ATOL)
    assert abs(amplitude(joint, "0011")) < ATOL


def test_tensor_rejects_shared_qubits():
    a = make_state((Q[0],), [1, 0])
    b = make_state((Q[0],), [0, 1])
    with pytest.raises(ValueError):
        tensor(a, b)


def test_reorder_permutes_amplitudes():
    state = make_state((Q[0], Q[1]), [0, 1, 0, 0])  # |01>
    swapped = reorder(state, (Q[1], Q[0]))
    assert np.isclose(amplitude(swapped, "10"), 1.0, atol=ATOL)


def test_reorder_rejects_non_permutation():
    state = make_state((Q[0], Q[1]), [1, 0, 0, 0])
    with pytest.raises(ValueError):
        reorder(state, (Q[0], Q[2]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_tensor_amplitudes_factorize(seed):
    a = random_state(Q[:2], seed)
    b = random_state(Q[2:4], seed + 1)
    joint = tensor(a, b)
    rng = np.random.default_rng(seed + 2)
    bits = "".join(str(x) for x in rng.integers(0, 2, size=4))
    expected = amplitude(a, bits[:2]) * amplitude(b, bits[2:])
    assert np.isclose(amplitude(joint, bits), expected, atol=ATOL)


# --- inner products -----------------------------------------------------


def test_bell_outcomes_are_orthonormal():
    pair = (Q[0], Q[1])
    kets = [make_state(pair, outcome.vector) for outcome in BELL_OUTCOMES]
    for i, a in enumerate(kets):
        for j, b in enumerate(kets):
            expected = 1.0 if i == j else 0.0
            assert np.isclose(inner_product(a, b), expected, atol=ATOL)


def test_inner_product_requires_same_register():
    a = make_state((Q[0],), [1, 0])
    b = make_state((Q[1],), [1, 0])
    with pytest.raises(ValueError):
        inner_product(a, b)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_inner_product_conjugate_symmetry(seed):
    a = random_state(Q[:3], seed)
    b = random_state(Q[:3], seed + 7)
    assert np.isclose(inner_product(a, b), np.conj(inner_product(b, a)), atol=ATOL)


@given(st.integers(0, 2**32 - 1), st.sampled_from(list(Gate)))
@settings(max_examples=40, deadline=None)
def test_gates_preserve_overlaps(seed, gate):
    a = random_state(Q[:2], seed)
    b = random_state(Q[:2], seed + 13)
    before = inner_product(a, b)
    after = inner_product(apply_gate(a, gate, Q[0]), apply_gate(b, gate, Q[0]))
    assert np.isclose(before, after, atol=1e-10)


def test_self_inverse_gates_round_trip():
    state = random_state(Q[:2], 99)
    for gate in (Gate.PAULI_X, Gate.PAULI_Z, Gate.HADAMARD):
        twice = apply_gate(apply_gate(state, gate, Q[1]), gate, Q[1])
        assert np.isclose(abs(inner_product(state, twice)), 1.0, atol=ATOL)


# --- measurement --------------------------------------------------------


def test_measure_removes_qubit():
    state = make_state((Q[0], Q[1]), [1, 0, 0, 0])
    rng = np.random.default_rng(0)
    (outcome,), rest = measure_qubit(state, Q[0], MeasurementBasis.COMPUTATIONAL, rng.random(1))
    assert outcome == 0
    assert rest.qubits == (Q[1],)


def test_collapse_keeps_qubit():
    plus = apply_gate(make_state((Q[0],), [1, 0]), Gate.HADAMARD, Q[0])
    rng = np.random.default_rng(3)
    (outcome,), collapsed = collapse_qubit(
        plus, Q[0], MeasurementBasis.COMPUTATIONAL, rng.random(1)
    )
    assert collapsed.qubits == (Q[0],)
    assert np.isclose(abs(amplitude(collapsed, str(outcome))), 1.0, atol=ATOL)


def test_eigenstate_measurement_is_deterministic():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        plus = apply_gate(make_state((Q[0],), [1, 0]), Gate.HADAMARD, Q[0])
        state = tensor(plus, make_state((Q[1],), [0, 1]))
        (outcome,), _ = measure_qubit(state, Q[0], MeasurementBasis.DIAGONAL, rng.random(1))
        assert outcome == 0
        (outcome,), _ = measure_qubit(
            state, Q[1], MeasurementBasis.COMPUTATIONAL, rng.random(1)
        )
        assert outcome == 1


def test_plus_state_computational_frequency():
    rng = np.random.default_rng(20260817)
    trials = 10_000
    ones = 0
    for _ in range(trials):
        plus = apply_gate(make_state((Q[0],), [1, 0]), Gate.HADAMARD, Q[0])
        (outcome,), _ = measure_qubit(plus, Q[0], MeasurementBasis.COMPUTATIONAL, rng.random(1))
        ones += outcome
    assert abs(ones / trials - 0.5) < 0.015


def test_measurement_collapse_is_consistent():
    # measuring the first qubit of |PSI+> forces the opposite bit on the other
    for seed in range(50):
        rng = np.random.default_rng(seed)
        psi = make_state((Q[0], Q[1]), [0, INV_SQRT2, INV_SQRT2, 0])
        (outcome,), rest = measure_qubit(
            psi, Q[0], MeasurementBasis.COMPUTATIONAL, rng.random(1)
        )
        assert np.isclose(abs(amplitude(rest, str(1 - outcome))), 1.0, atol=ATOL)


def test_measure_bell_removes_pair_and_is_sharp():
    for outcome in BELL_OUTCOMES:
        for seed in range(10):
            rng = np.random.default_rng(seed)
            state = tensor(
                make_state((Q[0], Q[1]), outcome.vector),
                make_state((Q[2],), [1, 0]),
            )
            (got,), rest = measure_bell(state, (Q[0], Q[1]), rng.random(1))
            assert BELL_OUTCOMES[got] is outcome
            assert rest.qubits == (Q[2],)


def test_bell_outcome_serialization():
    labels = {o.value for o in BellOutcome}
    assert labels == {"PSI+", "PSI-", "PHI+", "PHI-"}


def test_measure_missing_qubit_fails():
    state = make_state((Q[0],), [1, 0])
    with pytest.raises(ValueError):
        measure_qubit(state, Q[1], MeasurementBasis.COMPUTATIONAL, np.random.default_rng(0).random(1))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_bell_measurement_probabilities_are_complete(seed):
    state = random_state(Q[:2], seed)
    total = sum(
        abs(inner_product(make_state((Q[0], Q[1]), o.vector), state)) ** 2
        for o in BELL_OUTCOMES
    )
    assert np.isclose(total, 1.0, atol=1e-10)


# --- kernels against a plain-array reference ------------------------------
# The kernels reshape around their target; the reference moves axes on
# plain arrays, as the exact oracle in attacks.py does.  Both sample with
# _sample from the same uniform draw, so a kernel agrees with the
# reference when it picks the same outcome and its post-state matches
# within ATOL.


def reference_measure(state, axes, vectors, uniform):
    """Project the qubits at ``axes`` onto the rows of ``vectors``; returns
    the sampled outcome and the renormalised rest of the register."""
    n = state.num_qubits
    psi = np.moveaxis(state.amps.reshape([2] * n), axes, range(len(axes)))
    branches = vectors.conj() @ psi.reshape(len(vectors), -1)
    probs = [float(np.vdot(row, row).real) for row in branches]
    (k,) = _sample(np.array([probs]), uniform)
    return k, branches[k] / math.sqrt(probs[k])


def close(a, b):
    return np.allclose(a, b, rtol=0.0, atol=ATOL)


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_single_qubit_kernels_match_the_moveaxis_reference(n, seed):
    state = random_state(Q[:n], seed)
    for j, target in enumerate(state.qubits):
        for gate in Gate:
            expected = _apply_single(state.amps, n, j, gate.matrix)
            assert close(apply_gate(state, gate, target).amps, expected)
        for basis in MeasurementBasis:
            uniform = np.random.default_rng(seed).random(1)
            k, branch = reference_measure(state, [j], basis.vectors, uniform)
            (got,), rest = measure_qubit(state, target, basis, uniform)
            assert got == k
            assert rest.qubits == state.qubits[:j] + state.qubits[j + 1 :]
            assert close(rest.amps, branch)
            (got,), kept = collapse_qubit(state, target, basis, uniform)
            assert got == k
            post = np.outer(basis.vectors[k], branch).reshape([2] * n)
            assert kept.qubits == state.qubits
            assert close(kept.amps, np.moveaxis(post, 0, j).reshape(-1))


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_two_qubit_kernels_match_the_moveaxis_reference(n, seed):
    state = random_state(Q[:n], seed)
    bell_rows = np.stack([outcome.vector for outcome in BELL_OUTCOMES])
    for i, j in itertools.permutations(range(n), 2):
        a, b = state.qubits[i], state.qubits[j]
        assert close(apply_cnot(state, a, b).amps, _cnot_vector(state.amps, n, i, j))
        uniform = np.random.default_rng(seed).random(1)
        k, branch = reference_measure(state, [i, j], bell_rows, uniform)
        (got,), rest = measure_bell(state, (a, b), uniform)
        assert got == k
        assert rest.qubits == tuple(q for q in state.qubits if q not in (a, b))
        assert close(rest.amps, branch)


# --- stacks against one-row calls ------------------------------------------
# A stack of n rows must give bit for bit what n one-row calls give: the
# session engine relies on it to reproduce transcripts exactly.


def random_stack(qubits, rows, rng):
    seeds = rng.integers(0, 2**32, size=rows)
    amps = np.concatenate([random_state(qubits, int(s)).amps for s in seeds])
    return StateVector(qubits, amps)


def assert_rows_equal(stacked, singles):
    assert stacked.rows == len(singles)
    for row, single in zip(stacked.amps, singles):
        assert single.rows == 1 and single.qubits == stacked.qubits
        assert np.array_equal(row, single.amps[0])


@given(st.integers(1, 13), st.integers(1, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_stacked_kernels_match_one_row_calls_bit_for_bit(n, rows, seed):
    rng = np.random.default_rng(seed)
    qubits = tuple(QubitId(k, "q") for k in range(n))
    stack = random_stack(qubits, rows, rng)
    singles = [take_rows(stack, [r]) for r in range(rows)]
    uniforms = rng.random(rows)
    # per-row gates and bases are positions in Gate and BASES
    gates = rng.integers(0, len(Gate), size=rows)
    bases = rng.integers(0, len(BASES), size=rows)
    j = int(rng.integers(0, n))
    target = qubits[j]

    assert_rows_equal(
        apply_gate(stack, gates, target),
        [apply_gate(one, list(Gate)[gate], target) for one, gate in zip(singles, gates)],
    )
    assert_rows_equal(
        apply_gate(stack, Gate.HADAMARD, target),
        [apply_gate(one, Gate.HADAMARD, target) for one in singles],
    )
    for kernel in (measure_qubit, collapse_qubit):
        outcomes, post = kernel(stack, target, bases, uniforms)
        calls = [
            kernel(one, target, BASES[basis], uniforms[r : r + 1])
            for r, (one, basis) in enumerate(zip(singles, bases))
        ]
        assert outcomes.tolist() == [k for (k,), _ in calls]
        assert_rows_equal(post, [single for _, single in calls])
    # every outcome of each row at once, as the session reads a register;
    # a draw picks measure_qubit's branch out of them
    probs, branches = measure_branches(stack, target, bases)
    calls = [measure_branches(one, target, BASES[basis]) for one, basis in zip(singles, bases)]
    assert probs.tobytes() == np.concatenate([weights for weights, _ in calls]).tobytes()
    assert_rows_equal(branches, [take_rows(left, [k]) for _, left in calls for k in range(2)])
    outcomes, post = measure_qubit(stack, target, bases, uniforms)
    assert outcomes.tolist() == _sample(probs, uniforms).tolist()
    assert_rows_equal(post, [take_rows(branches, [2 * r + k]) for r, k in enumerate(outcomes)])
    # the session reads a Hadamard then a computational measurement out as
    # one diagonal measurement, with one basis or one per row
    rotated = apply_gate(stack, Gate.HADAMARD, target)
    expected, then = measure_qubit(rotated, target, MeasurementBasis.COMPUTATIONAL, uniforms)
    diagonal_rows = np.full(rows, BASES.index(MeasurementBasis.DIAGONAL))
    for diagonal in (MeasurementBasis.DIAGONAL, diagonal_rows):
        outcomes, post = measure_qubit(stack, target, diagonal, uniforms)
        assert np.array_equal(outcomes, expected)
        assert post.qubits == then.qubits and np.array_equal(post.amps, then.amps)
    if n == 1:
        return

    other = qubits[(j + int(rng.integers(1, n))) % n]
    assert_rows_equal(
        apply_cnot(stack, target, other), [apply_cnot(one, target, other) for one in singles]
    )
    outcomes, post = measure_bell(stack, (target, other), uniforms)
    calls = [measure_bell(one, (target, other), uniforms[r : r + 1]) for r, one in enumerate(singles)]
    assert outcomes.tolist() == [k for (k,), _ in calls]
    assert_rows_equal(post, [single for _, single in calls])

    split = int(rng.integers(1, n))
    left = random_stack(qubits[:split], rows, rng)
    right = random_stack(qubits[split:], rows, rng)
    assert_rows_equal(
        tensor(left, right),
        [tensor(take_rows(left, [r]), take_rows(right, [r])) for r in range(rows)],
    )
