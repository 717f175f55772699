"""Dense statevector simulation of small labeled-qubit registers.

Conventions used throughout the package:

* Qubit 0 of a register is the most significant bit of the amplitude
  index, so the amplitude at index ``i`` belongs to the basis string
  ``format(i, f"0{n}b")`` read left to right.
* Computational outcome 0 means |0>, outcome 1 means |1>.  Diagonal
  outcome 0 means |+> = (|0>+|1>)/sqrt(2), outcome 1 means |->.
* Measuring removes the measured qubit(s) from the register, because
  the protocol never reuses a measured photon.  ``collapse_qubit`` is
  the one exception: it models measure-and-resend, leaving the qubit
  behind in the sampled eigenstate.
* Bell outcomes are stated against ordered pairs: PSI_PLUS on (a, b)
  is (|0_a 1_b> + |1_a 0_b>)/sqrt(2), and likewise for the others.

Invariant: ``make_state`` is the only place that validates a register
and normalises amplitudes.  Every kernel takes a normalised state and
returns one, built directly with read-only amplitudes and no further
checks.  Gates are unitary, so only the measurements
(``measure_qubit``, ``collapse_qubit``, ``measure_bell``) renormalise,
dividing the sampled branch by the square root of its probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

ATOL = 1e-12

_SQRT_HALF = 1.0 / np.sqrt(2.0)


class QubitId(NamedTuple):
    """Label for one photon: its triplet number and its role in that triplet.

    The protocol uses roles "h" (home), "t" (travel), "c1".."ck"
    (control, one per controller) and "e" (eavesdropper ancilla); the
    simulator itself accepts any role string.  A tuple, so hashing and
    equality run in C.
    """

    triplet: int
    role: str

    def __str__(self) -> str:
        return f"{self.role}{self.triplet}"


class Gate(Enum):
    """Single-qubit operations used by the protocol."""

    IDENTITY = "I"
    PAULI_X = "X"
    MINUS_I_PAULI_Y = "-iY"
    PAULI_Z = "Z"
    HADAMARD = "H"

    @property
    def matrix(self) -> np.ndarray:
        return _GATE_MATRICES[self]


def _frozen(rows) -> np.ndarray:
    arr = np.array(rows, dtype=complex)
    arr.flags.writeable = False
    return arr


_GATE_MATRICES = {
    Gate.IDENTITY: _frozen([[1, 0], [0, 1]]),
    Gate.PAULI_X: _frozen([[0, 1], [1, 0]]),
    Gate.MINUS_I_PAULI_Y: _frozen([[0, -1], [1, 0]]),
    Gate.PAULI_Z: _frozen([[1, 0], [0, -1]]),
    Gate.HADAMARD: _frozen([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]]),
}

for _gate, _m in _GATE_MATRICES.items():
    assert np.allclose(_m.conj().T @ _m, np.eye(2)), _gate


class MeasurementBasis(Enum):
    COMPUTATIONAL = "Z"
    DIAGONAL = "X"

    @property
    def vectors(self) -> np.ndarray:
        """Rows are the outcome eigenvectors, outcome 0 first."""
        return _BASIS_VECTORS[self]


_BASIS_VECTORS = {
    MeasurementBasis.COMPUTATIONAL: _frozen([[1, 0], [0, 1]]),
    MeasurementBasis.DIAGONAL: _frozen([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]]),
}
# Rows project onto the outcome eigenvectors.
_BASIS_BRAS = {basis: _frozen(vectors.conj()) for basis, vectors in _BASIS_VECTORS.items()}


class BellOutcome(Enum):
    PSI_PLUS = "PSI+"
    PSI_MINUS = "PSI-"
    PHI_PLUS = "PHI+"
    PHI_MINUS = "PHI-"

    @property
    def vector(self) -> np.ndarray:
        """Amplitudes over the two-bit index of the ordered pair."""
        return _BELL_MATRIX[_BELL_INDEX[self]]


BELL_OUTCOMES: tuple[BellOutcome, ...] = tuple(BellOutcome)

# Rows follow BELL_OUTCOMES order; columns are |00>, |01>, |10>, |11>.
_BELL_MATRIX = _frozen(
    [
        [0, _SQRT_HALF, _SQRT_HALF, 0],
        [0, _SQRT_HALF, -_SQRT_HALF, 0],
        [_SQRT_HALF, 0, 0, _SQRT_HALF],
        [_SQRT_HALF, 0, 0, -_SQRT_HALF],
    ]
)
_BELL_INDEX = {outcome: k for k, outcome in enumerate(BELL_OUTCOMES)}
_BELL_BRAS = _frozen(_BELL_MATRIX.conj())


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state over an ordered register of labeled qubits.

    Build one with ``make_state``; the kernels construct their results
    directly (see the module docstring).
    """

    qubits: tuple[QubitId, ...]
    amps: np.ndarray

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def index_of(self, qubit: QubitId) -> int:
        try:
            return self.qubits.index(qubit)
        except ValueError:
            raise ValueError(f"qubit {qubit} is not in this register") from None

    def amplitude(self, bits: str) -> complex:
        """Amplitude of the computational basis string (qubit 0 leftmost)."""
        if len(bits) != self.num_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"expected a {self.num_qubits}-bit string, got {bits!r}")
        return complex(self.amps[int(bits, 2)]) if bits else complex(self.amps[0])


def _state(qubits: tuple[QubitId, ...], amps: np.ndarray) -> StateVector:
    """Wrap fresh kernel output: flattened and read-only, not re-checked."""
    amps = amps.reshape(-1)
    amps.flags.writeable = False
    return StateVector(qubits, amps)


def make_state(qubits: Iterable[QubitId], amplitudes: Sequence[complex]) -> StateVector:
    """Build a normalized state; rejects duplicate qubit ids, length
    mismatches and zero vectors."""
    qubits = tuple(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubit ids in register")
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.shape[0] != 1 << len(qubits):
        raise ValueError(
            f"amplitude length {amps.shape[0]} does not match {len(qubits)} qubit(s)"
        )
    norm = float(np.linalg.norm(amps))
    if norm <= ATOL:
        raise ValueError("state vector has zero norm")
    return _state(qubits, amps / norm)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    if not set(a.qubits).isdisjoint(b.qubits):
        raise ValueError("tensor operands share qubit ids")
    return _state(a.qubits + b.qubits, np.outer(a.amps, b.amps))


def reorder(state: StateVector, new_order: Sequence[QubitId]) -> StateVector:
    """Permute the register; the amplitude layout follows the new order."""
    new_order = tuple(new_order)
    if set(new_order) != set(state.qubits) or len(new_order) != state.num_qubits:
        raise ValueError("new order must be a permutation of the register")
    perm = [state.index_of(q) for q in new_order]
    return _state(new_order, state.amps.reshape([2] * state.num_qubits).transpose(perm))


def apply_gate(state: StateVector, gate: Gate, target: QubitId) -> StateVector:
    # (2**j, 2, rest): qubit j alone on the middle axis
    psi = state.amps.reshape(1 << state.index_of(target), 2, -1)
    return _state(state.qubits, gate.matrix @ psi)


def apply_cnot(state: StateVector, control: QubitId, target: QubitId) -> StateVector:
    if control == target:
        raise ValueError("control and target must differ")
    i, j = state.index_of(control), state.index_of(target)
    psi = state.amps.reshape([2] * state.num_qubits)
    control_set = tuple(1 if axis == i else slice(None) for axis in range(psi.ndim))
    out = psi.copy()
    # indexing with an integer drops the control axis
    out[control_set] = np.flip(psi[control_set], axis=j - (j > i))
    return _state(state.qubits, out)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> for states over the identical ordered register."""
    if a.qubits != b.qubits:
        raise ValueError("inner product requires identical registers")
    return complex(np.vdot(a.amps, b.amps))


def _sample(rng: np.random.Generator, probs: Sequence[float]) -> int:
    """Born sampling; a branch with exactly zero probability is never chosen."""
    r = float(rng.random())
    acc = 0.0
    last = -1
    for k, p in enumerate(probs):
        if p <= 0.0:
            continue
        acc += p
        last = k
        if r < acc:
            return k
    if last < 0:
        raise ValueError("no branch has positive probability")
    return last


def _measure(bras: np.ndarray, psi: np.ndarray, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Project the middle axis of ``psi`` (shape (a, d, b)) onto the d
    rows of ``bras``; returns the sampled outcome and its renormalised
    (a, b) branch."""
    branches = bras @ psi
    weights = np.abs(branches)
    weights *= weights
    probs = weights.sum(axis=(0, 2)).tolist()
    k = _sample(rng, probs)
    return k, branches[:, k] / math.sqrt(probs[k])


def measure_qubit(
    state: StateVector,
    target: QubitId,
    basis: MeasurementBasis,
    rng: np.random.Generator,
) -> tuple[int, StateVector]:
    """Projective measurement; the measured qubit leaves the register."""
    j = state.index_of(target)
    k, branch = _measure(_BASIS_BRAS[basis], state.amps.reshape(1 << j, 2, -1), rng)
    return k, _state(state.qubits[:j] + state.qubits[j + 1 :], branch)


def collapse_qubit(
    state: StateVector,
    target: QubitId,
    basis: MeasurementBasis,
    rng: np.random.Generator,
) -> tuple[int, StateVector]:
    """Measure-and-resend: the qubit stays, reset to the sampled eigenstate."""
    j = state.index_of(target)
    k, branch = _measure(_BASIS_BRAS[basis], state.amps.reshape(1 << j, 2, -1), rng)
    # back to (2**j, 2, rest), the sampled eigenvector on the middle axis
    post = basis.vectors[k][:, None] * branch[:, None, :]
    return k, _state(state.qubits, post)


def measure_bell(
    state: StateVector,
    pair: tuple[QubitId, QubitId],
    rng: np.random.Generator,
) -> tuple[BellOutcome, StateVector]:
    """Bell measurement on the ordered pair; both qubits leave the register."""
    a, b = pair
    if a == b:
        raise ValueError("bell pair must be two distinct qubits")
    i, j = state.index_of(a), state.index_of(b)
    rest = [m for m in range(state.num_qubits) if m != i and m != j]
    psi = state.amps.reshape([2] * state.num_qubits).transpose([i, j, *rest])
    k, branch = _measure(_BELL_BRAS, psi.reshape(1, 4, -1), rng)
    return BELL_OUTCOMES[k], _state(tuple(state.qubits[m] for m in rest), branch)
