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
* A ``StateVector`` is a stack of registers, one per row of ``amps``,
  sharing one qubit layout.  A kernel treats the rows independently, so
  a stack of n rows gives bit for bit what n one-row calls give.  Gates
  and bases may be given per row; measurements take one uniform draw
  per row, so the caller orders its draws, and return one outcome each.

Invariant: ``make_state`` is the only place that validates a register
and normalises amplitudes.  Every kernel takes normalised rows and
returns them, built directly with read-only amplitudes and no further
checks.  Gates are unitary, so only the measurements
(``measure_qubit``, ``collapse_qubit``, ``measure_bell``) renormalise,
dividing the sampled branch by the square root of its probability.
"""

from __future__ import annotations

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
    """A stack of normalized pure states, one per row of ``amps``, over
    one ordered register layout of labeled qubits.

    Build one with ``make_state``; the kernels construct their results
    directly (see the module docstring).
    """

    qubits: tuple[QubitId, ...]
    amps: np.ndarray  # (rows, 2**num_qubits)

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def rows(self) -> int:
        return self.amps.shape[0]

    def index_of(self, qubit: QubitId) -> int:
        try:
            return self.qubits.index(qubit)
        except ValueError:
            raise ValueError(f"qubit {qubit} is not in this register") from None

    def amplitude(self, bits: str) -> complex:
        """Amplitude of the computational basis string (qubit 0 leftmost)
        in a one-row stack."""
        if len(bits) != self.num_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"expected a {self.num_qubits}-bit string, got {bits!r}")
        if self.rows != 1:
            raise ValueError(f"amplitude reads a one-row stack, this one has {self.rows}")
        return complex(self.amps[0, int(bits, 2) if bits else 0])


def _state(qubits: tuple[QubitId, ...], amps: np.ndarray) -> StateVector:
    """Wrap fresh kernel output: one flat row per register and read-only,
    not re-checked."""
    amps = amps.reshape(amps.shape[0], -1)
    amps.flags.writeable = False
    return StateVector(qubits, amps)


def make_state(qubits: Iterable[QubitId], amplitudes: Sequence[complex]) -> StateVector:
    """Build a normalized one-row state; rejects duplicate qubit ids,
    length mismatches and zero vectors."""
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
    return _state(qubits, (amps / norm)[None])


def take_rows(state: StateVector, rows, qubits: Sequence[QubitId] | None = None) -> StateVector:
    """The rows (an index array or a slice) of a stack, under new labels
    ``qubits`` for the same layout if given."""
    return _state(state.qubits if qubits is None else tuple(qubits), state.amps[rows])


def join_rows(parts: Iterable[StateVector], rows: int) -> StateVector:
    """Stack the rows of ``parts``, which share one layout and hold
    ``rows`` rows in all, in order, under the labels of the first.  Each
    part is copied into one preallocated stack as it arrives, so a
    generator of parts never holds them all beside the stack."""
    amps, qubits, start = None, (), 0
    for part in parts:
        if amps is None:
            amps, qubits = np.empty((rows, part.amps.shape[1]), complex), part.qubits
        amps[start : start + part.rows] = part.amps
        start += part.rows
    if amps is None or start != rows:
        raise ValueError(f"expected {rows} row(s) to join, got {start}")
    return _state(qubits, amps)


def _per_row(table: dict, choice) -> np.ndarray:
    """The (d, d) matrix of one choice, or a (rows, 1, d, d) stack of one per row."""
    if isinstance(choice, Enum):
        return table[choice]
    # list.index compares members by identity, with no Enum hashing per row
    members = list(table)
    return np.array(list(table.values()))[list(map(members.index, choice))][:, None]


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Row-wise product; a one-row operand pairs with every row of the other."""
    if not set(a.qubits).isdisjoint(b.qubits):
        raise ValueError("tensor operands share qubit ids")
    return _state(a.qubits + b.qubits, a.amps[:, :, None] * b.amps[:, None, :])


def reorder(state: StateVector, new_order: Sequence[QubitId]) -> StateVector:
    """Permute the register; the amplitude layout follows the new order."""
    new_order = tuple(new_order)
    if set(new_order) != set(state.qubits) or len(new_order) != state.num_qubits:
        raise ValueError("new order must be a permutation of the register")
    perm = [0] + [state.index_of(q) + 1 for q in new_order]
    psi = state.amps.reshape([state.rows] + [2] * state.num_qubits)
    return _state(new_order, psi.transpose(perm))


def _around(state: StateVector, target: QubitId) -> np.ndarray:
    """The amplitudes as (rows, 2**j, 2, rest): qubit j, the target, alone on axis 2."""
    return state.amps.reshape(state.rows, 1 << state.index_of(target), 2, -1)


def apply_gate(state: StateVector, gate: Gate | Sequence[Gate], target: QubitId) -> StateVector:
    """One gate on every row, or a sequence of gates, one per row."""
    return _state(state.qubits, _per_row(_GATE_MATRICES, gate) @ _around(state, target))


def apply_cnot(state: StateVector, control: QubitId, target: QubitId) -> StateVector:
    if control == target:
        raise ValueError("control and target must differ")
    i, j = state.index_of(control), state.index_of(target)
    # axis 0 holds the rows, so qubit q is on axis q + 1
    psi = state.amps.reshape([state.rows] + [2] * state.num_qubits)
    control_set = tuple(1 if axis == i + 1 else slice(None) for axis in range(psi.ndim))
    out = psi.copy()
    # indexing with an integer drops the control axis
    out[control_set] = np.flip(psi[control_set], axis=j + 1 - (j > i))
    return _state(state.qubits, out)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> for one-row states over the identical ordered register."""
    if a.qubits != b.qubits:
        raise ValueError("inner product requires identical registers")
    return complex(np.vdot(a.amps, b.amps))


def _sample(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Born sampling, one outcome per row of ``probs`` (rows, d): the first
    branch whose running total exceeds the row's uniform draw, else the
    last positive branch.  A branch with exactly zero probability is
    never chosen: it adds nothing to the running total."""
    positive = probs > 0.0
    if not positive.any(axis=1).all():
        raise ValueError("no branch has positive probability")
    hit = uniforms[:, None] < np.cumsum(probs, axis=1)
    last = probs.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    return np.where(hit.any(axis=1), np.argmax(hit, axis=1), last)


def _measure(
    bras: np.ndarray, psi: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project axis 2 of ``psi`` (rows, a, d, b) onto the d rows of
    ``bras``, (d, d) or one per row (rows, 1, d, d); returns each row's
    sampled outcome and its renormalised (rows, a, b) branch."""
    branches = bras @ psi
    weights = np.abs(branches)
    weights *= weights
    probs = weights.sum(axis=(1, 3))
    k = _sample(probs, uniforms)
    rows = np.arange(len(k))
    return k, branches[rows, :, k] / np.sqrt(probs[rows, k])[:, None, None]


def measure_qubit(
    state: StateVector,
    target: QubitId,
    basis: MeasurementBasis | Sequence[MeasurementBasis],
    uniforms: np.ndarray,
) -> tuple[np.ndarray, StateVector]:
    """Projective measurement of every row, in one basis or one per row;
    the measured qubit leaves the register."""
    k, branch = _measure(_per_row(_BASIS_BRAS, basis), _around(state, target), uniforms)
    return k, _state(tuple(q for q in state.qubits if q != target), branch)


def collapse_qubit(
    state: StateVector,
    target: QubitId,
    basis: MeasurementBasis | Sequence[MeasurementBasis],
    uniforms: np.ndarray,
) -> tuple[np.ndarray, StateVector]:
    """Measure-and-resend: the qubit stays, reset to the sampled eigenstate."""
    k, branch = _measure(_per_row(_BASIS_BRAS, basis), _around(state, target), uniforms)
    vectors = np.broadcast_to(_per_row(_BASIS_VECTORS, basis), (len(k), 1, 2, 2))
    eigenvectors = vectors[np.arange(len(k)), 0, k]
    # back to (rows, 2**j, 2, rest), the sampled eigenvector on axis 2
    post = eigenvectors[:, None, :, None] * branch[:, :, None, :]
    return k, _state(state.qubits, post)


def measure_bell(
    state: StateVector,
    pair: tuple[QubitId, QubitId],
    uniforms: np.ndarray,
) -> tuple[list[BellOutcome], StateVector]:
    """Bell measurement of every row on the ordered pair; both qubits
    leave the register."""
    a, b = pair
    if a == b:
        raise ValueError("bell pair must be two distinct qubits")
    i, j = state.index_of(a), state.index_of(b)
    rest = [m for m in range(state.num_qubits) if m != i and m != j]
    psi = state.amps.reshape([state.rows] + [2] * state.num_qubits)
    psi = psi.transpose([0, i + 1, j + 1, *(m + 1 for m in rest)])
    k, branch = _measure(_BELL_BRAS, psi.reshape(state.rows, 1, 4, -1), uniforms)
    outcomes = [BELL_OUTCOMES[index] for index in k.tolist()]
    return outcomes, _state(tuple(state.qubits[m] for m in rest), branch)
