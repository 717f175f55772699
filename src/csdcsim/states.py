"""Dense statevector simulation of small labeled-qubit registers.

Conventions used throughout the package:

* Qubit 0 of a register is the most significant bit of the amplitude
  index, so the amplitude at index ``i`` belongs to the basis string
  ``format(i, f"0{n}b")`` read left to right.
* Computational outcome 0 means |0>, outcome 1 means |1>.  Diagonal
  outcome 0 means |+> = (|0>+|1>)/sqrt(2), outcome 1 means |->.
* Measuring removes the measured qubit(s) from the register, because
  the protocol never reuses a measured photon.  ``collapse_qubit`` and
  ``collapse_branches`` are the exception: they model measure-and-resend,
  leaving the qubit behind in the sampled eigenstate.
* Bell outcomes are stated against ordered pairs: PSI_PLUS on (a, b)
  is (|0_a 1_b> + |1_a 0_b>)/sqrt(2), and likewise for the others.
* A ``StateVector`` is a stack of registers, one per row of ``amps``,
  sharing one qubit layout.  A kernel treats the rows independently, so
  a stack of n rows gives bit for bit what n one-row calls give.  Gates
  and bases may be given per row, as positions in ``Gate`` and ``BASES``;
  measurements take one uniform draw per row, so the caller orders its
  draws, and return one outcome each, a bit or a position in ``BELL_OUTCOMES``.
* ``measure_branches``, ``collapse_branches`` and ``bell_branches`` take
  no draws: they read every outcome of each row, its Born weight and the
  register it leaves; ``measure_qubit``, ``collapse_qubit`` and ``measure_bell``
  are each of them plus a pick by the row's draw.  The session engine reads
  its few distinct registers so, once each, and picks a branch per triplet or group.

Invariant: ``make_state`` is the only place that validates a register
and normalises amplitudes.  Every kernel takes normalised rows and
returns them, built directly with read-only amplitudes and no further
checks.  Gates are unitary, so only the measurements renormalise, all
through one projection that divides every branch by the square root of
its probability; a branch of zero probability is left all zeros, never
divided.
"""

from __future__ import annotations

import functools
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
        return _BELL_MATRIX[BELL_OUTCOMES.index(self)]


BELL_OUTCOMES: tuple[BellOutcome, ...] = tuple(BellOutcome)
BASES: tuple[MeasurementBasis, ...] = tuple(MeasurementBasis)

# Rows follow BELL_OUTCOMES order; columns are |00>, |01>, |10>, |11>.
_BELL_MATRIX = _frozen(
    [
        [0, _SQRT_HALF, _SQRT_HALF, 0],
        [0, _SQRT_HALF, -_SQRT_HALF, 0],
        [_SQRT_HALF, 0, 0, _SQRT_HALF],
        [_SQRT_HALF, 0, 0, -_SQRT_HALF],
    ]
)
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


def _state(qubits: tuple[QubitId, ...], amps: np.ndarray) -> StateVector:
    """Wrap fresh kernel output: one flat row per register and read-only,
    not re-checked."""
    amps = amps.reshape(amps.shape[0], -1)
    amps.flags.writeable = False
    return StateVector(qubits, amps)


def make_state(qubits: Iterable[QubitId], amplitudes: Sequence[complex]) -> StateVector:
    """Build a normalized one-row state; rejects duplicate qubit ids,
    length mismatches, zero vectors and vectors whose norm is not finite."""
    qubits = tuple(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubit ids in register")
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.shape[0] != 1 << len(qubits):
        raise ValueError(
            f"amplitude length {amps.shape[0]} does not match {len(qubits)} qubit(s)"
        )
    norm = float(np.linalg.norm(amps))
    if not np.isfinite(norm):
        raise ValueError("state vector has a non-finite norm")
    if norm <= ATOL:
        raise ValueError("state vector has zero norm")
    return _state(qubits, (amps / norm)[None])


def take_rows(state: StateVector, rows, qubits: Sequence[QubitId] | None = None) -> StateVector:
    """The rows (an index array or a slice) of a stack, under new labels
    ``qubits`` for the same layout if given."""
    return _state(state.qubits if qubits is None else tuple(qubits), state.amps[rows])


def _per_row(table: dict, choice) -> np.ndarray:
    """One choice's (d, d) matrix, or a (rows, 1, d, d) stack from per-row positions."""
    if isinstance(choice, Enum):
        return table[choice]
    return np.array(list(table.values()))[choice][:, None]


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


def apply_gate(state: StateVector, gate: Gate | np.ndarray, target: QubitId) -> StateVector:
    """One gate on every row, or one per row as positions in ``Gate``."""
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
    if not functools.reduce(np.logical_or, positive.T).all():  # numpy reduces short rows slowly
        raise ValueError("no branch has positive probability")
    if probs.shape[1] == 2:  # the same rule, closed form: branch 1 on u >= p0 if p1 > 0
        return ((uniforms >= probs[:, 0]) & positive[:, 1]).astype(np.intp)
    hit = uniforms[:, None] < np.cumsum(probs, axis=1)
    last = probs.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    return np.where(hit.any(axis=1), np.argmax(hit, axis=1), last)


def _branches(bras: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project axis -2 of ``psi`` (..., a, d, b) onto the d rows of ``bras``,
    (d, d) or one per row (rows, 1, d, d): every branch, renormalised, and
    its (..., d) Born weights.  A branch of zero weight stays all zeros."""
    branches = bras @ psi
    weights = np.abs(branches)
    weights *= weights
    probs = weights.sum(axis=(-3, -1))
    scale = np.sqrt(probs)[..., None, :, None]
    return np.divide(branches, scale, out=np.zeros_like(branches), where=scale > 0.0), probs


def measure_qubit(
    state: StateVector,
    target: QubitId,
    basis: MeasurementBasis | np.ndarray,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, StateVector]:
    """Projective measurement of every row, in one basis or one per row as
    positions in ``BASES``; the measured qubit leaves the register."""
    probs, left = measure_branches(state, target, basis)
    k = _sample(probs, uniforms)
    return k, take_rows(left, 2 * np.arange(state.rows) + k)


def measure_branches(
    state: StateVector, target: QubitId, basis: MeasurementBasis | np.ndarray
) -> tuple[np.ndarray, StateVector]:
    """Every outcome of a projective measurement of each row, in one basis
    or one per row as positions in ``BASES``: the (rows, 2) Born weights and
    the registers left without the qubit, row 2 * row + outcome; one of
    zero weight stays all zeros."""
    branches, probs = _branches(_per_row(_BASIS_BRAS, basis), _around(state, target))
    left = tuple(q for q in state.qubits if q != target)
    return probs, _state(left, branches.swapaxes(1, 2).reshape(2 * state.rows, -1))


def collapse_qubit(
    state: StateVector,
    target: QubitId,
    basis: MeasurementBasis | np.ndarray,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, StateVector]:
    """Measure-and-resend: the qubit stays, reset to the sampled eigenstate."""
    probs, post = collapse_branches(state, target)
    position = BASES.index(basis) if isinstance(basis, MeasurementBasis) else basis
    picked = np.arange(state.rows) * len(BASES) + position
    k = _sample(probs.reshape(-1, 2)[picked], uniforms)
    return k, take_rows(post, 2 * picked + k)


def collapse_branches(state: StateVector, target: QubitId) -> tuple[np.ndarray, StateVector]:
    """Measure-and-resend on ``target``, every outcome in each basis: the
    (rows, len(BASES), 2) Born weights and the registers left, row (row *
    len(BASES) + basis) * 2 + outcome; one of zero weight stays all zeros."""
    every = np.arange(len(BASES))
    kept, probs = _branches(_per_row(_BASIS_BRAS, every), _around(state, target)[:, None])
    # (rows, basis, outcome, 2**j, qubit, rest): the outcome's eigenvector on the qubit axis
    eigenvectors = _per_row(_BASIS_VECTORS, every)[:, 0, :, None, :, None]
    post = eigenvectors * kept.swapaxes(2, 3)[..., None, :]
    return probs, _state(state.qubits, post.reshape(-1, state.amps.shape[1]))


def measure_bell(
    state: StateVector,
    pair: tuple[QubitId, QubitId],
    uniforms: np.ndarray,
) -> tuple[np.ndarray, StateVector]:
    """Bell measurement of every row on the ordered pair, each outcome a
    position in ``BELL_OUTCOMES``; both qubits leave the register."""
    probs, left = bell_branches(state, pair)
    k = _sample(probs, uniforms)
    return k, take_rows(left, len(BELL_OUTCOMES) * np.arange(state.rows) + k)


def bell_branches(
    state: StateVector, pair: tuple[QubitId, QubitId]
) -> tuple[np.ndarray, StateVector]:
    """Every outcome of a Bell measurement of each row on the ordered pair:
    the (rows, 4) Born weights, in ``BELL_OUTCOMES`` order, and the registers
    left without the pair, row 4 * row + outcome; one of zero weight stays all zeros."""
    if pair[0] == pair[1]:
        raise ValueError("bell pair must be two distinct qubits")
    i, j = map(state.index_of, pair)
    rest = [m for m in range(state.num_qubits) if m != i and m != j]
    psi = state.amps.reshape([state.rows] + [2] * state.num_qubits)
    psi = psi.transpose([0, i + 1, j + 1, *(m + 1 for m in rest)])
    branches, probs = _branches(_BELL_BRAS, psi.reshape(state.rows, 1, 4, -1))
    return probs, _state(tuple(state.qubits[m] for m in rest), branches.reshape(4 * state.rows, -1))
