"""Bell and GHZ basis algebra.

Holds the canonical orthonormal bases, the two-bit encoding map, the
entanglement-swapping re-expansion check, the exact joint of one encoding
round (``encoding_joint``) and the decode table read off its honest case.
All run on plain arrays, read out in Bell pairs by ``bell_pair_amplitudes``,
not on the state kernels the sessions run on, so a kernel fault cannot
write itself into the table the sessions decode with; the tests
cross-check both against the kernels.

The eight-element GHZ basis used everywhere is the orthonormal set

    1,2: (|000> +- |111>)/sqrt(2)      5,6: (|010> +- |101>)/sqrt(2)
    3,4: (|100> +- |011>)/sqrt(2)      7,8: (|110> +- |001>)/sqrt(2)

ordered (home, travel, control).  The tabulated diagonal-basis
expansions this module verifies against were stated for a slightly
different set: the forms for indices 3 and 4 describe
(|100> +- |001>)/sqrt(2), which is not orthogonal to elements 7 and 8.
Each check returns its residual, and holds when that is below ATOL:
``verify_ghz_expansion``'s is below it for the expansions that agree
with the canonical basis (1, 2, 5, 6, 7, 8) and 1/sqrt(2) for 3 and 4.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import states
from .states import (
    ATOL,
    BELL_OUTCOMES,
    BellOutcome,
    Gate,
    MeasurementBasis,
    QubitId,
    StateVector,
    _SQRT_HALF,
    make_state,
)

GHZ_INDICES = tuple(range(1, 9))


class EncodingOp(Enum):
    """The four local unitaries carrying two message bits each.

    Acting on the travel photon of a (|00>+|11>)/sqrt(2) pair:
    U1 leaves it, U2 flips to psi+, U3 flips to psi- and U4 phases
    to phi- (all up to a global phase).  An operation's position in
    ``tuple(EncodingOp)``, as the session engine carries it, is ``int(bits, 2)``.
    """

    U1 = ("00", Gate.IDENTITY)
    U2 = ("01", Gate.PAULI_X)
    U3 = ("10", Gate.MINUS_I_PAULI_Y)
    U4 = ("11", Gate.PAULI_Z)

    @property
    def bits(self) -> str:
        return self.value[0]

    @property
    def gate(self) -> Gate:
        return self.value[1]


def bell_state_vector(outcome: BellOutcome, pair: tuple[QubitId, QubitId]) -> StateVector:
    """The Bell state on the ordered pair (first qubit is the index MSB)."""
    return make_state(pair, outcome.vector)


# A Bell outcome's bra over its ordered pair's two bits, by position in BELL_OUTCOMES.
_BELL_BRAS = states._BELL_BRAS.reshape(4, 2, 2)


def bell_pair_amplitudes(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Amplitudes of ``first`` x ``second``, two k-qubit kets as (2,)*k
    arrays, in the Bell basis of the k pairs (qubit i of first, qubit i of
    second): one axis per pair, indexed by position in BELL_OUTCOMES."""
    k = first.ndim
    a, b, out = range(k), range(k, 2 * k), range(2 * k, 3 * k)
    bras = (arg for i in range(k) for arg in (_BELL_BRAS, [out[i], a[i], b[i]]))
    return np.einsum(first, [*a], second, [*b], *bras, [*out])


# The exact encoding round, on plain arrays: a triplet is a (2,) * n tensor
# over (home, travel, control..., ancilla?), one axis per qubit.
_H = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]])


def _ghz_vector(parties: int) -> np.ndarray:
    psi = np.zeros((2,) * parties)
    psi.flat[[0, -1]] = _SQRT_HALF
    return psi


def _apply_single(psi: np.ndarray, axis: int, matrix: np.ndarray) -> np.ndarray:
    return np.moveaxis(np.tensordot(matrix, psi, axes=(1, axis)), 0, axis)


def encoding_joint(branches: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """P(op, p1, p2, receiver, sender[, ancilla]) of one group, op uniform:
    each triplet is one of ``branches``, the ``(weight, psi)`` branches of a
    tapped three-party GHZ state, psi unnormalised.  After the diagonal
    read-out of the control, whose outcome is the parity, (home, travel[,
    ancilla]) depends only on the parity, so one controller stands for any
    number.  The op acts on the first travel photon before the Bell read-out."""
    # each branch's (home, travel[, ancilla]) ket by parity
    kets = [(weight, np.moveaxis(_apply_single(psi, 2, _H), 2, 0)) for weight, psi in branches]
    probs = [
        w1 * w2 / 4 * np.abs(bell_pair_amplitudes(_apply_single(a, 1, op.gate.matrix), b)) ** 2
        for w1, first in kets for w2, second in kets
        for op in EncodingOp for a in first for b in second
    ]
    return np.reshape(probs, (-1, 4, 2, 2, *probs[0].shape)).sum(axis=0)


_GHZ_KETS = {
    1: ("000", "111", 1.0),
    2: ("000", "111", -1.0),
    3: ("100", "011", 1.0),
    4: ("100", "011", -1.0),
    5: ("010", "101", 1.0),
    6: ("010", "101", -1.0),
    7: ("110", "001", 1.0),
    8: ("110", "001", -1.0),
}


def _ghz_amps(index: int) -> np.ndarray:
    if index not in _GHZ_KETS:
        raise ValueError(f"GHZ index must be 1..8, got {index}")
    first, second, sign = _GHZ_KETS[index]
    amps = np.zeros(8)
    amps[int(first, 2)] = _SQRT_HALF
    amps[int(second, 2)] = sign * _SQRT_HALF
    return amps


def ghz_state_vector(index: int, triple: tuple[QubitId, QubitId, QubitId]) -> StateVector:
    """Canonical GHZ basis element on the ordered (home, travel, control) triple."""
    return make_state(triple, _ghz_amps(index))


# Tabulated diagonal-basis expansions, one per GHZ index.  Terms are
# (home sign bit, travel sign bit, control sign bit, coefficient) with
# bit 0 meaning |+> and bit 1 meaning |->; each carries weight 1/2.
_DIAGONAL_EXPANSION_TERMS: dict[int, tuple[tuple[int, int, int, float], ...]] = {
    1: ((0, 0, 0, 1.0), (0, 1, 1, 1.0), (1, 0, 1, 1.0), (1, 1, 0, 1.0)),
    2: ((0, 1, 0, 1.0), (0, 0, 1, 1.0), (1, 0, 0, 1.0), (1, 1, 1, 1.0)),
    3: ((0, 0, 0, 1.0), (0, 1, 0, 1.0), (1, 0, 1, -1.0), (1, 1, 1, -1.0)),
    4: ((0, 0, 1, 1.0), (0, 1, 1, 1.0), (1, 0, 0, -1.0), (1, 1, 0, -1.0)),
    5: ((0, 0, 0, 1.0), (0, 1, 1, -1.0), (1, 0, 1, 1.0), (1, 1, 0, -1.0)),
    6: ((0, 0, 1, 1.0), (0, 1, 0, -1.0), (1, 0, 0, 1.0), (1, 1, 1, -1.0)),
    7: ((0, 0, 0, 1.0), (0, 1, 1, -1.0), (1, 1, 0, 1.0), (1, 0, 1, -1.0)),
    8: ((0, 0, 1, 1.0), (0, 1, 0, -1.0), (1, 1, 1, 1.0), (1, 0, 0, -1.0)),
}


def verify_ghz_expansion(index: int) -> float:
    """The max deviation of the tabulated expansion, as written, from the
    canonical basis element; it holds when below ATOL."""
    canonical = _ghz_amps(index)
    diag = MeasurementBasis.DIAGONAL.vectors
    tabulated = sum(
        0.5 * coeff * np.kron(np.kron(diag[h], diag[t]), diag[c])
        for h, t, c, coeff in _DIAGONAL_EXPANSION_TERMS[index]
    )
    return float(np.max(np.abs(canonical - tabulated)))


def ghz_orthonormality_residual() -> float:
    """Max deviation of the GHZ Gram matrix from the identity."""
    vectors = np.array([_ghz_amps(i) for i in GHZ_INDICES])
    gram = vectors @ vectors.T
    return float(np.max(np.abs(gram - np.eye(len(GHZ_INDICES)))))


# Expected re-expansion of PSI_PLUS x (right) over the crossed pairs
# (1,3) and (2,4): exactly four cells, each +-1/2.
_PSI_PLUS_REFERENCE_PATTERNS: dict[
    BellOutcome, dict[tuple[BellOutcome, BellOutcome], float]
] = {
    BellOutcome.PSI_PLUS: {
        (BellOutcome.PSI_PLUS, BellOutcome.PSI_PLUS): 0.5,
        (BellOutcome.PSI_MINUS, BellOutcome.PSI_MINUS): -0.5,
        (BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS): 0.5,
        (BellOutcome.PHI_MINUS, BellOutcome.PHI_MINUS): -0.5,
    },
    BellOutcome.PSI_MINUS: {
        (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS): 0.5,
        (BellOutcome.PSI_MINUS, BellOutcome.PSI_PLUS): -0.5,
        (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS): -0.5,
        (BellOutcome.PHI_MINUS, BellOutcome.PHI_PLUS): 0.5,
    },
    BellOutcome.PHI_PLUS: {
        (BellOutcome.PSI_PLUS, BellOutcome.PHI_PLUS): 0.5,
        (BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS): -0.5,
        (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS): 0.5,
        (BellOutcome.PHI_MINUS, BellOutcome.PSI_MINUS): -0.5,
    },
    BellOutcome.PHI_MINUS: {
        (BellOutcome.PSI_PLUS, BellOutcome.PHI_MINUS): 0.5,
        (BellOutcome.PSI_MINUS, BellOutcome.PHI_PLUS): -0.5,
        (BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS): -0.5,
        (BellOutcome.PHI_MINUS, BellOutcome.PSI_PLUS): 0.5,
    },
}


def verify_swap_identity(left: BellOutcome, right: BellOutcome) -> tuple[float, np.ndarray]:
    """Re-expand (left on 1,2) x (right on 3,4) over pairs (1,3) and (2,4).

    Returns the residual and the (4, 4) amplitudes, indexed by position in
    BELL_OUTCOMES.  The residual bounds the distance of Σ|amp|² from 1, of
    each magnitude from 0 or 1/2 and, for a PSI_PLUS left pair, of each
    amplitude from the reference sign table; below ATOL it leaves exactly
    four outcomes at magnitude 1/2 (probability 1/4), so the identity holds.
    """
    amps = bell_pair_amplitudes(left.vector.reshape(2, 2), right.vector.reshape(2, 2))
    magnitudes = np.abs(amps)
    completeness = abs(float(np.sum(magnitudes**2)) - 1.0)
    residual = max(completeness, float(np.max(np.minimum(magnitudes, abs(magnitudes - 0.5)))))
    if left == BellOutcome.PSI_PLUS:
        pattern = _PSI_PLUS_REFERENCE_PATTERNS[right]
        expected = [[pattern.get((a, b), 0.0) for b in BELL_OUTCOMES] for a in BELL_OUTCOMES]
        residual = max(residual, float(np.max(np.abs(amps - expected))))
    return residual, amps


@dataclass(frozen=True, eq=False)
class DecodeTable:
    """The receiver's decode map: the operations' positions in EncodingOp,
    read-only (2, 2, 4, 4), indexed by both controller parities and the
    sender's and receiver's positions in BELL_OUTCOMES."""

    dense: np.ndarray

    def decode(self, p1: int, p2: int, sender: BellOutcome, receiver: BellOutcome) -> str:
        """The two message bits of one group; a KeyError for a parity
        outside {0, 1} or an outcome that is not a BellOutcome."""
        if {p1, p2} - {0, 1} or {type(sender), type(receiver)} != {BellOutcome}:
            raise KeyError((p1, p2, sender, receiver))
        s, r = BELL_OUTCOMES.index(sender), BELL_OUTCOMES.index(receiver)
        return tuple(EncodingOp)[self.dense[int(p1), int(p2), s, r]].bits


def build_decode_table() -> DecodeTable:
    """Invert the honest joint (``encoding_joint``): each (parities, sender,
    receiver) key it reaches must name a single operation, and every key
    must be reached, or the table is unusable."""
    # (p1, p2, op, sender, receiver)
    marks = encoding_joint([(1.0, _ghz_vector(3))]).transpose(1, 2, 0, 4, 3) > 1e-6
    # a key marked again by a later operation collides
    clashes = np.argwhere(np.cumsum(marks, axis=2) > 1).tolist()
    if clashes:
        p1, p2, _, s, r = clashes[0]
        raise ValueError(
            f"decode table collision at parities={p1}{p2} "
            f"sender={BELL_OUTCOMES[s].value} receiver={BELL_OUTCOMES[r].value}"
        )
    marked = marks.any(axis=2)
    if not marked.all():
        raise ValueError(f"decode table incomplete: {np.count_nonzero(marked)} of 64 keys")
    dense = marks.argmax(axis=2)
    dense.flags.writeable = False
    return DecodeTable(dense)


@functools.lru_cache(maxsize=1)
def default_decode_table() -> DecodeTable:
    return build_decode_table()
