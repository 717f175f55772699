"""Bell and GHZ basis algebra.

Holds the canonical orthonormal bases, the two-bit encoding map, the
entanglement-swapping re-expansion check, and the brute-force decode
table that turns announced measurement outcomes back into message bits.
These checks and the table run on plain arrays, read out in Bell pairs
by ``bell_pair_amplitudes``, not on the state kernels the sessions run
on, so a kernel fault cannot write itself into the table the sessions
decode with; the tests cross-check both against the kernels.

The eight-element GHZ basis used everywhere is the orthonormal set

    1,2: (|000> +- |111>)/sqrt(2)      5,6: (|010> +- |101>)/sqrt(2)
    3,4: (|100> +- |011>)/sqrt(2)      7,8: (|110> +- |001>)/sqrt(2)

ordered (home, travel, control).  The tabulated diagonal-basis
expansions this module verifies against were stated for a slightly
different set: the forms for indices 3 and 4 describe
(|100> +- |001>)/sqrt(2), which is not orthogonal to elements 7 and 8.
``verify_ghz_expansion`` reports exactly which expansions agree with
the canonical basis (1, 2, 5, 6, 7, 8) and the residual of the two
that do not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import (
    ATOL,
    BELL_OUTCOMES,
    BellOutcome,
    Gate,
    MeasurementBasis,
    QubitId,
    StateVector,
    make_state,
)

GHZ_INDICES = tuple(range(1, 9))

_SQRT_HALF = 1.0 / np.sqrt(2.0)


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
_BELL_BRAS = np.array([outcome.vector for outcome in BELL_OUTCOMES]).conj().reshape(4, 2, 2)


def bell_pair_amplitudes(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Amplitudes of ``first`` x ``second``, two k-qubit kets as (2,)*k
    arrays, in the Bell basis of the k pairs (qubit i of first, qubit i of
    second): one axis per pair, indexed by position in BELL_OUTCOMES."""
    k = first.ndim
    a, b, out = range(k), range(k, 2 * k), range(2 * k, 3 * k)
    bras = (arg for i in range(k) for arg in (_BELL_BRAS, [out[i], a[i], b[i]]))
    return np.einsum(first, [*a], second, [*b], *bras, [*out])


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


@dataclass(frozen=True)
class ExpansionReport:
    holds: bool
    max_residual: float


def verify_ghz_expansion(index: int) -> ExpansionReport:
    """Compare the tabulated expansion, as written, against the canonical
    basis element."""
    canonical = _ghz_amps(index)
    diag = MeasurementBasis.DIAGONAL.vectors
    tabulated = sum(
        0.5 * coeff * np.kron(np.kron(diag[h], diag[t]), diag[c])
        for h, t, c, coeff in _DIAGONAL_EXPANSION_TERMS[index]
    )
    residual = float(np.max(np.abs(canonical - tabulated)))
    return ExpansionReport(residual < ATOL, residual)


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


@dataclass(frozen=True)
class SwapReport:
    holds: bool
    max_residual: float
    outcome_table: dict[tuple[BellOutcome, BellOutcome], complex]


def verify_swap_identity(left: BellOutcome, right: BellOutcome) -> SwapReport:
    """Re-expand (left on 1,2) x (right on 3,4) over pairs (1,3) and (2,4).

    Checks that exactly four joint outcomes carry amplitude, each of
    magnitude 1/2 (probability 1/4), and that the pattern reproduces
    the reference sign table when the left pair is PSI_PLUS.
    """
    amps = bell_pair_amplitudes(left.vector.reshape(2, 2), right.vector.reshape(2, 2))
    table = {
        (BELL_OUTCOMES[s], BELL_OUTCOMES[r]): complex(amps[s, r]) for s, r in np.ndindex(4, 4)
    }

    completeness = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
    # distance of each magnitude from the nearer of {0, 1/2}
    uniformity = float(np.max(np.minimum(np.abs(amps), np.abs(np.abs(amps) - 0.5))))
    nonzero = int(np.sum(np.abs(amps) > 0.5 - ATOL))
    residual = max(completeness, uniformity)

    if left == BellOutcome.PSI_PLUS:
        expected = _PSI_PLUS_REFERENCE_PATTERNS[right]
        pattern_residual = max(
            abs(table[cell] - expected.get(cell, 0.0)) for cell in table
        )
        residual = max(residual, float(pattern_residual))

    holds = residual < ATOL and nonzero == 4
    return SwapReport(holds, residual, table)


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
    """Enumerate all (parity, parity, op) cases and invert the outcome map.

    For each controller-parity pair the residual group state is a
    product of two (|00> +- |11>)/sqrt(2) pairs.  Applying each
    encoding gate to the first travel photon and re-expanding over the
    (travel, travel) and (home, home) pairs yields exactly four joint
    outcomes per case; every (parities, sender, receiver) combination
    must name a single operation or the table is unusable.
    """
    # (|00> +- |11>)/sqrt(2) by parity; symmetric, so each reads as
    # (travel, home) too, and a gate on axis 0 acts on the travel photon
    pairs = [BellOutcome.PHI_PLUS.vector.reshape(2, 2), BellOutcome.PHI_MINUS.vector.reshape(2, 2)]
    marks = np.zeros((2, 2, 4, 4, 4), bool)  # (p1, p2, op, sender, receiver)
    for p1, p2, k in np.ndindex(2, 2, 4):
        encoded = tuple(EncodingOp)[k].gate.matrix @ pairs[p1]
        marks[p1, p2, k] = np.abs(bell_pair_amplitudes(encoded, pairs[p2])) ** 2 > 1e-6
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
