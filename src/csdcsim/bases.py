"""Bell and GHZ basis algebra.

Holds the canonical orthonormal bases, the two-bit encoding map, the
entanglement-swapping re-expansion check, and the brute-force decode
table that turns announced measurement outcomes back into message bits.

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
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .states import (
    ATOL,
    BELL_OUTCOMES,
    BellOutcome,
    Gate,
    MeasurementBasis,
    QubitId,
    StateVector,
    apply_gate,
    inner_product,
    make_state,
    reorder,
    tensor,
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


def ghz_state_vector(index: int, triple: tuple[QubitId, QubitId, QubitId]) -> StateVector:
    """Canonical GHZ basis element on the ordered (home, travel, control) triple."""
    if index not in _GHZ_KETS:
        raise ValueError(f"GHZ index must be 1..8, got {index}")
    first, second, sign = _GHZ_KETS[index]
    amps = np.zeros(8, dtype=complex)
    amps[int(first, 2)] = _SQRT_HALF
    amps[int(second, 2)] = sign * _SQRT_HALF
    return make_state(triple, amps)


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

def reference_diagonal_expansion(
    index: int, triple: tuple[QubitId, QubitId, QubitId]
) -> StateVector:
    """The tabulated diagonal-basis expansion for the indexed element."""
    if index not in _DIAGONAL_EXPANSION_TERMS:
        raise ValueError(f"GHZ index must be 1..8, got {index}")
    diag = MeasurementBasis.DIAGONAL.vectors
    amps = np.zeros(8, dtype=complex)
    for h, t, c, coeff in _DIAGONAL_EXPANSION_TERMS[index]:
        amps += 0.5 * coeff * np.kron(np.kron(diag[h], diag[t]), diag[c])
    return make_state(triple, amps)


@dataclass(frozen=True)
class ExpansionReport:
    index: int
    holds: bool
    max_residual: float


def verify_ghz_expansion(index: int) -> ExpansionReport:
    """Compare the tabulated expansion against the canonical basis element."""
    triple = (QubitId(0, "h"), QubitId(0, "t"), QubitId(0, "c"))
    canonical = ghz_state_vector(index, triple)
    reference = reference_diagonal_expansion(index, triple)
    residual = float(np.max(np.abs(canonical.amps - reference.amps)))
    return ExpansionReport(index, residual < ATOL, residual)


def ghz_orthonormality_residual() -> float:
    """Max deviation of the GHZ Gram matrix from the identity."""
    triple = (QubitId(0, "h"), QubitId(0, "t"), QubitId(0, "c"))
    vectors = np.concatenate([ghz_state_vector(i, triple).amps for i in GHZ_INDICES])
    gram = vectors.conj() @ vectors.T
    return float(np.max(np.abs(gram - np.eye(len(GHZ_INDICES)))))


def bell_product_amplitudes(
    state: StateVector, *pairs: tuple[QubitId, QubitId]
) -> dict[tuple[BellOutcome, ...], complex]:
    """Amplitudes of a state in the Bell product basis of the given pairs,
    which must cover its qubits; keyed by one outcome per pair."""
    table: dict[tuple[BellOutcome, ...], complex] = {}
    for outcomes in itertools.product(BELL_OUTCOMES, repeat=len(pairs)):
        basis = functools.reduce(tensor, map(bell_state_vector, outcomes, pairs))
        table[outcomes] = inner_product(reorder(basis, state.qubits), state)
    return table


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
    left: BellOutcome
    right: BellOutcome
    holds: bool
    max_residual: float
    outcome_table: dict[tuple[BellOutcome, BellOutcome], complex]


def verify_swap_identity(left: BellOutcome, right: BellOutcome) -> SwapReport:
    """Re-expand (left on 1,2) x (right on 3,4) over pairs (1,3) and (2,4).

    Checks that exactly four joint outcomes carry amplitude, each of
    magnitude 1/2 (probability 1/4), and that the pattern reproduces
    the reference sign table when the left pair is PSI_PLUS.
    """
    q1, q2, q3, q4 = (QubitId(i, "q") for i in (1, 2, 3, 4))
    state = tensor(bell_state_vector(left, (q1, q2)), bell_state_vector(right, (q3, q4)))
    table = bell_product_amplitudes(state, (q1, q3), (q2, q4))

    amps = np.array([table[cell] for cell in table])
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
    return SwapReport(left, right, holds, residual, table)


class DecodeKey(NamedTuple):
    """Everything the receiver knows when reading out one group."""

    controller_parity_1: int
    controller_parity_2: int
    sender_bell: BellOutcome
    receiver_bell: BellOutcome


@dataclass(frozen=True)
class DecodeTable:
    entries: dict[DecodeKey, EncodingOp]

    def decode(self, key: DecodeKey) -> str:
        return self.entries[key].bits

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """The operations' positions, (2, 2, 4, 4), indexed by both parities
        and the sender's and receiver's positions in BELL_OUTCOMES."""
        dense = np.zeros((2, 2, 4, 4), np.intp)
        for (p1, p2, s, r), op in self.entries.items():
            dense[p1, p2, BELL_OUTCOMES.index(s), BELL_OUTCOMES.index(r)] = int(op.bits, 2)
        dense.flags.writeable = False
        return dense


def build_decode_table() -> DecodeTable:
    """Enumerate all (parity, parity, op) cases and invert the outcome map.

    For each controller-parity pair the residual group state is a
    product of two (|00> +- |11>)/sqrt(2) pairs.  Applying each
    encoding gate to the first travel photon and re-expanding over the
    (travel, travel) and (home, home) pairs yields exactly four joint
    outcomes per case; every (parities, sender, receiver) combination
    must name a single operation or the table is unusable.
    """
    h1, t1 = QubitId(1, "h"), QubitId(1, "t")
    h2, t2 = QubitId(2, "h"), QubitId(2, "t")
    entries: dict[DecodeKey, EncodingOp] = {}
    for p1 in (0, 1):
        for p2 in (0, 1):
            pair1 = bell_state_vector(
                BellOutcome.PHI_PLUS if p1 == 0 else BellOutcome.PHI_MINUS, (h1, t1)
            )
            pair2 = bell_state_vector(
                BellOutcome.PHI_PLUS if p2 == 0 else BellOutcome.PHI_MINUS, (h2, t2)
            )
            base = tensor(pair1, pair2)
            for op in EncodingOp:
                encoded = apply_gate(base, op.gate, t1)
                amps = bell_product_amplitudes(encoded, (t1, t2), (h1, h2))
                for (sender, receiver), amp in amps.items():
                    if abs(amp) ** 2 <= 1e-6:
                        continue
                    key = DecodeKey(p1, p2, sender, receiver)
                    if key in entries:
                        raise ValueError(f"decode table collision at {key}")
                    entries[key] = op
    if len(entries) != 64:
        raise ValueError(f"decode table incomplete: {len(entries)} of 64 keys")
    return DecodeTable(entries)


@functools.lru_cache(maxsize=1)
def default_decode_table() -> DecodeTable:
    return build_decode_table()
