"""The Bell-product read-out through the state kernels the sessions run on,
and Born sampling's general rule.

``csdcsim.bases`` reads Bell amplitudes on plain arrays; the tests compare
it, and the decode table built from it, against this independent route.
``states._sample`` picks a two-outcome row in closed form; the tests
compare it against the general rule below.
"""

import functools
import itertools

import numpy as np

from csdcsim.bases import bell_state_vector
from csdcsim.states import (
    BELL_OUTCOMES,
    BellOutcome,
    QubitId,
    StateVector,
    inner_product,
    reorder,
    tensor,
)


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


def amplitude(state: StateVector, bits: str) -> complex:
    """Amplitude of the basis string (qubit 0 leftmost) in a one-row stack."""
    assert state.rows == 1 and len(bits) == state.num_qubits and not set(bits) - {"0", "1"}
    return complex(state.amps[0, int(bits, 2) if bits else 0])


def general_sample(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Born sampling for any outcome count: per row of ``probs``, the first
    branch whose running total exceeds the row's draw, else the last
    positive branch; a ValueError if a row has none."""
    positive = probs > 0.0
    if not positive.any(axis=1).all():
        raise ValueError("no branch has positive probability")
    hit = uniforms[:, None] < np.cumsum(probs, axis=1)
    last = probs.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    return np.where(hit.any(axis=1), np.argmax(hit, axis=1), last)
