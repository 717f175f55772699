"""The Bell-product read-out through the state kernels the sessions run on.

``csdcsim.bases`` reads Bell amplitudes on plain arrays; the tests compare
it, and the decode table built from it, against this independent route.
"""

import functools
import itertools

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
