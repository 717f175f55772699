"""The read-outs one row per triplet or per group.

``Session._measure_photons`` (S4, S5) and the encoding round (S7, S9)
read each distinct register, and each distinct branch their outcomes
leave, once; the tests compare them against these routes.  S4 and S5 take
every triplet's register out of the prepared stack and have each party
measure it in turn with ``measure_qubit``; S7 joins each group's two
registers, applies its operation and Bell-measures it with ``measure_bell``,
and S9 Bell-measures each group's pairs so, one group at a time.
"""

import numpy as np

from csdcsim.bases import EncodingOp
from csdcsim.protocol import Session
from csdcsim.states import (
    QubitId,
    StateVector,
    apply_gate,
    measure_bell,
    measure_qubit,
    take_rows,
    tensor,
)
from csdcsim.transcript import EVE


def reference_readout(
    session: Session, trials: np.ndarray, triplets: np.ndarray, measuring, bases, draws: dict
) -> tuple[dict[str, np.ndarray], StateVector]:
    """Each party's (trials, n) outcomes and the stack left, one row per
    triplet of ``triplets``; the arguments are those of ``Session._measure_photons``."""
    state = take_rows(session._prepared, session._index[trials[:, None], triplets - 1].ravel())
    bases = np.broadcast_to(bases, triplets.shape).ravel()
    outcomes = {}
    for party, role in measuring:
        bits, state = measure_qubit(state, QubitId(1, role), bases, draws[party].ravel())
        outcomes[party] = bits.reshape(triplets.shape)
    return outcomes, state


def _stacked(rows: list[StateVector]) -> StateVector:
    return StateVector(rows[0].qubits, np.concatenate([row.amps for row in rows]))


def reference_encoding(
    encoding: StateVector, ops: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, StateVector]:
    """S7 one group at a time: the sender's Bell outcomes and the (home 1[,
    probe 1], home 2[, probe 2]) left, one per group; ``encoding`` holds each
    encoding triplet's register, in order, and ``ops`` each group's operation."""
    roles = [q.role for q in encoding.qubits]
    travel_pair = (QubitId(1, "t"), QubitId(2, "t"))
    outcomes, left = [], []
    for group, op in enumerate(ops):
        first = take_rows(encoding, [2 * group])
        second = take_rows(encoding, [2 * group + 1], [QubitId(2, role) for role in roles])
        first = apply_gate(first, list(EncodingOp)[op].gate, travel_pair[0])
        (outcome,), rest = measure_bell(
            tensor(first, second), travel_pair, uniforms[group : group + 1]
        )
        outcomes.append(outcome)
        left.append(rest)
    return np.array(outcomes), _stacked(left)


def reference_decode(pairs: StateVector, draws: dict) -> dict[str, np.ndarray]:
    """S9 one group at a time: each party's Bell outcomes on its pairs, the
    receiver's home pair, then EVE's ancilla pair if ``draws`` has hers;
    ``pairs`` holds each group's registers after S7, in order."""
    outcomes = {party: [] for party in draws}
    for group in range(pairs.rows):
        state = take_rows(pairs, [group])
        for party, uniforms in draws.items():
            role = "e" if party == EVE else "h"
            pair = (QubitId(1, role), QubitId(2, role))
            (outcome,), state = measure_bell(state, pair, uniforms[group : group + 1])
            outcomes[party].append(outcome)
    return {party: np.array(column, np.intp) for party, column in outcomes.items()}
