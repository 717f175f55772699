"""The S4 and S5 read-out one row per triplet.

``Session._measure_photons`` reads each distinct register, and each
distinct branch its outcomes leave, once; the tests compare it against
this route, which takes every triplet's register out of the prepared
stack and has each party measure it in turn with ``measure_qubit``.
"""

import numpy as np

from csdcsim.protocol import Session
from csdcsim.states import QubitId, StateVector, measure_qubit, take_rows


def reference_readout(
    session: Session, rows: np.ndarray, measuring, bases: np.ndarray, draws: dict
) -> tuple[dict[str, np.ndarray], StateVector]:
    """Each party's outcomes and the stack left, one row per row of ``rows``;
    the arguments are those of ``Session._measure_photons``."""
    state = take_rows(session._prepared, session._index[rows])
    outcomes = {}
    for party, role in measuring:
        outcomes[party], state = measure_qubit(state, QubitId(1, role), bases, draws[party])
    return outcomes, state
