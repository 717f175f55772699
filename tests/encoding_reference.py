"""The encoding round worked out without ``bases.encoding_joint``.

``csdcsim.bases.encoding_joint`` gives the exact joint of one group, and
the decode table, ``decode_oracle`` and ``eve_group_information`` are all
read from it.  The tests compare it against three routes that share none
of its code but the Bell read-out ``bell_pair_amplitudes``:

- ``pair_decode_table``: the receiver's table enumerated over the
  (|00> +- |11>)/sqrt(2) pairs the controllers leave, one per parity;
- ``ghz_triplet_information``: the probe's information from three-qubit
  GHZ triplets with a sign per parity;
- ``folded_joint``: every branch of every controller pattern at any party
  count, each controller read in the diagonal basis, summed by parity.
"""

import itertools

import numpy as np

from csdcsim.bases import EncodingOp, bell_pair_amplitudes
from csdcsim.states import BellOutcome

_SQRT_HALF = 1.0 / np.sqrt(2.0)
# rows project onto |+> and |->
_DIAGONAL_BRAS = np.array([[1.0, 1.0], [1.0, -1.0]]) * _SQRT_HALF


def _ghz_vector(parties):
    psi = np.zeros((2,) * parties)
    psi.flat[[0, -1]] = _SQRT_HALF
    return psi


def _apply_single(psi, axis, matrix):
    return np.moveaxis(np.tensordot(matrix, psi, axes=(1, axis)), 0, axis)


def pair_decode_table():
    """The decode table's dense (p1, p2, sender, receiver) operation
    positions, from a pair per parity; a ValueError unless every key names
    exactly one operation."""
    # (|00> +- |11>)/sqrt(2) by parity; symmetric, so each reads as
    # (travel, home) too, and a gate on axis 0 acts on the travel photon
    pairs = [BellOutcome.PHI_PLUS.vector.reshape(2, 2), BellOutcome.PHI_MINUS.vector.reshape(2, 2)]
    marks = np.zeros((2, 2, 4, 4, 4), bool)  # (p1, p2, op, sender, receiver)
    for p1, p2, k in np.ndindex(2, 2, 4):
        encoded = tuple(EncodingOp)[k].gate.matrix @ pairs[p1]
        marks[p1, p2, k] = np.abs(bell_pair_amplitudes(encoded, pairs[p2])) ** 2 > 1e-6
    if not (marks.sum(axis=2) == 1).all():
        raise ValueError("the pairs do not name one operation per key")
    return marks.argmax(axis=2)


def ghz_triplet_information():
    """The probe's mutual information (bits per group) with the operation,
    one value per controller-parity pair, (p1, p2) in row-major order."""
    values = []
    for p1, p2 in np.ndindex(2, 2):
        triplet1, triplet2 = _ghz_vector(3), _ghz_vector(3)
        triplet1[1, 1, 1] *= (-1) ** p1
        triplet2[1, 1, 1] *= (-1) ** p2
        # joint[op, s, e]: P(operation, travel-pair outcome s, ancilla-pair
        # outcome e), summed over the receiver's home-pair outcome
        joint = np.zeros((4, 4, 4))
        for k, op in enumerate(EncodingOp):
            encoded = _apply_single(triplet1, 1, op.gate.matrix)
            # read out in the pairs (h1, h2), (t1, t2) and (e1, e2)
            probs = np.abs(bell_pair_amplitudes(encoded, triplet2)) ** 2
            joint[k] = 0.25 * np.where(probs > 1e-15, probs, 0.0).sum(axis=0)
        seen = joint > 0.0
        independent = np.broadcast_to(0.25 * joint.sum(axis=0), joint.shape)[seen]
        values.append(float(np.sum(joint[seen] * np.log2(joint[seen] / independent))))
    return values


def _patterns(branches, parties):
    """(weight, parity, ket) for every branch and every controller pattern:
    the controllers (axes 2 .. parties - 1) read in the diagonal basis, the
    ket over (home, travel[, ancilla]) left by that pattern."""
    out = []
    for weight, psi in branches:
        for pattern in itertools.product((0, 1), repeat=parties - 2):
            ket = psi
            for bit in pattern:  # each read-out removes the first controller axis
                ket = np.tensordot(_DIAGONAL_BRAS[bit], ket, axes=(0, 2))
            out.append((weight, sum(pattern) % 2, ket))
    return out


def folded_joint(branches, parties):
    """P(op, p1, p2, receiver, sender[, ancilla]) of one group whose
    triplets are ``branches`` of a ``parties``-party GHZ state, with the
    op drawn uniformly and applied to the first travel photon."""
    patterns = _patterns(branches, parties)
    ndim = patterns[0][2].ndim
    joint = np.zeros((4, 2, 2) + (4,) * ndim)
    for (w1, p1, first), (w2, p2, second) in itertools.product(patterns, repeat=2):
        for k, op in enumerate(EncodingOp):
            encoded = _apply_single(first, 1, op.gate.matrix)
            joint[k, p1, p2] += 0.25 * w1 * w2 * np.abs(bell_pair_amplitudes(encoded, second)) ** 2
    return joint
