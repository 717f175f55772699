"""Eavesdropping models for the travel-photon channel.

Two independent routes to the detection probability are kept on
purpose: ``detection_oracle`` enumerates every branch of the attacked
checking round exactly, while ``estimate_detection`` runs full Monte
Carlo sessions.  Tests require the two to agree.  Both exact analyses,
``detection_oracle`` and ``eve_group_information``, run on plain arrays,
independent of ``StateVector`` and the kernels the sessions run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bases import EncodingOp, bell_pair_amplitudes
from .states import (
    BASES,
    MeasurementBasis,
    QubitId,
    StateVector,
    _sample,
    apply_cnot,
    collapse_branches,
    make_state,
    tensor,
)
from .protocol import MAX_PARTIES, MAX_TRIALS, SESSION_ROWS, ProtocolConfig, Session, untapped
from .streams import Streams, seed_state

_SQRT_HALF = 1.0 / np.sqrt(2.0)


class BasisStrategy(Enum):
    """How an intercepting eavesdropper picks her measurement basis."""

    RANDOM = "random"  # fresh uniform choice of Z or X per photon
    ALWAYS_Z = "z"
    ALWAYS_X = "x"


@dataclass(frozen=True)
class NoAttack:
    """Identity tap: the channel is untouched."""

    def tap(self, qubit: QubitId, register: StateVector, streams: Streams, rows, count: int):
        return untapped(qubit, register, streams, rows, count)


@dataclass(frozen=True)
class InterceptResend:
    """Measure each travel photon in flight and forward the eigenstate."""

    strategy: BasisStrategy = BasisStrategy.RANDOM

    def tap(self, qubit: QubitId, register: StateVector, streams: Streams, rows, count: int):
        if self.strategy is BasisStrategy.RANDOM:
            bases, uniforms = (drawn.ravel() for drawn in streams.random_bases(count, rows))
        else:
            z = self.strategy is BasisStrategy.ALWAYS_Z
            basis = MeasurementBasis.COMPUTATIONAL if z else MeasurementBasis.DIAGONAL
            uniforms = streams.random(count, rows).ravel()
            bases = np.full(len(uniforms), BASES.index(basis))
        probs, collapsed = collapse_branches(register, qubit)
        outcomes = _sample(probs[0, bases], uniforms)
        return collapsed, 2 * bases + outcomes, np.stack([bases, outcomes])


@dataclass(frozen=True)
class EntangleMeasure:
    """Couple an ancilla to each travel photon with a controlled-NOT.

    The ancilla is read out only after the relevant announcements: in
    the announced basis for checked triplets, and as a Bell measurement
    on ancilla pairs for encoding groups.
    """

    def tap(self, qubit: QubitId, register: StateVector, streams: Streams, rows, count: int):
        ancilla = QubitId(qubit.triplet, "e")
        probed = tensor(register, make_state((ancilla,), [1.0, 0.0]))
        probed = apply_cnot(probed, qubit, ancilla)
        return untapped(qubit, probed, streams, rows, count)


# Every model's tap(qubit, register, streams, rows, count) takes the
# prepared register, whose travel photon is ``qubit``, and draws for the
# ``count`` triplets of each trial on EVE's stream ``rows`` of the
# session's ``Streams``, all in one call.  A tap acts on travel photons
# alone, so it returns the few registers every triplet holds one of, each
# once; the position among them of each triplet's, trial by trial; and the
# bases (positions in BASES) and outcomes of the photons it measured, a
# (2, photons) array that only the session's transcript names.
AttackModel = NoAttack | InterceptResend | EntangleMeasure


def attack_cell_label(attack: AttackModel | None) -> str:
    """Stable row label for sweep output."""
    if attack is None or isinstance(attack, NoAttack):
        return "none"
    if isinstance(attack, InterceptResend):
        return f"intercept-resend:{attack.strategy.value}"
    return "entangle-measure"


# --- exact detection analysis -------------------------------------------
# Plain-array enumeration, deliberately independent of the StateVector
# machinery the sessions run on.  Qubit order inside a triplet vector is
# (home, travel, control..., ancilla?), travel at axis 1.

_H = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]])


def _ghz_vector(parties: int) -> np.ndarray:
    vec = np.zeros(1 << parties)
    vec[0] = vec[-1] = _SQRT_HALF
    return vec


def _apply_single(vec: np.ndarray, total: int, axis: int, matrix: np.ndarray) -> np.ndarray:
    psi = np.moveaxis(vec.reshape([2] * total), axis, 0)
    psi = np.tensordot(matrix, psi, axes=([1], [0]))
    return np.moveaxis(psi, 0, axis).reshape(-1)


def _cnot_vector(vec: np.ndarray, total: int, control: int, target: int) -> np.ndarray:
    psi = np.moveaxis(vec.reshape([2] * total), (control, target), (0, 1)).copy()
    flipped = psi[1, [1, 0]]
    psi[1] = flipped
    return np.moveaxis(psi, (0, 1), (control, target)).reshape(-1)


def _violation_probability(vec: np.ndarray, parties: int, total: int, diagonal: bool) -> float:
    """Probability the coincidence rule fails when all parties measure.

    Extra (non-party) qubits such as a probe ancilla are marginalized.
    """
    work = vec
    if diagonal:
        for axis in range(parties):
            work = _apply_single(work, total, axis, _H)
    probs = np.abs(work.reshape(1 << parties, -1)) ** 2
    per_outcome = probs.sum(axis=1)
    violating = 0.0
    for bits in range(1 << parties):
        if diagonal:
            fails = bin(bits).count("1") % 2 == 1
        else:
            fails = bits not in (0, (1 << parties) - 1)
        if fails:
            violating += float(per_outcome[bits])
    return violating


# The bases each intercepting strategy measures in, each chosen equally
# often; a basis is given by its eigenvectors as rows (Z: eye, X: _H).
_INTERCEPT_BASES = {
    BasisStrategy.RANDOM: (np.eye(2), _H),
    BasisStrategy.ALWAYS_Z: (np.eye(2),),
    BasisStrategy.ALWAYS_X: (_H,),
}


def detection_oracle(attack: AttackModel | None, parties: int = 3) -> float:
    """Exact per-checked-triplet violation probability for an attack.

    Enumerates the eavesdropper's basis choice and outcome, then the
    uniformly chosen checking basis, then every party-outcome branch.
    """
    if not (3 <= parties <= MAX_PARTIES):
        raise ValueError(f"the protocol needs 3 to {MAX_PARTIES} parties, got {parties}")
    if attack is None or isinstance(attack, NoAttack):
        return 0.0

    ghz = _ghz_vector(parties)
    branches: list[tuple[float, np.ndarray, int]] = []  # weight, vector, total qubits
    if isinstance(attack, InterceptResend):
        chosen = _INTERCEPT_BASES[attack.strategy]
        for eigvecs in chosen:
            for eigvec in eigvecs:
                # project the travel qubit onto the eigenvector, keeping it
                post = _apply_single(ghz, parties, 1, np.outer(eigvec, eigvec.conj()))
                prob = float(np.sum(np.abs(post) ** 2))
                if prob > 0.0:
                    branches.append((prob / len(chosen), post / math.sqrt(prob), parties))
    elif isinstance(attack, EntangleMeasure):
        probed = np.kron(ghz, np.array([1.0, 0.0]))
        probed = _cnot_vector(probed, parties + 1, 1, parties)
        branches.append((1.0, probed, parties + 1))
    else:
        raise ValueError(f"unknown attack model {attack!r}")

    total_violation = 0.0
    for weight, vec, total in branches:
        for diagonal in (False, True):
            total_violation += (
                weight * 0.5 * _violation_probability(vec, parties, total, diagonal)
            )
    return total_violation


def abort_probability(attack: AttackModel | None, checked_triplets: int, parties: int = 3) -> float:
    """Chance that at least one of k independent checked triplets trips."""
    p = detection_oracle(attack, parties)
    return 1.0 - (1.0 - p) ** checked_triplets


# --- Monte Carlo estimate over full sessions ------------------------------


@dataclass(frozen=True)
class DetectionStats:
    attack: str
    trials: int
    checked_triplets: int
    violations: int
    detection_rate: float
    aborts: int
    abort_rate: float
    decoded_bits_total: int
    decoded_bits_correct: int

    @property
    def decode_accuracy(self) -> float:
        if self.decoded_bits_total == 0:
            return float("nan")
        return self.decoded_bits_correct / self.decoded_bits_total


def _trial_entropy(seed: int, trials: np.ndarray, *tail: int) -> np.ndarray:
    """The words of ``SeedSequence((seed, trial, *tail))`` for each of ``trials``:
    the seed's one word (below 2**32) or two, the trial, the tail, then zeros."""
    words = ([seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]) + [trials, *tail]
    return np.array(np.broadcast_arrays(*words, *[0] * (4 - len(words))), np.uint32)


def estimate_detection(config: ProtocolConfig, trials: int) -> DetectionStats:
    """Run independent trials with derived seeds and random messages,
    stacked into sessions of up to ``SESSION_ROWS`` triplets each."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}")
    # Stacking changes no trial's outcome, only the time and memory a cell
    # takes, and a session's memory grows with its triplet rows.
    chunk = max(1, SESSION_ROWS // config.triplet_count)
    violations = aborts = bits_correct = 0
    for start in range(0, trials, chunk):
        batch = np.arange(start, min(start + chunk, trials))
        # each trial's seed, SeedSequence((seed, trial)).generate_state(1, np.uint64)
        # (the first of four words), and message stream, SeedSequence((seed, trial, 1))
        seeds = seed_state(_trial_entropy(config.seed, batch))[:, 0]
        messages = Streams(seed_state(_trial_entropy(config.seed, batch, 1))).bits(
            config.capacity_bits, np.arange(len(batch))
        )
        session = Session(config, seeds, messages)
        session.run_trials()
        violations += int(session.violations.sum())
        aborts += int(np.count_nonzero(~session.completed))
        # a trial that aborted decoded nothing
        bits_correct += int(np.count_nonzero((session.decoded == messages)[session.completed]))
    checked = config.checked_triplets * trials
    return DetectionStats(
        attack=attack_cell_label(config.attack),
        trials=trials,
        checked_triplets=checked,
        violations=violations,
        detection_rate=violations / checked if checked else 0.0,
        aborts=aborts,
        abort_rate=aborts / trials,
        decoded_bits_total=config.capacity_bits * (trials - aborts),
        decoded_bits_correct=bits_correct,
    )


# --- what the probe actually learns ---------------------------------------


def eve_group_information() -> float:
    """Mutual information (bits per group) between the message chunk and
    everything the entangling probe sees: the announced travel-pair Bell
    outcome plus her own ancilla-pair Bell outcome.

    After the controller round each probed triplet is a three-qubit GHZ
    state on (home, travel, ancilla) up to the announced parity sign, so
    the value does not depend on the party count; it is identical for
    every controller-parity pattern, which is asserted by enumeration.
    """
    values = []
    for p1, p2 in np.ndindex(2, 2):
        triplet1, triplet2 = _ghz_vector(3), _ghz_vector(3).reshape(2, 2, 2)
        triplet1[-1] *= (-1) ** p1
        triplet2[1, 1, 1] *= (-1) ** p2
        # joint[op, s, e]: P(operation, travel-pair outcome s, ancilla-pair
        # outcome e), summed over the receiver's home-pair outcome
        joint = np.zeros((4, 4, 4))
        for k, op in enumerate(EncodingOp):
            encoded = _apply_single(triplet1, 3, 1, op.gate.matrix).reshape(2, 2, 2)
            # read out in the pairs (h1, h2), (t1, t2) and (e1, e2)
            probs = np.abs(bell_pair_amplitudes(encoded, triplet2)) ** 2
            joint[k] = 0.25 * np.where(probs > 1e-15, probs, 0.0).sum(axis=0)
        seen = joint > 0.0
        independent = np.broadcast_to(0.25 * joint.sum(axis=0), joint.shape)[seen]
        values.append(float(np.sum(joint[seen] * np.log2(joint[seen] / independent))))
    if max(values) - min(values) > 1e-9:
        raise AssertionError("probe information should not depend on parities")
    return values[0]
