"""Eavesdropping models for the travel-photon channel.

Two independent routes to the detection probability are kept on
purpose: ``detection_oracle`` enumerates every branch of the attacked
checking round exactly (over plain arrays, not the simulator's state
machinery), while ``estimate_detection`` runs full Monte Carlo
sessions.  Tests require the two to agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .bases import EncodingOp, bell_product_amplitudes, ghz_state_vector
from .states import (
    MeasurementBasis,
    QubitId,
    StateVector,
    apply_cnot,
    apply_gate,
    collapse_qubit,
    make_state,
    tensor,
)
from .protocol import MAX_PARTIES, ProtocolConfig, Session, draw_random_bases

if TYPE_CHECKING:  # pragma: no cover; naming np.random here would import it
    Streams = Sequence[tuple[np.random.Generator, int]]

_SQRT_HALF = 1.0 / np.sqrt(2.0)


class BasisStrategy(Enum):
    """How an intercepting eavesdropper picks her measurement basis."""

    RANDOM = "random"  # fresh uniform choice of Z or X per photon
    ALWAYS_Z = "z"
    ALWAYS_X = "x"


@dataclass(frozen=True)
class NoAttack:
    """Identity tap: the channel is untouched."""

    def tap(self, qubit: QubitId, state: StateVector, streams: Streams):
        return state, None


@dataclass(frozen=True)
class InterceptResend:
    """Measure each travel photon in flight and forward the eigenstate."""

    strategy: BasisStrategy = BasisStrategy.RANDOM

    def tap(self, qubit: QubitId, state: StateVector, streams: Streams):
        if self.strategy is BasisStrategy.RANDOM:
            drawn = [draw_random_bases(rng, rows) for rng, rows in streams]
            bases = [basis for got, _ in drawn for basis in got]
            uniforms = np.concatenate([u for _, u in drawn])
        else:
            basis = (
                MeasurementBasis.COMPUTATIONAL
                if self.strategy is BasisStrategy.ALWAYS_Z
                else MeasurementBasis.DIAGONAL
            )
            bases = [basis] * state.rows
            uniforms = np.concatenate([rng.random(rows) for rng, rows in streams])
        outcomes, post = collapse_qubit(state, qubit, bases, uniforms)
        return post, [
            f"basis={basis.value} outcome={outcome}"
            for basis, outcome in zip(bases, outcomes.tolist())
        ]


@dataclass(frozen=True)
class EntangleMeasure:
    """Couple an ancilla to each travel photon with a controlled-NOT.

    The ancilla is read out only after the relevant announcements: in
    the announced basis for checked triplets, and as a Bell measurement
    on ancilla pairs for encoding groups.
    """

    def tap(self, qubit: QubitId, state: StateVector, streams: Streams):
        ancilla = QubitId(qubit.triplet, "e")
        grown = tensor(state, make_state((ancilla,), [1.0, 0.0]))
        grown = apply_cnot(grown, qubit, ancilla)
        return grown, ["probe=cnot"] * state.rows


# Every model's tap(qubit, state, streams) takes a stack of registers
# whose travel photons, ``qubit``, are in transit, and the streams its
# draws come from: (generator, rows) runs that cover the stack's rows in
# order.  It returns the new stack and the details of the TAP records,
# one per row and without the triplet number, or None.
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


def _project_travel(vec: np.ndarray, total: int, eigvec: np.ndarray) -> tuple[float, np.ndarray]:
    """Project the travel qubit (axis 1) onto the eigenvector, keeping it."""
    psi = np.moveaxis(vec.reshape([2] * total), 1, 0)
    component = np.tensordot(eigvec.conj(), psi, axes=([0], [0]))
    prob = float(np.sum(np.abs(component) ** 2))
    if prob <= 0.0:
        return 0.0, vec
    post = np.tensordot(eigvec, component, axes=0) / math.sqrt(prob)
    return prob, np.moveaxis(post, 0, 1).reshape(-1)


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


_EIGENVECTORS = {
    "z": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    "x": (np.array([_SQRT_HALF, _SQRT_HALF]), np.array([_SQRT_HALF, -_SQRT_HALF])),
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
        if attack.strategy is BasisStrategy.RANDOM:
            chosen = (("z", 0.5), ("x", 0.5))
        elif attack.strategy is BasisStrategy.ALWAYS_Z:
            chosen = (("z", 1.0),)
        else:
            chosen = (("x", 1.0),)
        for basis, weight in chosen:
            for eigvec in _EIGENVECTORS[basis]:
                prob, post = _project_travel(ghz, parties, eigvec)
                if prob > 0.0:
                    branches.append((weight * prob, post, parties))
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


def _trial_seed(base_seed: int, trial: int) -> int:
    return int(
        np.random.SeedSequence(entropy=(base_seed, trial)).generate_state(1, np.uint64)[0]
    )


def _trial_message(base_seed: int, trial: int, capacity: int) -> str:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(base_seed, trial, 1)))
    return "".join(map(str, rng.integers(0, 2, size=capacity).tolist()))


def estimate_detection(config: ProtocolConfig, trials: int) -> DetectionStats:
    """Run independent trials with derived seeds and random messages,
    stacked into sessions of a few trials each."""
    if trials < 1:
        raise ValueError("trials must be positive")
    # A session's tapped registers (a probe ancilla on each) hold at most
    # as many amplitudes as one register of the widest kind, or it holds
    # one trial.  Its phases keep several copies of them at once: chunks
    # as large as AMPLITUDE_BUDGET allows ran no faster, and raised a
    # sweep's peak memory.
    chunk = max(1, (1 << MAX_PARTIES) // (config.triplet_count << (config.party_count + 1)))
    checked = violations = aborts = 0
    bits_total = bits_correct = 0
    for start in range(0, trials, chunk):
        session = Session(*(
            replace(
                config,
                seed=_trial_seed(config.seed, trial),
                message_bits=_trial_message(config.seed, trial, config.capacity_bits),
            )
            for trial in range(start, min(start + chunk, trials))
        ))
        session.run_trials()
        checked += session.checked_triplets * len(session.configs)
        violations += int(session.violations.sum())
        aborts += int(np.count_nonzero(~session.completed))
        for cfg, decoded in zip(session.configs, session.decoded_bits):
            if decoded is not None:
                bits_total += len(decoded)
                bits_correct += sum(map(str.__eq__, decoded, cfg.message_bits))
    return DetectionStats(
        attack=attack_cell_label(config.attack),
        trials=trials,
        checked_triplets=checked,
        violations=violations,
        detection_rate=violations / checked if checked else 0.0,
        aborts=aborts,
        abort_rate=aborts / trials,
        decoded_bits_total=bits_total,
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
    h1, t1, e1 = QubitId(1, "h"), QubitId(1, "t"), QubitId(1, "e")
    h2, t2, e2 = QubitId(2, "h"), QubitId(2, "t"), QubitId(2, "e")

    values = []
    for p1 in (0, 1):
        for p2 in (0, 1):
            triplet1 = ghz_state_vector(1 if p1 == 0 else 2, (h1, t1, e1))
            triplet2 = ghz_state_vector(1 if p2 == 0 else 2, (h2, t2, e2))
            base = tensor(triplet1, triplet2)
            joint: dict[tuple, float] = {}
            for op in EncodingOp:
                encoded = apply_gate(base, op.gate, t1)
                amps = bell_product_amplitudes(encoded, (t1, t2), (h1, h2), (e1, e2))
                for (s, r, e), amp in amps.items():
                    prob = abs(amp) ** 2
                    if prob > 1e-15:
                        key = (op, s, e)
                        joint[key] = joint.get(key, 0.0) + 0.25 * prob
            marginal: dict[tuple, float] = {}
            for (op, s, e), p in joint.items():
                marginal[(s, e)] = marginal.get((s, e), 0.0) + p
            info = sum(
                p * math.log2(p / (0.25 * marginal[(s, e)]))
                for (op, s, e), p in joint.items()
            )
            values.append(info)
    if max(values) - min(values) > 1e-9:
        raise AssertionError("probe information should not depend on parities")
    return values[0]
