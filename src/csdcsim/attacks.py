"""Detection and leakage under the eavesdropping models on the travel channel.

The models (``NoAttack``, ``InterceptResend``, ``EntangleMeasure``) live
in ``protocol``, beside the engine that runs their taps; this module reads
them by type.  Its exact section holds one joint and two oracles, kept
apart on purpose from ``estimate_cells``, which runs full Monte Carlo
sessions, a sweep's cells at once (``estimate_detection`` is its one-cell
case); tests require the two routes to agree.  ``detection_oracle``
enumerates the attacked checking round; ``group_joint``, the encoding
round's joint under a tap, gives ``decode_oracle`` and
``eve_group_information``.  All run on plain ``(2,) * n`` tensors, one axis
per qubit, independent of ``StateVector`` and the sessions' kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import _H, _apply_single, _ghz_vector, default_decode_table, encoding_joint
from .protocol import (
    MAX_PARTIES, MAX_TRIALS, SESSION_ROWS, AttackModel, BasisStrategy, ConfigError, EntangleMeasure,
    InterceptResend, NoAttack, ProtocolConfig, Session, _is_integer, session_trials,
)
from .streams import Streams, seed_state


def attack_cell_label(attack: AttackModel | None) -> str:
    """Stable row label for sweep output."""
    if attack is None or isinstance(attack, NoAttack):
        return "none"
    if isinstance(attack, InterceptResend):
        return f"intercept-resend:{attack.strategy.value}"
    if isinstance(attack, EntangleMeasure):
        return "entangle-measure"
    raise ValueError(f"not an attack model: {attack!r}")


# --- exact detection analysis -------------------------------------------
# Plain-array enumeration, deliberately independent of the StateVector
# machinery the sessions run on; a triplet is laid out as in ``bases``.


def _cnot_vector(psi: np.ndarray, control: int, target: int) -> np.ndarray:
    flipped = psi.copy()
    pair = np.moveaxis(flipped, (control, target), (0, 1))
    pair[1] = pair[1, ::-1]
    return flipped


def _violation_probability(psi: np.ndarray, parties: int, diagonal: bool) -> float:
    """Probability the coincidence rule fails when the parties (the first
    ``parties`` axes) all measure, weighted by the squared norm of an
    unnormalised ``psi``.  Extra (non-party) qubits such as a probe
    ancilla are marginalized."""
    if diagonal:
        for axis in range(parties):
            psi = _apply_single(psi, axis, _H)
    per_outcome = np.sum(np.abs(psi) ** 2, axis=tuple(range(parties, psi.ndim)))
    bits = np.indices((2,) * parties)
    # Z: the parties' bits must all agree; X: their parity must be even
    fails = bits.sum(axis=0) % 2 == 1 if diagonal else (bits != bits[0]).any(axis=0)
    return float(per_outcome[fails].sum())


# The bases each intercepting strategy measures in, each chosen equally
# often; a basis is given by its eigenvectors as rows (Z: eye, X: _H).
_INTERCEPT_BASES = {
    BasisStrategy.RANDOM: (np.eye(2), _H),
    BasisStrategy.ALWAYS_Z: (np.eye(2),),
    BasisStrategy.ALWAYS_X: (_H,),
}


def _tap_branches(attack: AttackModel | None, parties: int) -> list[tuple[float, np.ndarray]]:
    """A ``parties``-party GHZ triplet under ``attack`` as ``(weight, psi)``
    branches: psi unnormalised, its squared norm the branch's probability."""
    ghz = _ghz_vector(parties)
    if attack is None or isinstance(attack, NoAttack):
        return [(1.0, ghz)]
    if isinstance(attack, InterceptResend):
        # project the travel qubit onto each eigenvector, keeping it
        chosen = _INTERCEPT_BASES[attack.strategy]
        return [
            (1 / len(chosen), _apply_single(ghz, 1, np.outer(eigvec, eigvec.conj())))
            for eigvecs in chosen for eigvec in eigvecs
        ]
    if isinstance(attack, EntangleMeasure):
        return [(1.0, _cnot_vector(np.multiply.outer(ghz, [1.0, 0.0]), 1, parties))]
    raise ValueError(f"not an attack model: {attack!r}")


def detection_oracle(attack: AttackModel | None, parties: int = 3) -> float:
    """Exact per-checked-triplet violation probability for an attack.

    Enumerates the eavesdropper's basis choice and outcome, then the
    uniformly chosen checking basis, then every party-outcome branch.
    """
    if not _is_integer(parties) or not 3 <= parties <= MAX_PARTIES:
        raise ValueError(f"parties must be an integer from 3 to {MAX_PARTIES}, got {parties!r}")
    if attack is None or isinstance(attack, NoAttack):
        return 0.0
    return sum(
        weight * 0.5 * _violation_probability(psi, parties, diagonal)
        for weight, psi in _tap_branches(attack, parties) for diagonal in (False, True)
    )


def abort_probability(attack: AttackModel | None, checked_triplets: int, parties: int = 3) -> float:
    """Chance that at least one of k independent checked triplets trips."""
    if not _is_integer(checked_triplets) or checked_triplets < 0:
        raise ValueError(f"checked_triplets must be an integer >= 0, got {checked_triplets!r}")
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


def _chunk_tallies(
    config: ProtocolConfig, batch: np.ndarray, attacks: tuple[AttackModel | None, ...]
) -> np.ndarray:
    """The violations, aborts and bits decoded right of one session of trials
    ``batch`` under each of ``attacks``; it and its forks go on return."""
    # each trial's seed, SeedSequence((seed, trial)).generate_state(1, np.uint64)
    # (the first of four words), and message stream, SeedSequence((seed, trial, 1))
    seeds = seed_state(_trial_entropy(config.seed, batch))[:, 0]
    messages = Streams(seed_state(_trial_entropy(config.seed, batch, 1))).bits(
        config.capacity_bits, np.arange(len(batch))
    )
    session = Session(config, seeds, messages)
    session.select_groups()
    tallies = np.zeros((len(attacks), 3), np.int64)
    for tally, attack in zip(tallies, attacks):
        cell = session.fork(attack)
        cell.run_trials()
        # a trial that aborted decoded nothing
        correct = np.count_nonzero((cell.decoded == messages)[cell.completed])
        tally += cell.violations.sum(), np.count_nonzero(~cell.completed), correct
    return tallies


def estimate_cells(
    config: ProtocolConfig, trials: int, attacks: tuple[AttackModel | None, ...]
) -> tuple[DetectionStats, ...]:
    """Run independent trials with derived seeds and random messages, stacked
    into sessions of up to ``SESSION_ROWS`` triplets each, under each of
    ``attacks``.  The cells share each trial's seed, message, group order
    and S4 party draws, and each runs on a fork of its session (``Session.fork``).
    Raises before any cell runs for a value of ``attacks`` that is not a model."""
    if not _is_integer(trials) or not 1 <= trials <= MAX_TRIALS:
        raise ConfigError(f"trials must be an integer between 1 and {MAX_TRIALS}, got {trials!r}")
    labels = [attack_cell_label(attack) for attack in attacks]
    # Stacking changes no trial's outcome, only the time and memory a cell
    # takes, and a session's memory grows with its triplet rows.
    chunk = session_trials(config.triplet_count, SESSION_ROWS)
    tallies = np.zeros((len(attacks), 3), np.int64)  # violations, aborts, bits correct
    for start in range(0, trials, chunk):
        tallies += _chunk_tallies(config, np.arange(start, min(start + chunk, trials)), attacks)
    checked = config.checked_triplets * trials
    return tuple(
        DetectionStats(
            attack=label, trials=trials, checked_triplets=checked,
            violations=violations, detection_rate=violations / checked,
            aborts=aborts, abort_rate=aborts / trials,
            decoded_bits_total=config.capacity_bits * (trials - aborts),
            decoded_bits_correct=bits_correct,
        )
        for label, (violations, aborts, bits_correct) in zip(labels, tallies.tolist())
    )


def estimate_detection(config: ProtocolConfig, trials: int) -> DetectionStats:
    """``estimate_cells`` for the one cell of ``config``'s own attack."""
    return estimate_cells(config, trials, (config.attack,))[0]


# --- the encoding round under attack -------------------------------------


def group_joint(attack: AttackModel | None) -> np.ndarray:
    """``encoding_joint`` under ``attack``; three parties stand for any number."""
    return encoding_joint(_tap_branches(attack, 3))


def decode_oracle(attack: AttackModel | None) -> float:
    """Exact share of message bits the receiver decodes right under an
    attack, half a bit per matching bit, through the default decode table."""
    wrong = np.arange(4).reshape(4, 1, 1, 1, 1) ^ default_decode_table().dense.swapaxes(2, 3)
    right = (2 - (wrong & 1) - (wrong >> 1)) / 2  # by (op, p1, p2, receiver, sender)
    return float(np.sum(group_joint(attack).reshape(*right.shape, -1).sum(axis=5) * right))


def eve_group_information() -> float:
    """Mutual information (bits per group) between the message chunk and
    all the entangling probe sees: the announced travel-pair Bell outcome
    and its own ancilla-pair Bell outcome.  It is asserted to be the same
    for every controller-parity pattern."""
    # P(op, sender, ancilla | p1, p2): the parities are uniform, the home pair unseen
    given = 4 * group_joint(EntangleMeasure()).sum(axis=3)
    ratio = np.divide(given, given.mean(axis=0), out=np.ones_like(given), where=given > 1e-15)
    values = np.sum(given * np.log2(ratio), axis=(0, 3, 4))
    if values.max() - values.min() > 1e-9:
        raise AssertionError("probe information should not depend on parities")
    return float(values[0, 0])
