"""Multi-party secure direct communication session engine.

One session moves through numbered phases, recorded in the transcript
under these wire labels:

    S1   receiver prepares one GHZ state per triplet and distributes the
         travel sequence to the sender and one control sequence to each
         controller (an eavesdropper taps travel photons in transit)
    S2   receipt confirmations; consecutive triplet pairs become groups
    S3   sender partitions the groups into checking and encoding sets
    S4   per checked triplet: sender picks a basis at random, measures
         and announces; everyone else measures in the same basis and
         replies; any coincidence violation aborts the session
    S5   controllers measure their control photons of the encoding
         groups in the diagonal basis (a Hadamard, then Z)
    S6   controllers broadcast their outcome lists
    S7   sender encodes two message bits per group on the first travel
         photon and Bell-measures each travel pair
    S8   sender announces the Bell results
    S9   receiver Bell-measures each home pair and decodes
    S11  session complete

A reverse transfer (S10 in the numbering) is a fresh session with the
sender and receiver roles exchanged; ``ProtocolConfig.sender`` and
``.receiver`` accept any two distinct party names, and the remaining
parties act as controllers.

Every phase is columnar: the registers it acts on sit in one stack
(``StateVector`` rows), and each party's operation is one kernel call
over the stack.  A tap acts on travel photons alone, so the prepared
stack (S1) holds each distinct register once, at most four, and an index
the one each triplet holds.  Every read-out keeps to distinct registers
too: in S4 and S5 each party reads every outcome of each distinct
(register, basis) pair at once, picks each triplet's outcome with its
draw, and keeps each branch left once by its bytes and basis, however
many paths reach it.  S7 joins, encodes and Bell-reads each distinct
(first register, second register, operation) of a group once, and S9
each distinct branch S7 leaves; no register is held one per triplet or
group, only an index of the one each reads.

A session holds one or more trials of one shared ``ProtocolConfig``: a
trial is a seed and a message, given as arrays beside the config.
``Session(config)`` is the one-trial case, with the config's own seed
and message; a session holds at most ``SESSION_ROWS`` triplets, or one
trial, so a sweep cell runs as one or as a few (``attacks.estimate_cells``).
``run_trials`` runs each phase not yet run, in order; a phase runs once,
after those it reads, or raises ``RuntimeError`` before it draws.  Each
phase sets what it makes, so a later phase writes only the streams in
place, and a fork (``Session.fork``), taken after S3 and before S1,
copies them alone.
So a sweep's cells share each trial's seed, message, group order and the
honest parties' S4 draws, none of which depends on the attack: each runs
on a fork of one session and reads exactly what it would draw alone.
A trial is one row: every array a session keeps per trial has the trial
as its first axis, one row per trial, or from S5 on one row per trial
that passed the check; a trial that aborts in S4 leaves S5-S9 by a mask.
A row holds positions in ``BASES``, ``BELL_OUTCOMES`` and ``EncodingOp``:
one per triplet (the prepared index, and the tap's bases and outcomes, a
pair of such arrays, if it measured in transit), per checked or encoding
triplet, or per encoding group.  A phase ravels its rows, trial by trial,
only to hand them to a kernel.  Only when a trial's ``SessionResult`` is
asked for, so never in a sweep, does the session hand that trial's row of
each array to ``transcript.write_transcript``, which owns the format.

Randomness: every trial draws from its own master seed through a named
substream per party (ALICE, BOB, CTRL1..k, then EVE, spawn keys 0..),
so changing one party's behavior never shifts another party's draws,
and a trial draws the same numbers alone or stacked with others.  The
substreams are exactly numpy's ``SeedSequence`` spawn streams, each a
PCG64 as ``default_rng`` seeds it.  A session holds them all as one
``streams.Streams``, a row per (party, trial).  A draw takes every
trial's numbers on the streams it reads in one call, by jumping each
stream ahead rather than stepping it, and a phase makes at most one,
except S4: the sender's ``random_bases``, then the others' ``random``,
then EVE's with a probe.  The tests pin every draw and every stream's
state after each phase against numpy's ``Generator``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from numbers import Real
from typing import Sequence

import numpy as np

from .bases import EncodingOp, default_decode_table
from .states import (
    BASES,
    Gate,
    MeasurementBasis,
    QubitId,
    StateVector,
    _sample,
    apply_cnot,
    apply_gate,
    bell_branches,
    collapse_branches,
    make_state,
    measure_branches,
    measure_qubit,  # no caller here; perfbench's tracer test patches it in this module
    take_rows,
    tensor,
)
from .streams import Streams, seed_state
from .transcript import EVE, TranscriptRecord, parse_transcript, write_transcript

ALICE = "ALICE"
BOB = "BOB"

MAX_SEED = 2**64 - 1
# A register is dense, 2**P amplitudes (2**(P+1) with a probe ancilla);
# at P=12, 64 KiB each.
MAX_PARTIES = 12
# The prepared stack holds at most four registers, so what grows with the
# triplet count is the per-triplet index and outcomes and the transcript.
MAX_TRIPLETS = 4096
# A trial index must stay one entropy word; a sweep cell draws its trials'
# seeds and messages session by session, so no array spans the cell.
MAX_TRIALS = 1 << 20
# A session's row budget: at most this many triplets over all its trials,
# or one trial; its memory grows with triplet rows, not register width.
SESSION_ROWS = 1 << 14

_DIAGONAL = BASES.index(MeasurementBasis.DIAGONAL)
# each phase's wire label and method, in the order ``run_trials`` runs them
_PHASES = (("S3", "select_groups"), ("S1", "prepare_and_distribute"), ("S4", "run_check"),
           ("S5", "controller_round"), ("S7", "encode_and_announce"), ("S9", "receiver_decode"))
_OP_GATES = np.array([tuple(Gate).index(op.gate) for op in EncodingOp])  # positions in Gate


class ConfigError(ValueError):
    """Rejected configuration; maps to a usage error at the CLI."""


class InternalError(RuntimeError):
    """A simulator invariant broke; maps to exit code 4 at the CLI."""


def roster_names(party_count: int) -> tuple[str, ...]:
    """Fixed actor names: ALICE, BOB, then CTRL1..CTRL(party_count - 2)."""
    return (ALICE, BOB) + tuple(f"CTRL{j}" for j in range(1, party_count - 1))


def triplet_parity(controller_bits) -> np.ndarray:
    """XOR of the bits along the first axis: of all controller outcomes
    for one triplet, or for each triplet of a row of them."""
    return np.sum(controller_bits, axis=0) % 2


def coincidence_ok(bases, bits) -> np.ndarray:
    """Checking rule: computational outcomes must all agree, diagonal
    outcomes must have even parity.  ``bits`` holds one outcome per party
    along its first axis, for one triplet or for each of an array of them;
    ``bases`` is one position in BASES or one per triplet."""
    bits = np.asarray(bits)
    diagonal = np.asarray(bases) == _DIAGONAL
    return np.where(diagonal, triplet_parity(bits) == 0, (bits == bits[0]).all(axis=0))


def _is_integer(value) -> bool:
    # a bool, Python's or numpy's, is not a count or a seed
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def session_capacity(triplet_count: int, check_fraction: float) -> int:
    """Message bits one session carries: two per group of consecutive
    triplets, after ceil(check_fraction * groups) groups are reserved for
    checking.  Rejects a triplet count that is not positive, even and at
    most MAX_TRIPLETS."""
    if not (0 < triplet_count <= MAX_TRIPLETS) or triplet_count % 2 != 0:
        raise ConfigError(
            f"triplet count must be a positive even integer of at most {MAX_TRIPLETS}, "
            f"got {triplet_count}"
        )
    if not (0.0 < check_fraction < 1.0):
        raise ConfigError(f"check fraction must lie strictly between 0 and 1, got {check_fraction}")
    groups = triplet_count // 2
    return 2 * (groups - math.ceil(check_fraction * groups))


def session_trials(triplet_count: int, rows: int) -> int:
    """How many trials of ``triplet_count`` triplets fit in ``rows``: at least one."""
    return max(1, rows // triplet_count)


# Every model's tap(qubit, register, streams, rows, count) takes the
# prepared register, whose travel photon is ``qubit``, and draws for the
# ``count`` triplets of each trial on EVE's stream ``rows`` of the
# session's ``Streams``, all in one call.  A tap acts on travel photons
# alone, so it returns the few registers every triplet holds one of, each
# once; the position among them of each triplet's, trial by trial; and the
# bases (positions in BASES) and outcomes of the photons it measured, a
# (2, photons) array that only the session's transcript names.
def untapped(qubit: QubitId, register: StateVector, streams: Streams, rows, count: int) -> tuple:
    """An untouched channel's tap, NoAttack's and no attack's: every triplet holds ``register``."""
    return register, np.zeros(len(rows) * count, np.intp), np.zeros((2, 0), np.intp)


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

    def __post_init__(self) -> None:
        if not isinstance(self.strategy, BasisStrategy):
            raise ConfigError(f"strategy must be a BasisStrategy, got {self.strategy!r}")

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


AttackModel = NoAttack | InterceptResend | EntangleMeasure


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete description of one session; validated on construction."""

    triplet_count: int
    message_bits: str
    party_count: int = 3
    check_fraction: float = 0.5
    attack: AttackModel | None = None
    seed: int = 0
    sender: str = BOB
    receiver: str = ALICE

    def __post_init__(self) -> None:
        counts = (("triplet count", self.triplet_count), ("party count", self.party_count))
        for name, value in counts:
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.check_fraction, Real):
            raise ConfigError(f"check fraction must be a real number, got {self.check_fraction!r}")
        if not isinstance(self.message_bits, str):
            raise ConfigError(f"message must be a string of 0s and 1s, got {self.message_bits!r}")
        # capacity_bits calls session_capacity, which rejects a bad triplet
        # count or check fraction
        capacity = self.capacity_bits
        if not (3 <= self.party_count <= MAX_PARTIES):
            raise ConfigError(
                f"party count must be between 3 and {MAX_PARTIES}, got {self.party_count}"
            )
        if not _is_integer(self.seed) or not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {self.seed!r}")
        if self.attack is not None and not isinstance(self.attack, AttackModel):
            raise ConfigError(f"attack must be None or an attack model, got {self.attack!r}")
        if set(self.message_bits) - {"0", "1"}:
            raise ConfigError("message must be a string of 0s and 1s")
        names = self.roster
        if self.sender not in names or self.receiver not in names:
            raise ConfigError(f"sender and receiver must be members of {names}")
        if self.sender == self.receiver:
            raise ConfigError("sender and receiver must be distinct parties")
        if self.encoding_group_count < 1:
            raise ConfigError(
                f"no encoding groups remain: {self.group_count} group(s) with "
                f"{self.checking_group_count} reserved for checking"
            )
        if len(self.message_bits) != capacity:
            raise ConfigError(
                f"message length {len(self.message_bits)} does not match the "
                f"session capacity of {capacity} bit(s) "
                f"({self.encoding_group_count} encoding group(s), 2 bits each)"
            )

    @cached_property
    def roster(self) -> tuple[str, ...]:
        return roster_names(self.party_count)

    @cached_property
    def controllers(self) -> tuple[str, ...]:
        """Controller parties for this run, in roster order."""
        return tuple(p for p in self.roster if p not in (self.sender, self.receiver))

    @property
    def group_count(self) -> int:
        return self.triplet_count // 2

    @property
    def checking_group_count(self) -> int:
        return self.group_count - self.encoding_group_count

    @property
    def checked_triplets(self) -> int:
        """Triplets measured in S4: both of each checking group."""
        return 2 * self.checking_group_count

    @property
    def encoding_group_count(self) -> int:
        return self.capacity_bits // 2

    @cached_property
    def capacity_bits(self) -> int:
        return session_capacity(self.triplet_count, self.check_fraction)


@dataclass(frozen=True)
class SessionResult:
    config: ProtocolConfig = field(repr=False)
    completed: bool
    decoded_bits: str | None
    match: bool
    violations: int
    abort_triplet: int | None
    transcript: str = field(repr=False)

    @cached_property
    def records(self) -> tuple[TranscriptRecord, ...]:
        """The transcript's records, parsed from its text on first use."""
        return tuple(parse_transcript(self.transcript))


def _labels(position: int, roles: Sequence[str]) -> tuple[QubitId, ...]:
    return tuple(QubitId(position, role) for role in roles)


def _pair_triplets(groups: np.ndarray) -> np.ndarray:
    """The triplets 2g-1, 2g of each group g, in order along the last axis."""
    return (2 * groups[..., None] + np.array([-1, 0])).reshape(*groups.shape[:-1], -1)


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` of non-negative integer keys
    without a sort, for keys that span a few times their distinct count."""
    seen = np.bincount(keys) > 0
    return np.flatnonzero(seen).astype(keys.dtype, copy=False), (np.cumsum(seen) - 1)[keys]


def _fold(amps: np.ndarray, bases: list, paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The branches (row 2 * register + outcome of ``amps``) that ``paths``
    reach, each kept once by its bytes and the basis its register reads
    (``bases``): the first row of each, and each path's index among them."""
    firsts, kept, into = {}, [], np.zeros(len(amps), np.intp)
    for row in np.flatnonzero(np.bincount(paths)).tolist():
        key = (bases[row // 2], amps[row].tobytes())
        if key not in firsts:
            firsts[key] = len(kept)
            kept.append(row)
        into[row] = firsts[key]
    return np.array(kept), into[paths]


def _pick(probs: np.ndarray, index: np.ndarray, uniforms: np.ndarray) -> tuple:
    """Each row's outcome by its draw from ``probs[index]``, (rows, d): the
    draws, read flat, hold one a row, and the outcomes take their shape; then
    the distinct branches left (row d * register + outcome) and each row's
    index among them."""
    outcomes = _sample(probs[index], uniforms.ravel())
    return outcomes.reshape(uniforms.shape), *_distinct(probs.shape[1] * index + outcomes)


def _bit_string(bits: np.ndarray) -> str:
    return (bits + ord("0")).tobytes().decode()


def _seed_array(seeds) -> np.ndarray:
    """``seeds`` as uint64; a ConfigError unless a 1-D sequence of integers,
    not bools, that fit.  A uint64 array passes on its dtype alone."""
    if not isinstance(seeds, np.ndarray):
        seeds = np.asarray(seeds, object)  # Python ints, not floats, past 2**63
    if seeds.ndim != 1 or seeds.dtype != np.uint64 and not (
        (seeds.dtype.kind in "iu" or all(map(_is_integer, seeds)))
        and (not seeds.size or 0 <= seeds.min() and seeds.max() <= MAX_SEED)
    ):
        raise ConfigError(f"seeds must be a 1-D sequence of integers in [0, {MAX_SEED}]")
    return seeds.astype(np.uint64, copy=False)


class Session:
    """Drives one protocol run per trial, all trials at once; all state
    lives on the instance.  A trial is a seed (``seeds``, uint64) and a
    message (a row of ``messages``, capacity_bits 0s and 1s); by default
    the config's own seed, and its own message for each seed."""

    def __init__(self, config: ProtocolConfig, seeds=None, messages=None) -> None:
        self.seeds = seeds = _seed_array([config.seed] if seeds is None else seeds)
        if messages is None:
            own = np.frombuffer(config.message_bits.encode(), np.uint8) - ord("0")
            messages = np.broadcast_to(own, (len(seeds), len(own)))
        messages = np.asarray(messages)
        if not len(seeds):
            raise ConfigError("a session runs one or more trials")
        most = session_trials(config.triplet_count, SESSION_ROWS)
        if len(seeds) > most:
            raise ConfigError(f"{len(seeds)} trials exceed the {most} that fit in one session")
        if len(messages) != len(seeds):
            raise ConfigError(f"{len(seeds)} seed(s) but {len(messages)} message(s)")
        if messages.ndim != 2 or messages.shape[1] != config.capacity_bits:
            raise ConfigError(f"each message must be {config.capacity_bits} bits long")
        if not np.isin(messages, (0, 1)).all():
            raise ConfigError("a message holds 0s and 1s only")
        self.messages = messages.astype(np.uint8, copy=False)
        self.config = config
        # each party's stream, then EVE's, in every trial: stream i of trial k
        # is row i*K + k (K trials); a spawn key zero-pads the seed's words
        self._stream_names = config.roster + (EVE,)
        entropy = np.zeros((4, len(seeds)), np.uint32)
        entropy[:2] = seeds & 0xFFFFFFFF, seeds >> 32
        self._streams = Streams(seed_state(entropy, len(self._stream_names)))

        # the photon roles of every triplet, and the one each party holds
        self._roles = ("h", "t") + tuple(f"c{j}" for j in range(1, config.party_count - 1))
        holders = (config.receiver, config.sender) + config.controllers
        self._role_of = dict(zip(holders, self._roles))

        self._ran = frozenset()  # the wire labels of the phases run, then "end"
        self._live = np.zeros(0, np.intp)  # the trials that passed S4

    def _begin(self, phase: str, *needs: str) -> None:
        """Record ``phase`` as run, or raise RuntimeError before it draws: a
        phase runs once, before the end, after each of ``needs``, and S5
        only if a trial passed S4."""
        if {phase, "end"} & self._ran:
            done = "it has ended" if "end" in self._ran else f"{phase} has already run"
            raise RuntimeError(f"a session runs once: {done}")
        after = " and ".join(need for need in needs if need not in self._ran)
        if after or phase == "S5" and not len(self._live):
            raise RuntimeError(f"{phase} runs only after {after or 'a trial passed S4'}")
        self._ran |= {phase}  # a new set, never changed in place: forks share the old one

    # -- register and stream helpers ---------------------------------------

    def _stream_rows(self, parties: Sequence[str], trials: np.ndarray) -> np.ndarray:
        """The stream rows of each of ``parties`` in each of ``trials``, party by party."""
        keys = np.array([self._stream_names.index(party) for party in parties])
        return (keys[:, None] * len(self.seeds) + trials).ravel()

    def _uniforms(self, parties: Sequence[str], count: int, trials: np.ndarray) -> dict:
        """``count`` uniforms from each party's stream in each of ``trials``,
        drawn in one call: each party's, (trials, count)."""
        drawn = self._streams.random(count, self._stream_rows(parties, trials))
        return dict(zip(parties, drawn.reshape(len(parties), len(trials), count)))

    def _measure_photons(
        self, trials: np.ndarray, triplets: np.ndarray, measuring: Sequence[tuple[str, str]],
        bases, draws: dict[str, np.ndarray],
    ) -> tuple[dict[str, np.ndarray], StateVector, np.ndarray]:
        """Read the registers of ``trials``' (trials, n) ``triplets`` out:
        each (party, role) of ``measuring`` in turn measures its photon in
        the triplet's basis (one, or one per triplet) with the party's
        (trials, n) draws.  Returns each party's outcomes, shaped so, the
        distinct registers left and each triplet's index among them, trial
        by trial.  Each distinct (register, basis) is read once, every
        outcome at once, and each branch left is kept once (``_fold``).  A
        register is taken once, so no photon is measured twice, nor named twice."""
        at, taken = (trials[:, None], triplets - 1), np.count_nonzero(self._taken)
        self._taken[at] = True
        if np.count_nonzero(self._taken) - taken != triplets.size:
            raise InternalError("a photon would be measured twice")
        keys, index = _distinct((self._index[at] * len(BASES) + bases).ravel())
        state, bases = take_rows(self._prepared, keys // len(BASES)), keys % len(BASES)
        outcomes = {}
        for party, role in measuring:
            probs, branches = measure_branches(state, QubitId(1, role), bases)
            picked = _sample(probs[index], draws[party].ravel())
            outcomes[party] = picked.reshape(draws[party].shape)
            kept, index = _fold(branches.amps, bases.tolist(), 2 * index + picked)
            state, bases = take_rows(branches, kept), bases[kept // 2]
        return outcomes, state, index

    # -- protocol phases ---------------------------------------------------

    def prepare_and_distribute(self) -> None:
        self._begin("S1")
        ghz = np.zeros(1 << len(self._roles))
        ghz[0] = ghz[-1] = 1.0
        register = make_state(_labels(1, self._roles), ghz)
        # each trial's triplets take EVE's draws from that trial's stream;
        # no attack is the untouched channel that NoAttack taps
        trials = len(self.seeds)
        rows = self._stream_rows([EVE], np.arange(trials))
        tap = getattr(self.config.attack, "tap", untapped)
        self._prepared, index, seen = tap(
            QubitId(1, "t"), register, self._streams, rows, self.config.triplet_count
        )
        self._index = index.reshape(trials, -1)
        self._tap = seen.reshape(2, trials, seen.shape[1] // trials)  # bases, outcomes
        self._probed = QubitId(1, "e") in self._prepared.qubits  # a probe coupled, nothing measured
        self._taken = np.zeros(self._index.shape, bool)  # each triplet's register taken out

    def select_groups(self) -> None:
        self._begin("S3")
        cfg, c = self.config, self.config.checking_group_count
        trials = np.arange(len(self.seeds))
        orders = self._streams.permutation(cfg.group_count, self._stream_rows([cfg.sender], trials))
        # the first checking_group_count groups of each trial's order check;
        # the groups of each kind are listed in increasing order
        self.checking_groups = np.sort(orders[:, :c], axis=1) + 1
        self.encoding_groups = np.sort(orders[:, c:], axis=1) + 1

    @cached_property
    def _party_draws(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """S4's draws on every stream but EVE's, on first use: the sender's
        bases, then each party's uniforms; a sweep's cells share them (``fork``)."""
        cfg, trials = self.config, np.arange(len(self.seeds))
        count, sender = cfg.checked_triplets, self._stream_rows([cfg.sender], trials)
        bases, uniforms = self._streams.random_bases(count, sender)
        others = (cfg.receiver,) + cfg.controllers
        return bases, {cfg.sender: uniforms, **self._uniforms(others, count, trials)}

    def run_check(self) -> bool:
        """Measure every checked triplet of every trial and compare; a trial
        with any violation aborts.  Returns whether any trial passed.

        All checked photons are consumed even after a violation, so the
        per-triplet violation rate is well defined for statistics.
        """
        self._begin("S4", "S1", "S3")
        cfg, trials = self.config, np.arange(len(self.seeds))
        checked = _pair_triplets(self.checking_groups)
        count = cfg.checked_triplets
        bases, draws = self._party_draws
        parties = (cfg.sender, cfg.receiver) + cfg.controllers
        # per triplet: the sender, the receiver, the controllers, then a
        # probe ancilla, which is read out only after the bases are public
        measuring = [(party, self._role_of[party]) for party in parties]
        if self._probed:
            measuring.append((EVE, "e"))
            draws = {**draws, **self._uniforms([EVE], count, trials)}
        self._check_bits, left, _ = self._measure_photons(trials, checked, measuring, bases, draws)
        if left.num_qubits:
            raise InternalError("checked photons were left unmeasured")

        failed = ~coincidence_ok(bases, np.stack([self._check_bits[party] for party in parties]))
        self.violations = np.count_nonzero(failed, axis=1)
        self.completed = self.violations == 0
        first = checked[trials, np.argmax(failed, axis=1)]
        self.abort_triplet = np.where(self.completed, 0, first)  # 0 where none
        self._live = np.flatnonzero(self.completed)
        self.decoded = np.zeros(self.messages.shape, np.uint8)  # an aborted trial's stay 0
        self._check_bases = bases
        return len(self._live) > 0

    def controller_round(self) -> None:
        self._begin("S5", "S4")
        cfg, live = self.config, self._live
        triplets = _pair_triplets(self.encoding_groups[live])
        draws = self._uniforms(cfg.controllers, triplets.shape[1], live)
        measuring = [(ctrl, self._role_of[ctrl]) for ctrl in cfg.controllers]
        # a Hadamard then a computational measurement: a diagonal read-out; the
        # distinct (home, travel[, probe ancilla]) left, and each encoding triplet's
        self._controller_bits, *self._encoding = self._measure_photons(
            live, triplets, measuring, _DIAGONAL, draws
        )
        self.parities = triplet_parity(np.stack(list(self._controller_bits.values())))

    def encode_and_announce(self) -> None:
        self._begin("S7", "S5")
        cfg, live = self.config, self._live
        # each group's two message bits, read as a number, name its operation
        self._ops = self.messages[live].reshape(len(live), -1, 2) @ np.array([2, 1])
        draws = self._uniforms([cfg.sender], cfg.encoding_group_count, live)[cfg.sender]
        (encoding, index), self._encoding = self._encoding, None
        # each distinct (first, second register, op) once, found by a sort: keys span D*D*4
        shape = (encoding.rows, encoding.rows, len(EncodingOp))
        keys = np.ravel_multi_index((index[::2], index[1::2], self._ops.ravel()), shape)
        keys, index = np.unique(keys, return_inverse=True)
        first, second, op = np.unravel_index(keys, shape)
        seconds = take_rows(encoding, second, _labels(2, [q.role for q in encoding.qubits]))
        travel_pair = (QubitId(1, "t"), QubitId(2, "t"))
        firsts = apply_gate(take_rows(encoding, first), _OP_GATES[op], travel_pair[0])
        probs, pairs = bell_branches(tensor(firsts, seconds), travel_pair)
        # the distinct (home 1[, probe 1], home 2[, probe 2]) left, and each group's
        self._sender_bell, kept, index = _pick(probs, index, draws)
        self._pairs = take_rows(pairs, kept), index

    def receiver_decode(self) -> None:
        self._begin("S9", "S7")
        cfg, live = self.config, self._live
        (pairs, index), self._pairs = self._pairs, None
        measuring = [(cfg.receiver, (QubitId(1, "h"), QubitId(2, "h")))]
        if self._probed:
            measuring.append((EVE, (QubitId(1, "e"), QubitId(2, "e"))))
        draws = self._uniforms([p for p, _ in measuring], cfg.encoding_group_count, live)
        outcomes = {}
        for party, pair in measuring:
            probs, branches = bell_branches(pairs, pair)
            outcomes[party], kept, index = _pick(probs, index, draws[party])
            pairs = take_rows(branches, kept)
        if pairs.num_qubits:
            raise InternalError("encoding photons were left unmeasured")

        self._receiver_bell = outcomes[cfg.receiver]
        # no ancilla Bell outcomes without a probe
        self._ancilla_bell = outcomes.get(EVE, np.zeros((len(live), 0), np.intp))
        p1, p2 = self.parities[:, ::2], self.parities[:, 1::2]
        ops = default_decode_table().dense[p1, p2, self._sender_bell, self._receiver_bell]
        # an operation's position is its two bits read as a number
        self.decoded[live] = (ops[..., None] >> np.array([1, 0]) & 1).reshape(len(live), -1)

    # -- drivers ----------------------------------------------------------

    def run_trials(self) -> None:
        """Every phase not yet run, in order, over every trial, then the
        session's end; a trial that aborts in S4 takes no part in S5-S9."""
        for label, phase in _PHASES:
            if label == "S5" and not len(self._live):
                break  # every trial aborted in S4
            if label not in self._ran:
                getattr(self, phase)()
        # every prepared register was taken out and measured, except the
        # encoding triplets' of an aborted trial, which stay alive
        taken = np.count_nonzero(self._taken, axis=1)
        expected = np.where(self.completed, self.config.triplet_count, self.config.checked_triplets)
        if not np.array_equal(taken, expected):
            raise InternalError("qubit conservation violated")
        self._begin("end")

    def fork(self, attack: AttackModel | None) -> Session:
        """This session under ``attack``, taken after S3 and before S1, to run
        ``run_trials`` once.  A later phase writes only the streams in place, so
        it copies them and shares the rest, S4's party draws too (drawn now if not yet)."""
        if self._ran != {"S3"}:
            raise RuntimeError("a session forks only after S3 and before S1")
        self._party_draws  # drawn once, on this session, for every fork
        forked = copy.copy(self)  # no __init__: the instance dict, shallow
        forked.config = replace(self.config, attack=attack)
        forked._streams = copy.deepcopy(self._streams)
        return forked

    def run(self) -> SessionResult:
        """Run every trial; the result of the first (of a one-trial
        session, its only one)."""
        self.run_trials()
        return self.result(0)

    def result(self, trial: int) -> SessionResult:
        """One trial's result, with its config and transcript text."""
        if "end" not in self._ran:
            raise RuntimeError("the session has not run: call run_trials() first")
        if not _is_integer(trial) or not 0 <= trial < len(self.seeds):
            raise IndexError(f"trial {trial!r} is not one of the session's {len(self.seeds)}")
        cfg = self.config
        message, completed = _bit_string(self.messages[trial]), bool(self.completed[trial])
        decoded = _bit_string(self.decoded[trial]) if completed else None
        encoded = {}
        if completed:
            j = int(np.count_nonzero(self.completed[:trial]))  # its row among those that passed
            encoded = dict(
                controller_bits={c: bits[j] for c, bits in self._controller_bits.items()},
                parities=self.parities[j], ops=self._ops[j], sender_bell=self._sender_bell[j],
                receiver_bell=self._receiver_bell[j], ancilla_bell=self._ancilla_bell[j],
                decoded=decoded,
            )
        abort_triplet = None if completed else int(self.abort_triplet[trial])
        transcript = write_transcript(
            cfg.triplet_count, cfg.sender, cfg.receiver, cfg.controllers,
            "probe" if self._probed else self._tap[:, trial], self.checking_groups[trial],
            self.encoding_groups[trial], self._check_bases[trial],
            {party: bits[trial] for party, bits in self._check_bits.items()},
            int(self.violations[trial]), abort_triplet, **encoded,
        )
        return SessionResult(
            config=replace(cfg, seed=int(self.seeds[trial]), message_bits=message),
            completed=completed,
            decoded_bits=decoded,
            match=completed and decoded == message,
            violations=int(self.violations[trial]),
            abort_triplet=abort_triplet,
            transcript=transcript,
        )
