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
the one each triplet holds.  S4 and S5, one read-out step, keep to
distinct registers too: each party reads every outcome of each distinct
(register, basis) pair at once, picks each triplet's outcome with its
draw, and keeps each distinct branch left once, so the registers read
halve in width as they at most double in number.  Only the encoding
triplets' (home, travel[, probe]) rows after S5 are held one per
triplet, and the groups' joined rows after S7 one per group: at most six
qubits each, so those phases run on their whole stacks.

A session holds one or more trials of one shared ``ProtocolConfig``: a
trial is a seed and a message, given as arrays beside the config.
``Session(config)`` is the one-trial case, with the config's own seed
and message; a sweep cell runs its trials as one session, or as a few
of at most ``SESSION_ROWS`` triplets each (``attacks.estimate_detection``).
The trial is the outer axis of every stack: triplet n of trial k is row
k*T + n - 1 of the prepared index (T triplets a trial), and the later
stacks keep the trials in order, so a phase is still one kernel call per
party over every trial's rows.  A trial that aborts in S4 leaves S5-S9
by a mask.  The phases store their outcomes in per-trial arrays of
positions in ``BASES``, ``BELL_OUTCOMES`` and ``EncodingOp``.  A trial's
transcript names them: text written straight from those arrays, built
only when its ``SessionResult`` is asked for, so a sweep builds none; its
records are parsed from the text only if something reads them.

Randomness: every trial draws from its own master seed through a named
substream per party (ALICE, BOB, CTRL1..k, then EVE, spawn keys 0..),
so changing one party's behavior never shifts another party's draws,
and a trial draws the same numbers alone or stacked with others.  The
substreams are exactly numpy's ``SeedSequence`` spawn streams, each a
PCG64 as ``default_rng`` seeds it.  A session holds them all as one
``streams.Streams``, a row per (party, trial), and each phase draws
every party's numbers for every trial in one call, by jumping each
stream ahead rather than stepping it; the tests pin every draw and
every stream's state after each phase against numpy's ``Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from numbers import Real
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .bases import EncodingOp, default_decode_table
from .states import (
    BASES,
    BELL_OUTCOMES,
    Gate,
    MeasurementBasis,
    QubitId,
    StateVector,
    _sample,
    apply_gate,
    make_state,
    measure_bell,
    measure_branches,
    measure_qubit,  # no caller here; perfbench's tracer test patches it in this module
    take_rows,
    tensor,
)
from .streams import Streams, seed_state
from .transcript import TranscriptRecord, number_lines, parse_transcript

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import AttackModel

ALICE = "ALICE"
BOB = "BOB"
EVE = "EVE"

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
# A sweep session's row budget: at most this many triplets over all its
# trials, or one trial; its memory grows with triplet rows, not register width.
SESSION_ROWS = 1 << 14

_DIAGONAL = BASES.index(MeasurementBasis.DIAGONAL)
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
    along its first axis, for one triplet or for each of a row of them;
    ``bases`` is one position in BASES or one per triplet."""
    bits = np.asarray(bits)
    diagonal = np.asarray(bases) == _DIAGONAL
    return np.where(diagonal, triplet_parity(bits) == 0, (bits == bits[0]).all(axis=0))


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


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete description of one session; validated on construction."""

    triplet_count: int
    message_bits: str
    party_count: int = 3
    check_fraction: float = 0.5
    attack: "AttackModel | None" = None
    seed: int = 0
    sender: str = BOB
    receiver: str = ALICE

    def __post_init__(self) -> None:
        counts = (("triplet count", self.triplet_count), ("party count", self.party_count))
        for name, value in counts:
            if not isinstance(value, (int, np.integer)):
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
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {self.seed!r}")
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


def untapped(qubit: QubitId, register: StateVector, streams: Streams, rows, count: int) -> tuple:
    """An untouched channel's tap (``attacks.AttackModel``): every triplet holds ``register``."""
    return register, np.zeros(len(rows) * count, np.intp), np.zeros((2, 0), np.intp)


def _labels(position: int, roles: Sequence[str]) -> tuple[QubitId, ...]:
    return tuple(QubitId(position, role) for role in roles)


def _pair_triplets(groups: np.ndarray) -> np.ndarray:
    """The triplets 2g-1, 2g of each group g, in order along the last axis."""
    return (2 * groups[..., None] + np.array([-1, 0])).reshape(*groups.shape[:-1], -1)


def _bit_string(bits: np.ndarray) -> str:
    return (bits + ord("0")).tobytes().decode()


def _seed_array(seeds) -> np.ndarray:
    """``seeds`` as uint64; a ConfigError unless a 1-D sequence of integers
    that fit.  A uint64 array passes on its dtype alone."""
    if not isinstance(seeds, np.ndarray):
        seeds = np.asarray(seeds, object)  # Python ints, not floats, past 2**63
    if seeds.ndim != 1 or seeds.dtype != np.uint64 and not (
        (seeds.dtype.kind in "biu" or all(isinstance(s, (int, np.integer)) for s in seeds))
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

        # Phase stacks (see the module docstring): triplet n of trial k holds
        # register _index[k*T + n - 1] of _prepared; _taken marks it taken.
        self._prepared: StateVector | None = None
        self._index = np.zeros(0, np.intp)
        self._taken = np.zeros(len(seeds) * config.triplet_count, bool)
        self._encoding: StateVector | None = None
        self._pairs: StateVector | None = None

        # Outcomes, as positions: one row per trial, or from S5 on per trial
        # that passed the check (_live); the tap's and the check's bases and
        # outcomes are flat, one per photon, and the operations and Bell
        # outcomes one per encoding group of those trials.
        trials, empty = len(seeds), np.zeros(0, np.intp)
        self._tap_bases = self._tap_bits = empty  # if the tap measured them in transit
        self.checking_groups = np.zeros((trials, 0), np.intp)
        self.encoding_groups = np.zeros((trials, 0), np.intp)
        self._check_bases = self._live = empty
        self._check_bits: dict[str, np.ndarray] = {}
        self.violations = np.zeros(trials, np.intp)
        self.abort_triplet = np.zeros(trials, np.intp)  # 0 where none
        self.completed = np.zeros(trials, bool)
        self._controller_bits: dict[str, np.ndarray] = {}
        self.parities = np.zeros((0, 0), np.intp)
        self._ops = self._sender_bell = self._receiver_bell = self._ancilla_bell = empty
        self.decoded = np.zeros(self.messages.shape, np.uint8)  # zeros if aborted

    # -- register and stream helpers ---------------------------------------

    def _stream_rows(self, parties: Sequence[str], trials: np.ndarray) -> np.ndarray:
        """The stream rows of each of ``parties`` in each of ``trials``, party by party."""
        keys = np.array([self._stream_names.index(party) for party in parties])
        return (keys[:, None] * len(self.seeds) + trials).ravel()

    def _uniforms(self, parties: Sequence[str], count: int, trials: np.ndarray) -> dict:
        """``count`` uniforms from each party's stream in each of ``trials``,
        drawn in one call: each party's, flat."""
        drawn = self._streams.random(count, self._stream_rows(parties, trials))
        return dict(zip(parties, drawn.reshape(len(parties), -1)))

    def _rows(self, triplets: np.ndarray, trials: np.ndarray) -> np.ndarray:
        """Prepared-stack rows of the (trials, n) triplet numbers, flat."""
        return (trials[:, None] * self.config.triplet_count + triplets - 1).ravel()

    def _measure_photons(
        self, rows: np.ndarray, measuring: Sequence[tuple[str, str]],
        bases: np.ndarray, draws: dict[str, np.ndarray],
    ) -> tuple[dict[str, np.ndarray], StateVector]:
        """Read the prepared registers at ``rows`` out: each (party, role)
        of ``measuring`` in turn measures its photon in the row's basis with
        the party's draws.  Returns each party's outcomes and the stack left,
        one row per row of ``rows``.  Each distinct (register, basis) is
        read once, every outcome at once, and so is each distinct branch
        the outcomes leave; only the last party's branches are taken out per
        row.  A register is taken once, so no photon is measured twice."""
        taken = np.count_nonzero(self._taken)
        self._taken[rows] = True
        if np.count_nonzero(self._taken) - taken != len(rows):
            raise InternalError("a photon would be measured twice")
        keys, index = np.unique(self._index[rows] * len(BASES) + bases, return_inverse=True)
        state, bases = take_rows(self._prepared, keys // len(BASES)), keys % len(BASES)
        outcomes = {}
        for party, role in measuring:
            probs, branches = measure_branches(state, QubitId(1, role), bases)
            outcomes[party] = _sample(probs[index], draws[party])
            # the branch each row's outcome leaves, each distinct one once
            kept, index = np.unique(2 * index + outcomes[party], return_inverse=True)
            state, bases = take_rows(branches, kept), bases[kept // 2]
        return outcomes, take_rows(state, index)

    # -- protocol phases ---------------------------------------------------

    def prepare_and_distribute(self) -> None:
        ghz = np.zeros(1 << len(self._roles))
        ghz[0] = ghz[-1] = 1.0
        register = make_state(_labels(1, self._roles), ghz)
        # each trial's triplets take EVE's draws from that trial's stream;
        # no attack is the untouched channel that NoAttack taps
        rows = self._stream_rows([EVE], np.arange(len(self.seeds)))
        tap = getattr(self.config.attack, "tap", untapped)
        self._prepared, self._index, (self._tap_bases, self._tap_bits) = tap(
            QubitId(1, "t"), register, self._streams, rows, self.config.triplet_count
        )

    def select_groups(self) -> None:
        cfg, c = self.config, self.config.checking_group_count
        trials = np.arange(len(self.seeds))
        orders = self._streams.permutation(cfg.group_count, self._stream_rows([cfg.sender], trials))
        # the first checking_group_count groups of each trial's order check;
        # the groups of each kind are listed in increasing order
        self.checking_groups = np.sort(orders[:, :c], axis=1) + 1
        self.encoding_groups = np.sort(orders[:, c:], axis=1) + 1

    def run_check(self) -> bool:
        """Measure every checked triplet of every trial and compare; a trial
        with any violation aborts.  Returns whether any trial passed.

        All checked photons are consumed even after a violation, so the
        per-triplet violation rate is well defined for statistics.
        """
        cfg, trials = self.config, np.arange(len(self.seeds))
        checked = _pair_triplets(self.checking_groups)
        count = cfg.checked_triplets
        sender = self._stream_rows([cfg.sender], trials)
        bases, uniforms = (drawn.ravel() for drawn in self._streams.random_bases(count, sender))
        parties = (cfg.sender, cfg.receiver) + cfg.controllers
        # per triplet: the sender, the receiver, the controllers, then a
        # probe ancilla, which is read out only after the bases are public
        measuring = [(party, self._role_of[party]) for party in parties]
        if QubitId(1, "e") in self._prepared.qubits:
            measuring.append((EVE, "e"))
        draws = self._uniforms([party for party, _ in measuring[1:]], count, trials)
        draws[cfg.sender] = uniforms
        rows = self._rows(checked, trials)
        outcomes, left = self._measure_photons(rows, measuring, bases, draws)
        if left.num_qubits:
            raise InternalError("checked photons were left unmeasured")

        ok = coincidence_ok(bases, np.stack([outcomes[party] for party in parties]))
        failed = ~ok.reshape(len(trials), count)
        self.violations = np.count_nonzero(failed, axis=1)
        self.completed = self.violations == 0
        first = checked[trials, np.argmax(failed, axis=1)]
        self.abort_triplet = np.where(self.completed, 0, first)
        self._live = np.flatnonzero(self.completed)
        self._check_bases = bases
        self._check_bits = {
            party: column.reshape(len(trials), count) for party, column in outcomes.items()
        }
        return len(self._live) > 0

    def controller_round(self) -> None:
        cfg, live = self.config, self._live
        triplets = _pair_triplets(self.encoding_groups[live])
        draws = self._uniforms(cfg.controllers, triplets.shape[1], live)
        rows = self._rows(triplets, live)
        measuring = [(ctrl, self._role_of[ctrl]) for ctrl in cfg.controllers]
        # a Hadamard then a computational measurement: a diagonal read-out
        diagonal = np.full(len(rows), _DIAGONAL)
        # (home, travel[, probe ancilla]) of each encoding triplet, in order
        outcomes, self._encoding = self._measure_photons(rows, measuring, diagonal, draws)
        self._controller_bits = {
            ctrl: column.reshape(triplets.shape) for ctrl, column in outcomes.items()
        }
        self.parities = triplet_parity(np.stack(list(self._controller_bits.values())))

    def encode_and_announce(self) -> None:
        cfg, live = self.config, self._live
        groups = cfg.encoding_group_count
        # each group's two message bits, read as a number, name its operation
        self._ops = self.messages[live].reshape(-1, 2) @ np.array([2, 1])
        draws = self._uniforms([cfg.sender], groups, live)[cfg.sender]
        encoding, self._encoding = self._encoding, None
        roles = [q.role for q in encoding.qubits]
        firsts = take_rows(encoding, slice(0, None, 2))
        seconds = take_rows(encoding, slice(1, None, 2), _labels(2, roles))
        travel_pair = (QubitId(1, "t"), QubitId(2, "t"))
        firsts = apply_gate(firsts, _OP_GATES[self._ops], travel_pair[0])
        # (home 1[, probe 1], home 2[, probe 2]) of each encoding group
        self._sender_bell, self._pairs = measure_bell(tensor(firsts, seconds), travel_pair, draws)

    def receiver_decode(self) -> None:
        cfg, live = self.config, self._live
        groups = cfg.encoding_group_count
        pairs, self._pairs = self._pairs, None
        measuring = [(cfg.receiver, (QubitId(1, "h"), QubitId(2, "h")))]
        if QubitId(1, "e") in pairs.qubits:
            measuring.append((EVE, (QubitId(1, "e"), QubitId(2, "e"))))
        draws = self._uniforms([party for party, _ in measuring], groups, live)
        outcomes = {}
        for party, pair in measuring:
            outcomes[party], pairs = measure_bell(pairs, pair, draws[party])
        if pairs.num_qubits:
            raise InternalError("encoding photons were left unmeasured")

        self._receiver_bell = outcomes[cfg.receiver]
        self._ancilla_bell = outcomes.get(EVE, self._ancilla_bell)
        p1, p2 = self.parities.reshape(-1, 2).T
        ops = default_decode_table().dense[p1, p2, self._sender_bell, self._receiver_bell]
        # an operation's position is its two bits read as a number
        self.decoded[live] = (ops[:, None] >> np.array([1, 0]) & 1).reshape(len(live), -1)

    # -- drivers ----------------------------------------------------------

    def run_trials(self) -> None:
        """Run every phase over every trial; a trial that aborts in S4
        takes no part in S5-S9."""
        self.prepare_and_distribute()
        self.select_groups()
        if self.run_check():
            self.controller_round()
            self.encode_and_announce()
            self.receiver_decode()
        # every prepared register was taken out and measured, except the
        # encoding triplets' of an aborted trial, which stay alive
        taken = np.count_nonzero(self._taken.reshape(len(self.seeds), -1), axis=1)
        expected = np.where(self.completed, self.config.triplet_count, self.config.checked_triplets)
        if not np.array_equal(taken, expected):
            raise InternalError("qubit conservation violated")

    def run(self) -> SessionResult:
        """Run every trial; the result of the first (of a one-trial
        session, its only one)."""
        self.run_trials()
        return self.result(0)

    def result(self, trial: int) -> SessionResult:
        """One trial's result, with its config and transcript text."""
        message = _bit_string(self.messages[trial])
        completed = bool(self.completed[trial])
        decoded = _bit_string(self.decoded[trial]) if completed else None
        return SessionResult(
            config=replace(self.config, seed=int(self.seeds[trial]), message_bits=message),
            completed=completed,
            decoded_bits=decoded,
            match=completed and decoded == message,
            violations=int(self.violations[trial]),
            abort_triplet=None if completed else int(self.abort_triplet[trial]),
            transcript=self._transcript(trial, decoded),
        )

    def _transcript(self, trial: int, decoded: str | None) -> str:
        """The transcript text of one trial, in protocol order, from the
        outcomes the phases stored.  Announcements are authenticated: the
        eavesdropper reads them but cannot alter or suppress them."""
        cfg, count = self.config, self.config.triplet_count
        sender, receiver, controllers = cfg.sender, cfg.receiver, cfg.controllers
        # the names of the positions the phases stored
        basis_names = [basis.value for basis in BASES]
        bell_names = [outcome.value for outcome in BELL_OUTCOMES]
        op_names = [f"bits={op.bits} op={op.name}" for op in EncodingOp]

        sizes = f"triplets={count} parties={cfg.party_count} groups={cfg.group_count}"
        lines = [
            f"S1\t{receiver}\tPREPARE\t{sizes}",
            f"S1\t{receiver}\tSEND\tto={sender} sequence=travel count={count}",
        ]
        if QubitId(1, "e") in self._prepared.qubits:  # a probe coupled, nothing measured
            lines += [f"S1\t{EVE}\tTAP\ttriplet={n} probe=cnot" for n in range(1, count + 1)]
        else:
            rows = slice(trial * count, (trial + 1) * count)
            seen = zip(self._tap_bases[rows].tolist(), self._tap_bits[rows].tolist())
            lines += [
                f"S1\t{EVE}\tTAP\ttriplet={n} basis={basis_names[basis]} outcome={outcome}"
                for n, (basis, outcome) in enumerate(seen, 1)
            ]
        lines += [
            f"S1\t{receiver}\tSEND\tto={ctrl} sequence=control count={count}" for ctrl in controllers
        ]
        lines += [
            f"S2\t{party}\tRECEIPT\tparty={party} count={count}" for party in (sender,) + controllers
        ]

        checking = ",".join(map(str, self.checking_groups[trial].tolist()))
        encoding = self.encoding_groups[trial].tolist()
        selection = f"checking={checking} encoding={','.join(map(str, encoding))}"
        lines.append(f"S3\t{sender}\tGROUP_SELECTION\t{selection}")

        # each checked triplet's announcement, then every other party's reply
        checked = _pair_triplets(self.checking_groups[trial]).tolist()
        bases = self._check_bases[trial * len(checked) : (trial + 1) * len(checked)].tolist()
        checks = [f"triplet={n} basis={basis_names[b]} outcome=" for n, b in zip(checked, bases)]
        bits = {party: column[trial].tolist() for party, column in self._check_bits.items()}
        announced = [f"S4\t{sender}\tCHECK_ANNOUNCE\t{c}{b}" for c, b in zip(checks, bits[sender])]
        replies = [
            [f"S4\t{party}\tCHECK_REPLY\tparty={party} {c}{b}" for c, b in zip(checks, bits[party])]
            for party in (receiver,) + controllers
        ]
        lines += chain.from_iterable(zip(announced, *replies))
        lines += [f"S4\t{EVE}\tANCILLA_MEASURE\t{c}{b}" for c, b in zip(checks, bits.get(EVE, ()))]
        counts = f"checked={len(checked)} violations={self.violations[trial]}"
        if not self.completed[trial]:
            lines.append(f"S4\t{sender}\tCHECK_VERDICT\tverdict=abort {counts}")
            reason = f"reason=check_failed triplet={self.abort_triplet[trial]}"
            lines.append(f"S4\t{sender}\tABORT\t{reason}")
            return number_lines(lines)
        lines.append(f"S4\t{sender}\tCHECK_VERDICT\tverdict=pass {counts}")

        # the trial's place among those that passed, and its groups there
        j = int(np.count_nonzero(self.completed[:trial]))
        groups = slice(j * len(encoding), (j + 1) * len(encoding))
        triplets = _pair_triplets(self.encoding_groups[trial]).tolist()
        controller_bits = {c: column[j].tolist() for c, column in self._controller_bits.items()}
        for ctrl in controllers:
            lines += [
                f"S5\t{ctrl}\tHADAMARD_MEASURE\ttriplet={n} outcome={b}"
                for n, b in zip(triplets, controller_bits[ctrl])
            ]
        for ctrl in controllers:
            listed = ",".join(f"{n}:{b}" for n, b in zip(triplets, controller_bits[ctrl]))
            lines.append(f"S6\t{ctrl}\tCONTROLLER_OUTCOMES\tparty={ctrl} outcomes={listed}")

        sender_bell = [bell_names[k] for k in self._sender_bell[groups].tolist()]
        encoded = [
            f"S7\t{sender}\tENCODE\tgroup={g} {op_names[k]}"
            for g, k in zip(encoding, self._ops[groups].tolist())
        ]
        measured = [
            f"S7\t{sender}\tBELL_MEASURE\tgroup={g} pair=t{2 * g - 1},t{2 * g} outcome={outcome}"
            for g, outcome in zip(encoding, sender_bell)
        ]
        lines += chain.from_iterable(zip(encoded, measured))
        lines += [
            f"S8\t{sender}\tBELL_ANNOUNCE\tgroup={g} outcome={outcome}"
            for g, outcome in zip(encoding, sender_bell)
        ]

        parities = self.parities[j].tolist()
        receiver_bell = [bell_names[k] for k in self._receiver_bell[groups].tolist()]
        measured = [
            f"S9\t{receiver}\tBELL_MEASURE\tgroup={g} pair=h{2 * g - 1},h{2 * g} outcome={outcome}"
            for g, outcome in zip(encoding, receiver_bell)
        ]
        read = zip(encoding, parities[::2], parities[1::2], sender_bell, receiver_bell)
        decodes = [
            f"S9\t{receiver}\tDECODE\tgroup={g} parities={p1}{p2} sender={s} receiver={r} "
            f"bits={decoded[2 * i : 2 * i + 2]}"
            for i, (g, p1, p2, s, r) in enumerate(read)
        ]
        lines += chain.from_iterable(zip(measured, decodes))
        lines += [
            f"S9\t{EVE}\tANCILLA_BELL\tgroup={g} pair=e{2 * g - 1},e{2 * g} outcome={bell_names[k]}"
            for g, k in zip(encoding, self._ancilla_bell[groups].tolist())
        ]
        lines.append(f"S11\t{receiver}\tCOMPLETE\tdecoded={decoded}")
        return number_lines(lines)
