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
    S5   controllers rotate (Hadamard) and measure their control
         photons of the encoding groups
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

Every phase is columnar: the registers it acts on sit in one stack, one
row per triplet (``StateVector`` rows), and each party's operation is one
kernel call over the stack.  The phase stacks are the prepared registers
(S1; one shared GHZ row until a tap sets the triplets apart), the
encoding triplets' (home, travel[, probe]) rows after S5, and the
groups' joined rows after S7.  Rows are processed in blocks of at most
AMPLITUDE_BUDGET amplitudes, so no stack outgrows a few registers of the
widest kind.

A session holds one or more trials: runs that share the triplet count,
party count, check fraction, attack and roles, and differ only in seed
and message.  ``Session(config)`` is the one-trial case; a sweep cell
runs its trials as one session (``attacks.estimate_detection``).  The
trial is the outer axis of every stack: triplet n of trial k is row
k*T + n - 1 of the prepared stack (T triplets a trial), and the later
stacks keep the trials in order, so a phase is still one kernel call per
party over every trial's rows.  A trial that aborts in S4 leaves S5-S9
by a mask.  The phases store their outcomes in per-trial arrays; a
trial's transcript is built from them only when its ``SessionResult`` is
asked for, so a sweep builds no records.

Randomness: every trial draws from its own master seed through a named
substream per party (ALICE, BOB, CTRL1..k, then EVE, spawn keys 0..),
so changing one party's behavior never shifts another party's draws,
and a trial draws the same numbers alone or stacked with others.  A
party draws a phase's uniforms at once with ``rng.random(n)``, the same
doubles as n scalar draws; a stream that interleaves basis choices and
uniforms is drawn in a scalar loop first (``draw_random_bases``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .bases import DecodeKey, EncodingOp, default_decode_table
from .states import (
    BellOutcome,
    Gate,
    MeasurementBasis,
    QubitId,
    StateVector,
    apply_gate,
    join_rows,
    make_state,
    measure_bell,
    measure_qubit,
    take_rows,
    tensor,
)
from .transcript import TranscriptRecord

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import AttackModel

ALICE = "ALICE"
BOB = "BOB"
EVE = "EVE"

MAX_SEED = 2**64 - 1
# Every triplet is a dense register of 2**P amplitudes (2**(P+1) with a
# probe ancilla); P=12 is 64 KiB a triplet.
MAX_PARTIES = 12
# The tapped registers and the transcript grow linearly with the triplet
# count; at the party ceiling, 4096 tapped triplets are 256 MiB of
# amplitudes, or 512 MiB with a probe ancilla, held once.
MAX_TRIPLETS = 4096
AMPLITUDE_BUDGET = 1 << 16  # per block of phase-stack rows; 16 P=12 registers


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


def coincidence_ok(basis: MeasurementBasis | Sequence[MeasurementBasis], bits) -> np.ndarray:
    """Checking rule: computational outcomes must all agree, diagonal
    outcomes must have even parity.  ``bits`` holds one outcome per party
    along its first axis, for one triplet or for each of a row of them;
    ``basis`` is one basis or one per triplet."""
    bits = np.asarray(bits)
    if isinstance(basis, MeasurementBasis):
        diagonal = basis is MeasurementBasis.DIAGONAL
    else:
        diagonal = np.array([b is MeasurementBasis.DIAGONAL for b in basis])
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
        # capacity_bits calls session_capacity, which rejects a bad triplet
        # count or check fraction
        capacity = self.capacity_bits
        if not (3 <= self.party_count <= MAX_PARTIES):
            raise ConfigError(
                f"party count must be between 3 and {MAX_PARTIES}, got {self.party_count}"
            )
        if not (0 <= self.seed <= MAX_SEED):
            raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")
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
    def encoding_group_count(self) -> int:
        return self.capacity_bits // 2

    @cached_property
    def capacity_bits(self) -> int:
        return session_capacity(self.triplet_count, self.check_fraction)

    @property
    def shape(self) -> tuple:
        """Every field but the seed and the message: what the trials of
        one session share."""
        return (
            self.triplet_count, self.party_count, self.check_fraction,
            self.attack, self.sender, self.receiver,
        )


@dataclass(frozen=True)
class SessionResult:
    config: ProtocolConfig = field(repr=False)
    completed: bool
    decoded_bits: str | None
    match: bool
    checked_triplets: int
    violations: int
    abort_triplet: int | None
    records: tuple[TranscriptRecord, ...] = field(repr=False)


def draw_random_bases(
    rng: np.random.Generator, count: int
) -> tuple[list[MeasurementBasis], np.ndarray]:
    """For each of ``count`` photons, a uniformly random basis and then the
    uniform draw that measures it.  The two kinds of draw interleave on
    one stream, so they are taken in a scalar loop."""
    draws = [(int(rng.integers(0, 2)), rng.random()) for _ in range(count)]
    bases = [MeasurementBasis.DIAGONAL if b else MeasurementBasis.COMPUTATIONAL for b, _ in draws]
    return bases, np.array([u for _, u in draws], dtype=float)


def _labels(position: int, roles: Sequence[str]) -> tuple[QubitId, ...]:
    return tuple(QubitId(position, role) for role in roles)


def _per_block(count: int, width: int, step: Callable[[slice], StateVector]) -> StateVector:
    """Run ``step`` on consecutive blocks of range(count), each small enough
    that a stack of ``width``-qubit registers stays within AMPLITUDE_BUDGET
    amplitudes (one row at least), and stack the rows it returns, one per
    row of the block, as each block finishes."""
    size = max(1, AMPLITUDE_BUDGET >> width)
    return join_rows((step(slice(i, min(i + size, count))) for i in range(0, count, size)), count)


def _pair_triplets(groups: np.ndarray) -> np.ndarray:
    """The triplets 2g-1, 2g of each group g, in order along the last axis."""
    return (2 * groups[..., None] + np.array([-1, 0])).reshape(*groups.shape[:-1], -1)


class Session:
    """Drives one protocol run per trial, all trials at once; all state
    lives on the instance."""

    def __init__(self, *configs: ProtocolConfig) -> None:
        if not configs or any(c.shape != configs[0].shape for c in configs):
            raise ConfigError("a session runs one or more trials differing only in seed and message")
        self.configs = configs
        self.config = config = configs[0]  # the shape every trial shares
        stream_names = config.roster + (EVE,)
        # each party's stream in every trial
        self._rngs = {
            name: [
                np.random.default_rng(np.random.SeedSequence(entropy=c.seed, spawn_key=(i,)))
                for c in configs
            ]
            for i, name in enumerate(stream_names)
        }

        # the photon roles of every triplet, and the one each party holds
        self._roles = ("h", "t") + tuple(f"c{j}" for j in range(1, config.party_count - 1))
        holders = (config.receiver, config.sender) + config.controllers
        self._role_of = dict(zip(holders, self._roles))

        # Phase stacks (see the module docstring).  Row _row_of[k*T + n - 1]
        # of _prepared holds triplet n of trial k; _taken marks the rows
        # taken out of it.
        rows = len(configs) * config.triplet_count
        self._prepared: StateVector | None = None
        self._row_of = np.zeros(rows, np.intp)
        self._taken = np.zeros(rows, bool)
        self._encoding: StateVector | None = None
        self._pairs: StateVector | None = None

        # Outcomes: one row per trial, or from S5 on per trial that passed
        # the check (_live); the Bell outcomes and the decoded chunks are
        # flat lists, one per encoding group of those trials.
        trials = len(configs)
        self._tap_details: list[str] = []  # one per prepared row, if tapped
        self.checking_groups = np.zeros((trials, 0), np.intp)
        self.encoding_groups = np.zeros((trials, 0), np.intp)
        self.checked_triplets = 0  # in each trial
        self._checked = np.zeros((trials, 0), np.intp)
        self._check_bases: list[MeasurementBasis] = []
        self._check_bits: dict[str, np.ndarray] = {}
        self.violations = np.zeros(trials, np.intp)
        self.abort_triplet = np.zeros(trials, np.intp)  # 0 where none
        self.completed = np.zeros(trials, bool)
        self._live = np.zeros(0, np.intp)
        self._controller_bits: dict[str, np.ndarray] = {}
        self.parities = np.zeros((0, 0), np.intp)
        self._ops: list[EncodingOp] = []
        self._sender_bell: list[BellOutcome] = []
        self._receiver_bell: list[BellOutcome] = []
        self._ancilla_bell: list[BellOutcome] = []
        self._decoded: list[str] = []
        self.decoded_bits: list[str | None] = [None] * trials

    # -- register and stream helpers ---------------------------------------

    def _take(self, rows: np.ndarray) -> StateVector:
        """Take the prepared registers at ``rows`` out for measurement, one
        per row.  Each is taken once, so no photon is measured twice."""
        taken = np.count_nonzero(self._taken)
        self._taken[rows] = True
        if np.count_nonzero(self._taken) - taken != len(rows):
            raise InternalError("a photon would be measured twice")
        return take_rows(self._prepared, self._row_of[rows])

    def _uniforms(self, party: str, count: int, trials: Sequence[int]) -> np.ndarray:
        """``count`` uniforms from the party's stream in each of ``trials``."""
        streams = self._rngs[party]
        return np.concatenate([streams[k].random(count) for k in trials])

    def _rows(self, triplets: np.ndarray, trials: np.ndarray) -> np.ndarray:
        """Prepared-stack rows of the (trials, n) triplet numbers, flat."""
        return (trials[:, None] * self.config.triplet_count + triplets - 1).ravel()

    # -- protocol phases ---------------------------------------------------

    def prepare_and_distribute(self) -> None:
        cfg, count = self.config, self.config.triplet_count
        ghz = np.zeros(1 << len(self._roles))
        ghz[0] = ghz[-1] = 1.0
        # one row stands for every triplet until a tap sets them apart
        self._prepared = make_state(_labels(1, self._roles), ghz)
        if cfg.attack is None:
            return
        eve = self._rngs[EVE]

        def tap(block: slice) -> StateVector:
            sent = take_rows(self._prepared, self._row_of[block])
            # the block's rows run over one or more trials; each trial's
            # rows draw from that trial's stream
            trials = range(block.start // count, (block.stop - 1) // count + 1)
            streams = [
                (eve[k], min(block.stop, (k + 1) * count) - max(block.start, k * count))
                for k in trials
            ]
            state, details = cfg.attack.tap(QubitId(1, "t"), sent, streams)
            self._tap_details.extend(details or ())
            return state

        # a tap may add a probe ancilla to each register
        rows = len(self._row_of)
        self._prepared = _per_block(rows, self._prepared.num_qubits + 1, tap)
        self._row_of = np.arange(rows)

    def select_groups(self) -> None:
        cfg, trials = self.config, len(self.configs)
        orders = np.array([rng.permutation(cfg.group_count) for rng in self._rngs[cfg.sender]])
        # the first checking_group_count groups of each trial's order check;
        # the groups of each kind are listed in increasing order
        checking = np.zeros(orders.shape, bool)
        checking[np.arange(trials)[:, None], orders[:, : cfg.checking_group_count]] = True
        self.checking_groups = np.nonzero(checking)[1].reshape(trials, -1) + 1
        self.encoding_groups = np.nonzero(~checking)[1].reshape(trials, -1) + 1

    def run_check(self) -> bool:
        """Measure every checked triplet of every trial and compare; a trial
        with any violation aborts.  Returns whether any trial passed.

        All checked photons are consumed even after a violation, so the
        per-triplet violation rate is well defined for statistics.
        """
        cfg, trials = self.config, np.arange(len(self.configs))
        checked = _pair_triplets(self.checking_groups)
        count = self.checked_triplets = checked.shape[1]
        drawn = [draw_random_bases(rng, count) for rng in self._rngs[cfg.sender]]
        bases = [basis for got, _ in drawn for basis in got]
        parties = (cfg.sender, cfg.receiver) + cfg.controllers
        # per triplet: the sender, the receiver, the controllers, then a
        # probe ancilla, which is read out only after the bases are public
        measuring = [(party, self._role_of[party]) for party in parties]
        if QubitId(1, "e") in self._prepared.qubits:
            measuring.append((EVE, "e"))
        draws = {party: self._uniforms(party, count, trials) for party, _ in measuring[1:]}
        draws[cfg.sender] = np.concatenate([uniforms for _, uniforms in drawn])
        rows = self._rows(checked, trials)
        outcomes = {party: np.empty(len(rows), np.intp) for party, _ in measuring}

        def measure(block: slice) -> StateVector:
            state = self._take(rows[block])
            for party, role in measuring:
                outcomes[party][block], state = measure_qubit(
                    state, QubitId(1, role), bases[block], draws[party][block]
                )
            return state

        if _per_block(len(rows), self._prepared.num_qubits, measure).num_qubits:
            raise InternalError("checked photons were left unmeasured")

        ok = coincidence_ok(bases, np.stack([outcomes[party] for party in parties]))
        failed = ~ok.reshape(len(trials), count)
        self.violations = np.count_nonzero(failed, axis=1)
        self.completed = self.violations == 0
        first = checked[trials, np.argmax(failed, axis=1)]
        self.abort_triplet = np.where(self.completed, 0, first)
        self._live = np.flatnonzero(self.completed)
        self._checked, self._check_bases = checked, bases
        self._check_bits = {
            party: column.reshape(len(trials), count) for party, column in outcomes.items()
        }
        return len(self._live) > 0

    def controller_round(self) -> None:
        cfg, live = self.config, self._live
        triplets = _pair_triplets(self.encoding_groups[live])
        draws = {ctrl: self._uniforms(ctrl, triplets.shape[1], live) for ctrl in cfg.controllers}
        rows = self._rows(triplets, live)
        outcomes = {ctrl: np.empty(len(rows), np.intp) for ctrl in cfg.controllers}

        def rotate_and_measure(block: slice) -> StateVector:
            state = self._take(rows[block])
            for ctrl in cfg.controllers:
                qubit = QubitId(1, self._role_of[ctrl])
                state = apply_gate(state, Gate.HADAMARD, qubit)
                outcomes[ctrl][block], state = measure_qubit(
                    state, qubit, MeasurementBasis.COMPUTATIONAL, draws[ctrl][block]
                )
            return state

        # (home, travel[, probe ancilla]) of each encoding triplet, in order
        self._encoding = _per_block(len(rows), self._prepared.num_qubits, rotate_and_measure)
        self._controller_bits = {
            ctrl: column.reshape(triplets.shape) for ctrl, column in outcomes.items()
        }
        self.parities = triplet_parity(np.stack(list(self._controller_bits.values())))

    def encode_and_announce(self) -> None:
        cfg, live = self.config, self._live
        groups = cfg.encoding_group_count
        self._ops = [
            EncodingOp.from_bits(self.configs[k].message_bits[2 * i : 2 * i + 2])
            for k in live.tolist()
            for i in range(groups)
        ]
        draws = self._uniforms(cfg.sender, groups, live)
        encoding, self._encoding = self._encoding, None
        second_labels = _labels(2, [q.role for q in encoding.qubits])
        travel_pair = (QubitId(1, "t"), QubitId(2, "t"))
        outcomes = self._sender_bell = []

        def encode_and_measure(block: slice) -> StateVector:
            rows = range(2 * block.start, 2 * block.stop)
            firsts = take_rows(encoding, slice(rows.start, rows.stop, 2))
            seconds = take_rows(encoding, slice(rows.start + 1, rows.stop, 2), second_labels)
            firsts = apply_gate(firsts, [op.gate for op in self._ops[block]], travel_pair[0])
            got, state = measure_bell(tensor(firsts, seconds), travel_pair, draws[block])
            outcomes.extend(got)
            return state

        # (home 1[, probe 1], home 2[, probe 2]) of each encoding group
        self._pairs = _per_block(len(self._ops), 2 * encoding.num_qubits, encode_and_measure)

    def receiver_decode(self) -> None:
        cfg, live = self.config, self._live
        groups = cfg.encoding_group_count
        pairs, self._pairs = self._pairs, None
        measuring = [(cfg.receiver, (QubitId(1, "h"), QubitId(2, "h")))]
        if QubitId(1, "e") in pairs.qubits:
            measuring.append((EVE, (QubitId(1, "e"), QubitId(2, "e"))))
        draws = {party: self._uniforms(party, groups, live) for party, _ in measuring}
        outcomes: dict[str, list[BellOutcome]] = {party: [] for party, _ in measuring}

        def measure(block: slice) -> StateVector:
            state = take_rows(pairs, block)
            for party, pair in measuring:
                got, state = measure_bell(state, pair, draws[party][block])
                outcomes[party].extend(got)
            return state

        if _per_block(len(self._ops), pairs.num_qubits, measure).num_qubits:
            raise InternalError("encoding photons were left unmeasured")

        self._receiver_bell = outcomes[cfg.receiver]
        self._ancilla_bell = outcomes.get(EVE, [])
        table = default_decode_table()
        keys = [
            DecodeKey(p1, p2, sender, receiver)
            for (p1, p2), sender, receiver in zip(
                self.parities.reshape(-1, 2).tolist(), self._sender_bell, self._receiver_bell
            )
        ]
        try:
            self._decoded = [table.decode(key) for key in keys]
        except KeyError as exc:  # the table is total; this cannot happen
            raise InternalError(f"no decode entry: {exc}") from exc
        for j, k in enumerate(live.tolist()):
            self.decoded_bits[k] = "".join(self._decoded[j * groups : (j + 1) * groups])

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
        taken = np.count_nonzero(self._taken.reshape(len(self.configs), -1), axis=1)
        expected = np.where(self.completed, self.config.triplet_count, self.checked_triplets)
        if not np.array_equal(taken, expected):
            raise InternalError("qubit conservation violated")

    def run(self) -> SessionResult:
        """Run every trial; the result of the first (of a one-trial
        session, its only one)."""
        self.run_trials()
        return self.result(0)

    def result(self, trial: int) -> SessionResult:
        """One trial's result, with its transcript."""
        cfg = self.configs[trial]
        completed = bool(self.completed[trial])
        decoded = self.decoded_bits[trial]
        return SessionResult(
            config=cfg,
            completed=completed,
            decoded_bits=decoded,
            match=completed and decoded == cfg.message_bits,
            checked_triplets=self.checked_triplets,
            violations=int(self.violations[trial]),
            abort_triplet=None if completed else int(self.abort_triplet[trial]),
            records=self._records(trial),
        )

    def _records(self, trial: int) -> tuple[TranscriptRecord, ...]:
        """The transcript of one trial, in protocol order, from the outcomes
        the phases stored.  Announcements are authenticated: the
        eavesdropper reads them but cannot alter or suppress them."""
        cfg, count = self.configs[trial], self.config.triplet_count
        records: list[TranscriptRecord] = []

        def emit(phase: str, actor: str, action: str, detail: str) -> None:
            records.append(TranscriptRecord(len(records) + 1, phase, actor, action, detail))

        sizes = f"triplets={count} parties={cfg.party_count} groups={cfg.group_count}"
        emit("S1", cfg.receiver, "PREPARE", sizes)
        emit("S1", cfg.receiver, "SEND", f"to={cfg.sender} sequence=travel count={count}")
        taps = self._tap_details[trial * count : (trial + 1) * count]
        for n, detail in enumerate(taps, 1):
            emit("S1", EVE, "TAP", f"triplet={n} {detail}")
        for ctrl in cfg.controllers:
            emit("S1", cfg.receiver, "SEND", f"to={ctrl} sequence=control count={count}")
        for party in (cfg.sender,) + cfg.controllers:
            emit("S2", party, "RECEIPT", f"party={party} count={count}")

        checking = self.checking_groups[trial].tolist()
        encoding = self.encoding_groups[trial].tolist()
        selection = f"checking={','.join(map(str, checking))} encoding={','.join(map(str, encoding))}"
        emit("S3", cfg.sender, "GROUP_SELECTION", selection)

        checked = self._checked[trial].tolist()
        bases = self._check_bases[trial * len(checked) : (trial + 1) * len(checked)]
        bits = {party: column[trial].tolist() for party, column in self._check_bits.items()}
        parties = (cfg.sender, cfg.receiver) + cfg.controllers
        for i, (n, basis) in enumerate(zip(checked, bases)):
            label, outcome = basis.value, bits[cfg.sender][i]
            emit("S4", cfg.sender, "CHECK_ANNOUNCE", f"triplet={n} basis={label} outcome={outcome}")
            for party in parties[1:]:
                detail = f"party={party} triplet={n} basis={label} outcome={bits[party][i]}"
                emit("S4", party, "CHECK_REPLY", detail)
        for n, basis, outcome in zip(checked, bases, bits.get(EVE, ())):
            emit("S4", EVE, "ANCILLA_MEASURE", f"triplet={n} basis={basis.value} outcome={outcome}")
        counts = f"checked={len(checked)} violations={self.violations[trial]}"
        if not self.completed[trial]:
            emit("S4", cfg.sender, "CHECK_VERDICT", f"verdict=abort {counts}")
            detail = f"reason=check_failed triplet={self.abort_triplet[trial]}"
            emit("S4", cfg.sender, "ABORT", detail)
            return tuple(records)
        emit("S4", cfg.sender, "CHECK_VERDICT", f"verdict=pass {counts}")

        # the trial's place among those that passed, and its groups there
        j = int(np.count_nonzero(self.completed[:trial]))
        groups = slice(j * len(encoding), (j + 1) * len(encoding))
        triplets = _pair_triplets(np.array(encoding)).tolist()
        controller_bits = {ctrl: column[j].tolist() for ctrl, column in self._controller_bits.items()}
        for ctrl in cfg.controllers:
            for n, outcome in zip(triplets, controller_bits[ctrl]):
                emit("S5", ctrl, "HADAMARD_MEASURE", f"triplet={n} outcome={outcome}")
        for ctrl in cfg.controllers:
            listed = ",".join(f"{n}:{outcome}" for n, outcome in zip(triplets, controller_bits[ctrl]))
            emit("S6", ctrl, "CONTROLLER_OUTCOMES", f"party={ctrl} outcomes={listed}")

        sender_bell = self._sender_bell[groups]
        for g, op, outcome in zip(encoding, self._ops[groups], sender_bell):
            emit("S7", cfg.sender, "ENCODE", f"group={g} bits={op.bits} op={op.name}")
            detail = f"group={g} pair=t{2 * g - 1},t{2 * g} outcome={outcome.value}"
            emit("S7", cfg.sender, "BELL_MEASURE", detail)
        for g, outcome in zip(encoding, sender_bell):
            emit("S8", cfg.sender, "BELL_ANNOUNCE", f"group={g} outcome={outcome.value}")

        parities = self.parities[j].tolist()
        decoded = zip(encoding, sender_bell, self._receiver_bell[groups], self._decoded[groups])
        for i, (g, sender, receiver, chunk) in enumerate(decoded):
            detail = f"group={g} pair=h{2 * g - 1},h{2 * g} outcome={receiver.value}"
            emit("S9", cfg.receiver, "BELL_MEASURE", detail)
            bells = f"sender={sender.value} receiver={receiver.value}"
            detail = f"group={g} parities={parities[2 * i]}{parities[2 * i + 1]} {bells} bits={chunk}"
            emit("S9", cfg.receiver, "DECODE", detail)
        for g, outcome in zip(encoding, self._ancilla_bell[groups]):
            detail = f"group={g} pair=e{2 * g - 1},e{2 * g} outcome={outcome.value}"
            emit("S9", EVE, "ANCILLA_BELL", detail)
        emit("S11", cfg.receiver, "COMPLETE", f"decoded={self.decoded_bits[trial]}")
        return tuple(records)
