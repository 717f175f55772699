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
widest kind.  Records are emitted after each phase's array work, in
protocol order.

Randomness: every draw comes from one master seed through a named
substream per party (ALICE, BOB, CTRL1..k, then EVE, spawn keys 0..),
so changing one party's behavior never shifts another party's draws.
A party draws a phase's uniforms at once with ``rng.random(n)``, the
same doubles as n scalar draws; a stream that interleaves basis choices
and uniforms is drawn in a scalar loop first (``draw_random_bases``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
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
from .transcript import TranscriptRecord, format_transcript

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
# count; at the party ceiling, 4096 triplets are 256 MiB of amplitudes.
MAX_TRIPLETS = 4096
AMPLITUDE_BUDGET = 1 << 16  # per block of phase-stack rows; 16 P=12 registers


class ConfigError(ValueError):
    """Rejected configuration; maps to a usage error at the CLI."""


class InternalError(RuntimeError):
    """A simulator invariant broke; maps to exit code 4 at the CLI."""


class Phase(Enum):
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"
    S5 = "S5"
    S6 = "S6"
    S7 = "S7"
    S8 = "S8"
    S9 = "S9"
    S11 = "S11"
    ABORTED = "ABORT"

    @property
    def order(self) -> int:
        return 99 if self is Phase.ABORTED else int(self.value[1:])


def roster_names(party_count: int) -> tuple[str, ...]:
    """Fixed actor names: ALICE, BOB, then CTRL1..CTRL(party_count - 2)."""
    return (ALICE, BOB) + tuple(f"CTRL{j}" for j in range(1, party_count - 1))


def triplet_parity(controller_bits: Sequence[int]) -> int:
    """XOR of all controller outcomes for one triplet (or of any bits)."""
    parity = 0
    for b in controller_bits:
        parity ^= b
    return parity


def coincidence_ok(basis: MeasurementBasis, bits: Sequence[int]) -> bool:
    """Checking rule: computational outcomes must all agree, diagonal
    outcomes must have even parity."""
    if basis is MeasurementBasis.COMPUTATIONAL:
        return len(set(bits)) == 1
    return triplet_parity(bits) == 0


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


@dataclass
class GroupState:
    """Bookkeeping for one pair of consecutive triplets."""

    index: int
    triplets: tuple[int, int]
    kind: str | None = None  # "checking" | "encoding"
    parities: tuple[int, int] | None = None
    sender_bell: BellOutcome | None = None
    receiver_bell: BellOutcome | None = None
    encoded_bits: str | None = None
    decoded_bits: str | None = None


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

    @property
    def transcript_text(self) -> str:
        return format_transcript(self.records)


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
    amplitudes (one row at least), and stack the rows it returns."""
    size = max(1, AMPLITUDE_BUDGET >> width)
    return join_rows([step(slice(i, min(i + size, count))) for i in range(0, count, size)])


class Session:
    """Drives one protocol run; all state lives on the instance."""

    def __init__(self, config: ProtocolConfig) -> None:
        self.config = config
        stream_names = config.roster + (EVE,)
        self._rngs = {
            name: np.random.default_rng(
                np.random.SeedSequence(entropy=config.seed, spawn_key=(i,))
            )
            for i, name in enumerate(stream_names)
        }
        self.records: list[TranscriptRecord] = []
        self.phase = Phase.S1
        self.groups: list[GroupState] = []
        self.checking_groups: list[GroupState] = []
        self.encoding_groups: list[GroupState] = []
        self.checked_triplets = 0
        self.violations = 0
        self.abort_triplet: int | None = None
        self.decoded_bits: str | None = None

        # the photon roles of every triplet, and the one each party holds
        self._roles = ("h", "t") + tuple(f"c{j}" for j in range(1, config.party_count - 1))
        holders = (config.receiver, config.sender) + config.controllers
        self._role_of = dict(zip(holders, self._roles))

        # Phase stacks (see the module docstring).  Row _row_of[n - 1] of
        # _prepared holds triplet n; _taken marks the rows taken out of it.
        self._prepared: StateVector | None = None
        self._row_of = np.zeros(config.triplet_count, np.intp)
        self._taken = np.zeros(config.triplet_count, bool)
        self._encoding: StateVector | None = None
        self._pairs: StateVector | None = None

    # -- transcript and register helpers ---------------------------------

    def _advance(self, phase: Phase) -> None:
        if phase.order < self.phase.order:
            raise InternalError(f"phase regression {self.phase.value} -> {phase.value}")
        if phase is Phase.ABORTED and self.phase is not Phase.S4:
            raise InternalError("sessions abort only from the checking phase")
        self.phase = phase

    def _emit(self, actor: str, action: str, detail: str) -> None:
        # Announcements are authenticated: the eavesdropper reads them but
        # cannot alter or suppress them.
        self.records.append(
            TranscriptRecord(len(self.records) + 1, self.phase.value, actor, action, detail)
        )

    def _take(self, triplets: Sequence[int]) -> StateVector:
        """Take the prepared registers of ``triplets`` out for measurement,
        one per row.  Each is taken once, so no photon is measured twice."""
        index = np.asarray(triplets, dtype=np.intp) - 1
        taken = np.count_nonzero(self._taken)
        self._taken[index] = True
        if np.count_nonzero(self._taken) - taken != len(index):
            raise InternalError(f"a photon of triplets {list(triplets)} would be measured twice")
        return take_rows(self._prepared, self._row_of[index])

    # -- protocol phases ---------------------------------------------------

    def prepare_and_distribute(self) -> None:
        cfg, emit, count = self.config, self._emit, self.config.triplet_count
        sizes = f"triplets={count} parties={cfg.party_count} groups={cfg.group_count}"
        emit(cfg.receiver, "PREPARE", sizes)
        ghz = np.zeros(1 << len(self._roles))
        ghz[0] = ghz[-1] = 1.0
        # one row stands for every triplet until a tap sets them apart
        self._prepared = make_state(_labels(1, self._roles), ghz)

        emit(cfg.receiver, "SEND", f"to={cfg.sender} sequence=travel count={count}")
        if cfg.attack is not None:

            def tap(block: slice) -> StateVector:
                first = block.start + 1
                sent = take_rows(self._prepared, self._row_of[block], _labels(first, self._roles))
                state, details = cfg.attack.tap(QubitId(first, "t"), sent, self._rngs[EVE])
                for detail in details or ():
                    emit(EVE, "TAP", detail)
                return state

            # the first block, and so the stack, is labelled as triplet 1;
            # a tap may add a probe ancilla to each register
            self._prepared = _per_block(count, self._prepared.num_qubits + 1, tap)
            self._row_of = np.arange(count)
        for ctrl in cfg.controllers:
            emit(cfg.receiver, "SEND", f"to={ctrl} sequence=control count={count}")

        self._advance(Phase.S2)
        for party in (cfg.sender,) + cfg.controllers:
            emit(party, "RECEIPT", f"party={party} count={count}")
        self.groups = [
            GroupState(index=k, triplets=(2 * k - 1, 2 * k))
            for k in range(1, cfg.group_count + 1)
        ]

    def select_groups(self) -> None:
        cfg = self.config
        self._advance(Phase.S3)
        order = self._rngs[cfg.sender].permutation(cfg.group_count) + 1
        checking = sorted(int(g) for g in order[: cfg.checking_group_count])
        encoding = sorted(int(g) for g in order[cfg.checking_group_count :])
        self.checking_groups = [self.groups[k - 1] for k in checking]
        self.encoding_groups = [self.groups[k - 1] for k in encoding]
        for group in self.checking_groups:
            group.kind = "checking"
        for group in self.encoding_groups:
            group.kind = "encoding"
        self._emit(
            cfg.sender,
            "GROUP_SELECTION",
            f"checking={','.join(map(str, checking))} encoding={','.join(map(str, encoding))}",
        )

    def run_check(self) -> bool:
        """Measure every checked triplet and compare; abort on any violation.

        All checked photons are consumed even after a violation, so the
        per-triplet violation rate is well defined for statistics.
        """
        cfg, emit = self.config, self._emit
        self._advance(Phase.S4)
        checked = [n for group in self.checking_groups for n in group.triplets]
        bases, sender_draws = draw_random_bases(self._rngs[cfg.sender], len(checked))
        parties = (cfg.sender, cfg.receiver) + cfg.controllers
        # per triplet: the sender, the receiver, the controllers, then a
        # probe ancilla, which is read out only after the bases are public
        measuring = [(party, self._role_of[party]) for party in parties]
        if QubitId(1, "e") in self._prepared.qubits:
            measuring.append((EVE, "e"))
        draws = {party: self._rngs[party].random(len(checked)) for party, _ in measuring[1:]}
        draws[cfg.sender] = sender_draws
        outcomes = {party: np.empty(len(checked), np.intp) for party, _ in measuring}

        def measure(block: slice) -> StateVector:
            state = self._take(checked[block])
            for party, role in measuring:
                outcomes[party][block], state = measure_qubit(
                    state, QubitId(1, role), bases[block], draws[party][block]
                )
            return state

        if _per_block(len(checked), self._prepared.num_qubits, measure).num_qubits:
            raise InternalError("checked photons were left unmeasured")

        bits = {party: column.tolist() for party, column in outcomes.items()}
        for i, (n, basis) in enumerate(zip(checked, bases)):
            label, outcome = basis.value, bits[cfg.sender][i]
            emit(cfg.sender, "CHECK_ANNOUNCE", f"triplet={n} basis={label} outcome={outcome}")
            for party in parties[1:]:
                detail = f"party={party} triplet={n} basis={label} outcome={bits[party][i]}"
                emit(party, "CHECK_REPLY", detail)
            self.checked_triplets += 1
            if not coincidence_ok(basis, [bits[party][i] for party in parties]):
                self.violations += 1
                if self.abort_triplet is None:
                    self.abort_triplet = n
        for n, basis, outcome in zip(checked, bases, bits.get(EVE, ())):
            emit(EVE, "ANCILLA_MEASURE", f"triplet={n} basis={basis.value} outcome={outcome}")

        passed = self.violations == 0
        verdict = "pass" if passed else "abort"
        counts = f"checked={self.checked_triplets} violations={self.violations}"
        emit(cfg.sender, "CHECK_VERDICT", f"verdict={verdict} {counts}")
        if not passed:
            emit(cfg.sender, "ABORT", f"reason=check_failed triplet={self.abort_triplet}")
            self._advance(Phase.ABORTED)
        return passed

    def controller_round(self) -> None:
        cfg, emit = self.config, self._emit
        self._advance(Phase.S5)
        triplets = [n for group in self.encoding_groups for n in group.triplets]
        draws = {ctrl: self._rngs[ctrl].random(len(triplets)) for ctrl in cfg.controllers}
        outcomes = {ctrl: np.empty(len(triplets), np.intp) for ctrl in cfg.controllers}

        def rotate_and_measure(block: slice) -> StateVector:
            state = self._take(triplets[block])
            for ctrl in cfg.controllers:
                qubit = QubitId(1, self._role_of[ctrl])
                state = apply_gate(state, Gate.HADAMARD, qubit)
                outcomes[ctrl][block], state = measure_qubit(
                    state, qubit, MeasurementBasis.COMPUTATIONAL, draws[ctrl][block]
                )
            return state

        # (home, travel[, probe ancilla]) of each encoding triplet, in order
        self._encoding = _per_block(len(triplets), self._prepared.num_qubits, rotate_and_measure)
        bits = {ctrl: column.tolist() for ctrl, column in outcomes.items()}
        for ctrl in cfg.controllers:
            for n, outcome in zip(triplets, bits[ctrl]):
                emit(ctrl, "HADAMARD_MEASURE", f"triplet={n} outcome={outcome}")

        self._advance(Phase.S6)
        for ctrl in cfg.controllers:
            listed = ",".join(f"{n}:{outcome}" for n, outcome in zip(triplets, bits[ctrl]))
            emit(ctrl, "CONTROLLER_OUTCOMES", f"party={ctrl} outcomes={listed}")
        parities = [triplet_parity(column) for column in zip(*bits.values())]
        for i, group in enumerate(self.encoding_groups):
            group.parities = (parities[2 * i], parities[2 * i + 1])

    def encode_and_announce(self) -> None:
        cfg, emit = self.config, self._emit
        self._advance(Phase.S7)
        groups = self.encoding_groups
        chunks = [cfg.message_bits[2 * i : 2 * i + 2] for i in range(len(groups))]
        ops = [EncodingOp.from_bits(chunk) for chunk in chunks]
        draws = self._rngs[cfg.sender].random(len(groups))
        encoding, self._encoding = self._encoding, None
        second_labels = _labels(2, [q.role for q in encoding.qubits])
        travel_pair = (QubitId(1, "t"), QubitId(2, "t"))
        outcomes = []

        def encode_and_measure(block: slice) -> StateVector:
            rows = range(2 * block.start, 2 * block.stop)
            firsts = take_rows(encoding, slice(rows.start, rows.stop, 2))
            seconds = take_rows(encoding, slice(rows.start + 1, rows.stop, 2), second_labels)
            firsts = apply_gate(firsts, [op.gate for op in ops[block]], travel_pair[0])
            got, state = measure_bell(tensor(firsts, seconds), travel_pair, draws[block])
            outcomes.extend(got)
            return state

        # (home 1[, probe 1], home 2[, probe 2]) of each encoding group
        self._pairs = _per_block(len(groups), 2 * encoding.num_qubits, encode_and_measure)
        for group, chunk, op, outcome in zip(groups, chunks, ops, outcomes):
            first, second = group.triplets
            group.encoded_bits, group.sender_bell = chunk, outcome
            emit(cfg.sender, "ENCODE", f"group={group.index} bits={chunk} op={op.name}")
            detail = f"group={group.index} pair=t{first},t{second} outcome={outcome.value}"
            emit(cfg.sender, "BELL_MEASURE", detail)

        self._advance(Phase.S8)
        for group in groups:
            detail = f"group={group.index} outcome={group.sender_bell.value}"
            emit(cfg.sender, "BELL_ANNOUNCE", detail)

    def receiver_decode(self) -> str:
        cfg, emit = self.config, self._emit
        self._advance(Phase.S9)
        table = default_decode_table()
        groups = self.encoding_groups
        pairs, self._pairs = self._pairs, None
        measuring = [(cfg.receiver, (QubitId(1, "h"), QubitId(2, "h")))]
        if QubitId(1, "e") in pairs.qubits:
            measuring.append((EVE, (QubitId(1, "e"), QubitId(2, "e"))))
        draws = {party: self._rngs[party].random(len(groups)) for party, _ in measuring}
        outcomes: dict[str, list[BellOutcome]] = {party: [] for party, _ in measuring}

        def measure(block: slice) -> StateVector:
            state = take_rows(pairs, block)
            for party, pair in measuring:
                got, state = measure_bell(state, pair, draws[party][block])
                outcomes[party].extend(got)
            return state

        if _per_block(len(groups), pairs.num_qubits, measure).num_qubits:
            raise InternalError("encoding photons were left unmeasured")

        for group, outcome in zip(groups, outcomes[cfg.receiver]):
            first, second = group.triplets
            group.receiver_bell = outcome
            detail = f"group={group.index} pair=h{first},h{second} outcome={outcome.value}"
            emit(cfg.receiver, "BELL_MEASURE", detail)
            key = DecodeKey(group.parities[0], group.parities[1], group.sender_bell, outcome)
            try:
                bits = table.decode(key)
            except KeyError as exc:  # the table is total; this cannot happen
                raise InternalError(f"no decode entry for {key}") from exc
            group.decoded_bits = bits
            parities = f"{group.parities[0]}{group.parities[1]}"
            bells = f"sender={group.sender_bell.value} receiver={outcome.value}"
            detail = f"group={group.index} parities={parities} {bells} bits={bits}"
            emit(cfg.receiver, "DECODE", detail)
        for group, outcome in zip(groups, outcomes.get(EVE, ())):
            first, second = group.triplets
            detail = f"group={group.index} pair=e{first},e{second} outcome={outcome.value}"
            emit(EVE, "ANCILLA_BELL", detail)

        self.decoded_bits = "".join(g.decoded_bits for g in self.encoding_groups)
        self._advance(Phase.S11)
        emit(cfg.receiver, "COMPLETE", f"decoded={self.decoded_bits}")
        return self.decoded_bits

    # -- driver -----------------------------------------------------------

    def run(self) -> SessionResult:
        self.prepare_and_distribute()
        self.select_groups()
        passed = self.run_check()
        if passed:
            self.controller_round()
            self.encode_and_announce()
            self.receiver_decode()
        # every prepared register was taken out and measured, except the
        # encoding triplets' after an abort, which stay alive
        taken = np.count_nonzero(self._taken)
        if taken != (self.config.triplet_count if passed else self.checked_triplets):
            raise InternalError("qubit conservation violated")
        return SessionResult(
            config=self.config,
            completed=passed,
            decoded_bits=self.decoded_bits,
            match=passed and self.decoded_bits == self.config.message_bits,
            checked_triplets=self.checked_triplets,
            violations=self.violations,
            abort_triplet=self.abort_triplet,
            records=tuple(self.records),
        )


def run_session(config: ProtocolConfig) -> SessionResult:
    return Session(config).run()

