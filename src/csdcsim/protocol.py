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

Randomness: every draw comes from one master seed through a named
substream per party (ALICE, BOB, CTRL1..k, then EVE, spawn keys 0..),
so changing one party's behavior never shifts another party's draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .bases import DecodeKey, EncodingOp, default_decode_table
from .states import (
    BellOutcome,
    Gate,
    MeasurementBasis,
    QubitId,
    StateVector,
    apply_gate,
    make_state,
    measure_bell,
    measure_qubit,
    tensor,
)
from .transcript import TranscriptRecord, format_transcript

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import AttackModel

ALICE = "ALICE"
BOB = "BOB"
EVE = "EVE"

MAX_SEED = 2**64 - 1
# Every triplet is prepared up front as a dense register of 2**P
# amplitudes (2**(P+1) with a probe ancilla); P=12 is 64 KiB a triplet.
MAX_PARTIES = 12
# The register pool and the transcript grow linearly with the triplet
# count; at the party ceiling, 4096 triplets are 256 MiB of amplitudes.
MAX_TRIPLETS = 4096


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
        # disentangled subsystems, merged lazily when a joint operation
        # spans two of them; triplet n starts in slot n - 1
        self._pool: list[StateVector | None] = [None] * config.triplet_count
        self._where: dict[QubitId, int] = {}
        self._created: set[QubitId] = set()
        self._measured: set[QubitId] = set()
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

    # -- transcript and channel helpers ---------------------------------

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

    # -- quantum register pool -------------------------------------------
    # _where maps each live qubit to its slot.  _store is its only writer:
    # preparation, an attack tap and _merge store a register, and a
    # measurement stores what is left; a measured qubit leaves _where, so
    # measuring it again fails in _slot_of.

    def _store(self, slot: int, state: StateVector, measured: Sequence[QubitId] = ()) -> None:
        for q in measured:
            del self._where[q]
        self._measured.update(measured)
        self._where.update(dict.fromkeys(state.qubits, slot))
        self._created.update(state.qubits)
        self._pool[slot] = state if state.num_qubits else None

    def _slot_of(self, qubit: QubitId) -> int:
        slot = self._where.get(qubit)
        if slot is None:
            raise InternalError(f"qubit {qubit} is absent (never created or already measured)")
        return slot

    def _merge(self, a: QubitId, b: QubitId) -> int:
        slot, other = self._slot_of(a), self._slot_of(b)
        if other != slot:
            self._store(slot, tensor(self._pool[slot], self._pool[other]))
            self._pool[other] = None
        return slot

    def _apply(self, gate: Gate, qubit: QubitId) -> None:
        slot = self._slot_of(qubit)
        self._pool[slot] = apply_gate(self._pool[slot], gate, qubit)

    def _measure(self, qubit: QubitId, basis: MeasurementBasis, party: str) -> int:
        slot = self._slot_of(qubit)
        outcome, post = measure_qubit(self._pool[slot], qubit, basis, self._rngs[party])
        self._store(slot, post, measured=(qubit,))
        return outcome

    def _measure_bell_pair(self, pair: tuple[QubitId, QubitId], party: str) -> BellOutcome:
        slot = self._merge(*pair)
        outcome, post = measure_bell(self._pool[slot], pair, self._rngs[party])
        self._store(slot, post, measured=pair)
        return outcome

    # -- protocol phases ---------------------------------------------------

    def prepare_and_distribute(self) -> None:
        cfg = self.config
        self._emit(
            cfg.receiver,
            "PREPARE",
            f"triplets={cfg.triplet_count} parties={cfg.party_count} groups={cfg.group_count}",
        )
        ghz = np.zeros(1 << len(self._roles))
        ghz[0] = ghz[-1] = 1.0
        for n in range(1, cfg.triplet_count + 1):
            self._store(n - 1, make_state(tuple(QubitId(n, role) for role in self._roles), ghz))

        self._emit(
            cfg.receiver, "SEND", f"to={cfg.sender} sequence=travel count={cfg.triplet_count}"
        )
        attack = cfg.attack
        if attack is not None:
            for n in range(1, cfg.triplet_count + 1):
                travel = QubitId(n, "t")
                slot = self._slot_of(travel)
                state, detail = attack.tap(travel, self._pool[slot], self._rngs[EVE])
                self._store(slot, state)
                if detail is not None:
                    self._emit(EVE, "TAP", detail)
        for ctrl in cfg.controllers:
            self._emit(
                cfg.receiver, "SEND", f"to={ctrl} sequence=control count={cfg.triplet_count}"
            )

        self._advance(Phase.S2)
        for party in (cfg.sender,) + cfg.controllers:
            self._emit(party, "RECEIPT", f"party={party} count={cfg.triplet_count}")
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
        cfg = self.config
        self._advance(Phase.S4)
        check_bases: dict[int, MeasurementBasis] = {}
        for group in self.checking_groups:
            for n in group.triplets:
                basis = (
                    MeasurementBasis.COMPUTATIONAL
                    if int(self._rngs[cfg.sender].integers(0, 2)) == 0
                    else MeasurementBasis.DIAGONAL
                )
                check_bases[n] = basis
                bits = [self._measure(QubitId(n, "t"), basis, cfg.sender)]
                self._emit(
                    cfg.sender,
                    "CHECK_ANNOUNCE",
                    f"triplet={n} basis={basis.value} outcome={bits[0]}",
                )
                for party in (cfg.receiver,) + cfg.controllers:
                    outcome = self._measure(QubitId(n, self._role_of[party]), basis, party)
                    bits.append(outcome)
                    self._emit(
                        party,
                        "CHECK_REPLY",
                        f"party={party} triplet={n} basis={basis.value} outcome={outcome}",
                    )
                self.checked_triplets += 1
                if not coincidence_ok(basis, bits):
                    self.violations += 1
                    if self.abort_triplet is None:
                        self.abort_triplet = n

        # a probe ancilla is read out only after the bases are public
        for group in self.checking_groups:
            for n in group.triplets:
                ancilla = QubitId(n, "e")
                if ancilla in self._where:
                    outcome = self._measure(ancilla, check_bases[n], EVE)
                    self._emit(
                        EVE,
                        "ANCILLA_MEASURE",
                        f"triplet={n} basis={check_bases[n].value} outcome={outcome}",
                    )

        passed = self.violations == 0
        self._emit(
            cfg.sender,
            "CHECK_VERDICT",
            f"verdict={'pass' if passed else 'abort'} checked={self.checked_triplets} "
            f"violations={self.violations}",
        )
        if not passed:
            self._emit(
                cfg.sender, "ABORT", f"reason=check_failed triplet={self.abort_triplet}"
            )
            self._advance(Phase.ABORTED)
        return passed

    def controller_round(self) -> None:
        cfg = self.config
        self._advance(Phase.S5)
        bits: dict[tuple[str, int], int] = {}
        for ctrl in cfg.controllers:
            for group in self.encoding_groups:
                for n in group.triplets:
                    qubit = QubitId(n, self._role_of[ctrl])
                    self._apply(Gate.HADAMARD, qubit)
                    outcome = self._measure(qubit, MeasurementBasis.COMPUTATIONAL, ctrl)
                    bits[(ctrl, n)] = outcome
                    self._emit(ctrl, "HADAMARD_MEASURE", f"triplet={n} outcome={outcome}")

        self._advance(Phase.S6)
        encoding_triplets = [n for g in self.encoding_groups for n in g.triplets]
        for ctrl in cfg.controllers:
            listed = ",".join(f"{n}:{bits[(ctrl, n)]}" for n in encoding_triplets)
            self._emit(ctrl, "CONTROLLER_OUTCOMES", f"party={ctrl} outcomes={listed}")
        for group in self.encoding_groups:
            group.parities = tuple(
                triplet_parity([bits[(ctrl, n)] for ctrl in cfg.controllers])
                for n in group.triplets
            )

    def encode_and_announce(self) -> None:
        cfg = self.config
        self._advance(Phase.S7)
        for i, group in enumerate(self.encoding_groups):
            chunk = cfg.message_bits[2 * i : 2 * i + 2]
            op = EncodingOp.from_bits(chunk)
            group.encoded_bits = chunk
            first, second = group.triplets
            self._apply(op.gate, QubitId(first, "t"))
            self._emit(
                cfg.sender, "ENCODE", f"group={group.index} bits={chunk} op={op.name}"
            )
            outcome = self._measure_bell_pair(
                (QubitId(first, "t"), QubitId(second, "t")), cfg.sender
            )
            group.sender_bell = outcome
            self._emit(
                cfg.sender,
                "BELL_MEASURE",
                f"group={group.index} pair=t{first},t{second} outcome={outcome.value}",
            )

        self._advance(Phase.S8)
        for group in self.encoding_groups:
            self._emit(
                cfg.sender,
                "BELL_ANNOUNCE",
                f"group={group.index} outcome={group.sender_bell.value}",
            )

    def receiver_decode(self) -> str:
        cfg = self.config
        self._advance(Phase.S9)
        table = default_decode_table()
        for group in self.encoding_groups:
            first, second = group.triplets
            outcome = self._measure_bell_pair(
                (QubitId(first, "h"), QubitId(second, "h")), cfg.receiver
            )
            group.receiver_bell = outcome
            self._emit(
                cfg.receiver,
                "BELL_MEASURE",
                f"group={group.index} pair=h{first},h{second} outcome={outcome.value}",
            )
            key = DecodeKey(
                group.parities[0], group.parities[1], group.sender_bell, outcome
            )
            try:
                bits = table.decode(key)
            except KeyError as exc:  # the table is total; this cannot happen
                raise InternalError(f"no decode entry for {key}") from exc
            group.decoded_bits = bits
            self._emit(
                cfg.receiver,
                "DECODE",
                f"group={group.index} parities={group.parities[0]}{group.parities[1]} "
                f"sender={group.sender_bell.value} receiver={outcome.value} bits={bits}",
            )

        for group in self.encoding_groups:
            first, second = group.triplets
            pair = (QubitId(first, "e"), QubitId(second, "e"))
            if pair[0] in self._where and pair[1] in self._where:
                outcome = self._measure_bell_pair(pair, EVE)
                self._emit(
                    EVE,
                    "ANCILLA_BELL",
                    f"group={group.index} pair=e{first},e{second} outcome={outcome.value}",
                )

        self.decoded_bits = "".join(g.decoded_bits for g in self.encoding_groups)
        self._advance(Phase.S11)
        self._emit(cfg.receiver, "COMPLETE", f"decoded={self.decoded_bits}")
        return self.decoded_bits

    # -- driver -----------------------------------------------------------

    def unmeasured_qubits(self) -> set[QubitId]:
        return set(self._where)

    def _check_conservation(self) -> None:
        alive = set(self._where)
        if alive & self._measured or (alive | self._measured) != self._created:
            raise InternalError("qubit conservation violated")

    def run(self) -> SessionResult:
        self.prepare_and_distribute()
        self.select_groups()
        passed = self.run_check()
        if passed:
            self.controller_round()
            self.encode_and_announce()
            self.receiver_decode()
        self._check_conservation()
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

