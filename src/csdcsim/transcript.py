"""Line-oriented session transcripts.

One tab-separated record per observable protocol event:

    seq <TAB> phase <TAB> actor <TAB> action <TAB> detail

Sequence numbers start at 1 and increase by 1.  Files are UTF-8 with
LF line endings and no header, so two runs with the same configuration
and seed compare byte for byte.

A session's transcript is written as text in one pass
(``write_transcript``), from one trial's outcomes as plain values, and
records are parsed from that text only when something reads them.
``format_line`` and ``parse_line`` check single records at the file
boundary: only LF ends a line, and a line parses only if it formats back.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Literal, NamedTuple, Sequence

from .bases import EncodingOp
from .states import BASES, BELL_OUTCOMES

FIELD_SEP = "\t"
EVE = "EVE"  # the eavesdropper's actor name; the others are the config's parties


class TranscriptRecord(NamedTuple):
    """One record; plain storage.  ``format_line`` and ``parse_line``
    check it at the file boundary."""

    seq: int
    phase: str
    actor: str
    action: str
    detail: str


def format_line(record: TranscriptRecord) -> str:
    line = FIELD_SEP.join(
        (str(record.seq), record.phase, record.actor, record.action, record.detail)
    )
    if record.seq < 1:
        raise ValueError("sequence numbers start at 1")
    # five fields hold exactly four separators and no line break
    if line.count(FIELD_SEP) != 4 or "\n" in line or "\r" in line:
        raise ValueError(f"transcript field contains a separator: {line!r}")
    return line


def parse_line(line: str) -> TranscriptRecord:
    line = line.rstrip("\n")
    parts = line.split(FIELD_SEP)
    if len(parts) != 5:
        raise ValueError(f"expected 5 tab-separated fields, got {len(parts)}")
    record = TranscriptRecord(int(parts[0]), parts[1], parts[2], parts[3], parts[4])
    # a record parses only if it formats back: int() also reads "01", "+1",
    # " 1" and "1_0"
    if format_line(record) != line:
        raise ValueError(f"sequence number is not canonical: {parts[0]!r}")
    return record


def format_transcript(records: Iterable[TranscriptRecord]) -> str:
    return "".join(format_line(r) + "\n" for r in records)


def parse_transcript(text: str) -> list[TranscriptRecord]:
    # only LF ends a line; str.splitlines would also break on characters
    # such as \x0c or \x85 that a field may hold
    lines = text.split("\n")
    if not lines[-1]:  # after the final LF, or no text at all
        lines.pop()
    return [parse_line(line) for line in lines]


def write_transcript(
    triplets: int, sender: str, receiver: str, controllers: Sequence[str],
    tap: tuple[Sequence[int], Sequence[int]] | Literal["probe"], checking: Sequence[int],
    encoding: Sequence[int], check_bases: Sequence[int], check_bits: dict[str, Sequence[int]],
    violations: int, abort_triplet: int | None, *,
    controller_bits: dict[str, Sequence[int]] | None = None, parities: Sequence[int] = (),
    ops: Sequence[int] = (), sender_bell: Sequence[int] = (), receiver_bell: Sequence[int] = (),
    ancilla_bell: Sequence[int] = (), decoded: str = "",
) -> str:
    """One trial's transcript text, in protocol order, each line numbered
    as it is built.  Announcements are authenticated: the eavesdropper
    reads them but cannot alter or suppress them.  ``tap`` is the tap's
    basis and outcome per triplet, or "probe" where a probe coupled and
    nothing was measured; ``check_bits`` then holds EVE's ancilla too.
    Only a trial that passed the check (no ``abort_triplet``) gives the
    keywords.  Bases, Bell outcomes and operations are positions in
    ``BASES``, ``BELL_OUTCOMES`` and ``EncodingOp``.

    Each line is built with four tabs and one LF, so one count over the
    text checks what ``format_line`` checks line by line: a tab, LF or CR
    inside a field shows as a surplus tab or LF, or as a CR."""
    basis_names = [basis.value for basis in BASES]
    bell_names = [outcome.value for outcome in BELL_OUTCOMES]
    op_names = [f"bits={op.bits} op={op.name}" for op in EncodingOp]
    seq = count(1)  # each line takes the next number as it is built

    sizes = f"parties={2 + len(controllers)} groups={len(checking) + len(encoding)}"
    lines = [
        f"{next(seq)}\tS1\t{receiver}\tPREPARE\ttriplets={triplets} {sizes}\n",
        f"{next(seq)}\tS1\t{receiver}\tSEND\tto={sender} sequence=travel count={triplets}\n",
    ]
    taps = ["probe=cnot"] * triplets if tap == "probe" else [
        f"basis={basis_names[b]} outcome={o}" for b, o in zip(*tap)
    ]
    lines += [f"{next(seq)}\tS1\t{EVE}\tTAP\ttriplet={n} {t}\n" for n, t in enumerate(taps, 1)]
    lines += [
        f"{next(seq)}\tS1\t{receiver}\tSEND\tto={ctrl} sequence=control count={triplets}\n"
        for ctrl in controllers
    ]
    lines += [
        f"{next(seq)}\tS2\t{party}\tRECEIPT\tparty={party} count={triplets}\n"
        for party in (sender, *controllers)
    ]
    selection = f"checking={','.join(map(str, checking))} encoding={','.join(map(str, encoding))}"
    lines.append(f"{next(seq)}\tS3\t{sender}\tGROUP_SELECTION\t{selection}\n")

    # each checked triplet's announcement, then every other party's reply
    parties = (sender, receiver, *controllers)
    heads = [f"{sender}\tCHECK_ANNOUNCE\t"] + [f"{p}\tCHECK_REPLY\tparty={p} " for p in parties[1:]]
    checked = [n for g in checking for n in (2 * g - 1, 2 * g)]
    checks = [f"triplet={n} basis={basis_names[b]} outcome=" for n, b in zip(checked, check_bases)]
    lines += [
        f"{next(seq)}\tS4\t{head}{c}{b}\n"
        for c, bits in zip(checks, zip(*map(check_bits.get, parties)))
        for head, b in zip(heads, bits)
    ]
    lines += [
        f"{next(seq)}\tS4\t{EVE}\tANCILLA_MEASURE\t{c}{b}\n"
        for c, b in zip(checks, check_bits.get(EVE, ()))
    ]
    verdict = "pass" if abort_triplet is None else "abort"
    counts = f"verdict={verdict} checked={len(checked)} violations={violations}"
    lines.append(f"{next(seq)}\tS4\t{sender}\tCHECK_VERDICT\t{counts}\n")
    if abort_triplet is not None:
        reason = f"reason=check_failed triplet={abort_triplet}"
        lines.append(f"{next(seq)}\tS4\t{sender}\tABORT\t{reason}\n")
        return _checked_text(lines)

    encoded = [n for g in encoding for n in (2 * g - 1, 2 * g)]
    lines += [
        f"{next(seq)}\tS5\t{ctrl}\tHADAMARD_MEASURE\ttriplet={n} outcome={b}\n"
        for ctrl in controllers
        for n, b in zip(encoded, controller_bits[ctrl])
    ]
    for ctrl in controllers:
        listed = ",".join(f"{n}:{b}" for n, b in zip(encoded, controller_bits[ctrl]))
        detail = f"party={ctrl} outcomes={listed}"
        lines.append(f"{next(seq)}\tS6\t{ctrl}\tCONTROLLER_OUTCOMES\t{detail}\n")

    sender_bell = [bell_names[k] for k in sender_bell]
    for g, op, s in zip(encoding, ops, sender_bell):
        lines += (
            f"{next(seq)}\tS7\t{sender}\tENCODE\tgroup={g} {op_names[op]}\n",
            f"{next(seq)}\tS7\t{sender}\tBELL_MEASURE\tgroup={g} pair=t{2 * g - 1},t{2 * g} "
            f"outcome={s}\n",
        )
    lines += [
        f"{next(seq)}\tS8\t{sender}\tBELL_ANNOUNCE\tgroup={g} outcome={s}\n"
        for g, s in zip(encoding, sender_bell)
    ]
    receiver_bell = [bell_names[k] for k in receiver_bell]
    read = zip(count(0, 2), encoding, parities[::2], parities[1::2], sender_bell, receiver_bell)
    for i, g, p1, p2, s, r in read:
        lines += (
            f"{next(seq)}\tS9\t{receiver}\tBELL_MEASURE\tgroup={g} pair=h{2 * g - 1},h{2 * g} "
            f"outcome={r}\n",
            f"{next(seq)}\tS9\t{receiver}\tDECODE\tgroup={g} parities={p1}{p2} sender={s} "
            f"receiver={r} bits={decoded[i : i + 2]}\n",
        )
    lines += [
        f"{next(seq)}\tS9\t{EVE}\tANCILLA_BELL\tgroup={g} pair=e{2 * g - 1},e{2 * g} "
        f"outcome={bell_names[a]}\n"
        for g, a in zip(encoding, ancilla_bell)
    ]
    lines.append(f"{next(seq)}\tS11\t{receiver}\tCOMPLETE\tdecoded={decoded}\n")
    return _checked_text(lines)


def _checked_text(lines: list[str]) -> str:
    text = "".join(lines)
    if text.count(FIELD_SEP) != 4 * len(lines) or text.count("\n") != len(lines) or "\r" in text:
        raise ValueError("transcript field contains a separator")
    return text
