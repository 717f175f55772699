"""Line-oriented session transcripts.

One tab-separated record per observable protocol event:

    seq <TAB> phase <TAB> actor <TAB> action <TAB> detail

Sequence numbers start at 1 and increase by 1.  Files are UTF-8 with
LF line endings and no header, so two runs with the same configuration
and seed compare byte for byte.

A trial's transcript is rendered from its outcomes as blocks of text
(``transcript_blocks``), at most BLOCK_ROWS whole lines each, so a file
is written block by block and nothing holds the whole text;
``write_transcript`` joins them.  Lines that share a template are one
uint8 array: numbers as columns of digits and names as rows of a table,
padded with PAD, a byte no UTF-8 text holds.  The only text a caller
gives, the party names and the decoded bits, is checked for separators
before the first block is rendered.  Records are parsed from the text
only when something reads them; ``format_line`` and ``parse_line``
check them at the file boundary: only LF ends a line, and a line parses
only if it formats back.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .bases import EncodingOp
from .states import BASES, BELL_OUTCOMES

FIELD_SEP = "\t"
EVE = "EVE"  # the eavesdropper's actor name; the others are the config's parties
PAD = 0xFF
BLOCK_ROWS = 1024  # lines rendered in one array and block, which bounds their memory
_UTF8 = ("utf-8", "surrogatepass")  # a party name may hold a lone surrogate
_ROWWISE = (tuple, list, np.ndarray)  # a field with one value a row


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


def transcript_blocks(
    triplets: int, sender: str, receiver: str, controllers: Sequence[str],
    tap: tuple[Sequence[int], Sequence[int]] | Literal["probe"], checking: Sequence[int],
    encoding: Sequence[int], check_bases: Sequence[int], check_bits: dict[str, Sequence[int]],
    violations: int, abort_triplet: int | None, *,
    controller_bits: dict[str, Sequence[int]] | None = None, parities: Sequence[int] = (),
    ops: Sequence[int] = (), sender_bell: Sequence[int] = (), receiver_bell: Sequence[int] = (),
    ancilla_bell: Sequence[int] = (), decoded: str = "",
) -> Iterator[str]:
    """One trial's transcript, in protocol order, as blocks of at most
    BLOCK_ROWS whole lines, each rendered when the one before has been
    taken.  Announcements are authenticated: the eavesdropper reads them
    but cannot alter or suppress them.  ``tap`` is the tap's basis and
    outcome per triplet, or "probe" where a probe coupled and nothing was
    measured; ``check_bits`` then holds EVE's ancilla too.  Only a trial
    that passed the check (no ``abort_triplet``) gives the keywords.
    Bases, Bell outcomes and operations are positions in ``BASES``,
    ``BELL_OUTCOMES`` and ``EncodingOp``, in lists, tuples or arrays.

    Every other field is written from numbers and fixed tables, so a tab,
    LF or CR in a party name or ``decoded`` is the only way a line can
    break its format: it raises ValueError here, before any block."""
    parties, c = (sender, receiver, *controllers), len(controllers)
    if any(sep in text for text in (*parties, decoded) for sep in "\t\n\r"):
        raise ValueError("transcript field contains a separator")
    names = _table(controllers)
    who = dict(sender=sender, receiver=receiver, eve=EVE, count=triplets, ctrl=names)
    checking, encoding = np.asarray(checking), np.asarray(encoding)
    checked, encoded = ((2 * groups[:, None] - (1, 0)).ravel() for groups in (checking, encoding))
    seq = 1  # the next line's number

    def add(template: str, **fields) -> Iterator[str]:
        nonlocal seq
        for lines, block in _render(template, {**who, **fields}, seq):
            seq += lines
            yield block.decode(*_UTF8)

    def blocks() -> Iterator[str]:
        yield from add(
            "{seq}\tS1\t{receiver}\tPREPARE\ttriplets={count} parties={n} groups={groups}\n",
            n=len(parties), groups=len(checking) + len(encoding))
        yield from add("{seq}\tS1\t{receiver}\tSEND\tto={sender} sequence=travel count={count}\n")
        if isinstance(tap, str):  # "probe"
            yield from add("{seq}\tS1\t{eve}\tTAP\ttriplet={n} probe=cnot\n",
                           n=np.arange(1, triplets + 1))
        else:
            yield from add("{seq}\tS1\t{eve}\tTAP\ttriplet={n} basis={basis} outcome={bit}\n",
                           n=np.arange(1, triplets + 1), basis=_BASES.take(tap[0], axis=0),
                           bit=tap[1])
        yield from add("{seq}\tS1\t{receiver}\tSEND\tto={ctrl} sequence=control count={count}\n")
        yield from add("{seq}\tS2\t{party}\tRECEIPT\tparty={party} count={count}\n",
                       party=_table((sender, *controllers)))
        groups = " encoding=".join(",".join(map(str, g.tolist())) for g in (checking, encoding))
        yield from add("{seq}\tS3\t{sender}\tGROUP_SELECTION\tchecking={groups}\n", groups=groups)

        # each checked triplet's announcement, then every other party's reply
        heads = [f"{sender}\tCHECK_ANNOUNCE\t",
                 *(f"{p}\tCHECK_REPLY\tparty={p} " for p in parties[1:])]
        yield from add("{seq}\tS4\t{head}triplet={n} basis={basis} outcome={bit}\n",
                       head=np.tile(_table(heads), (len(checked), 1)),
                       n=np.repeat(checked, c + 2),
                       basis=_BASES.take(np.repeat(check_bases, c + 2), axis=0),
                       bit=np.stack([check_bits[p] for p in parties], axis=1).ravel())
        yield from add(
            "{seq}\tS4\t{eve}\tANCILLA_MEASURE\ttriplet={n} basis={basis} outcome={bit}\n",
            n=checked, basis=_BASES.take(check_bases, axis=0), bit=check_bits.get(EVE, []))
        yield from add(
            "{seq}\tS4\t{sender}\tCHECK_VERDICT\tverdict={verdict} checked={n} violations={v}\n",
            verdict="pass" if abort_triplet is None else "abort", n=len(checked), v=violations)
        if abort_triplet is not None:
            yield from add("{seq}\tS4\t{sender}\tABORT\treason=check_failed triplet={t}\n",
                           t=abort_triplet)
            return

        # every controller's outcomes, controller by controller
        every, bits = np.tile(encoded, c), np.concatenate([controller_bits[x] for x in controllers])
        yield from add("{seq}\tS5\t{ctrl}\tHADAMARD_MEASURE\ttriplet={n} outcome={bit}\n",
                       ctrl=np.repeat(names, len(encoded), axis=0), n=every, bit=bits)
        # each controller lists the same triplets, each with one digit: a row each
        listed = b"".join(text for _, text in _render("{n}:{bit},", dict(n=every, bit=bits)))
        listed = np.frombuffer(listed, np.uint8).reshape(c, -1)[:, :-1]
        yield from add("{seq}\tS6\t{ctrl}\tCONTROLLER_OUTCOMES\tparty={ctrl} outcomes={listed}\n",
                       listed=listed)

        # each encoding group: the sender's lines, the receiver's and the probe's
        bits = np.frombuffer(decoded.encode(), np.uint8) - ord("0")
        who.update(g=encoding, a=encoded[::2], b=encoded[1::2],
                   s=_BELLS.take(sender_bell, axis=0), r=_BELLS.take(receiver_bell, axis=0))
        yield from add("{seq}\tS7\t{sender}\tENCODE\tgroup={g} {op}\n"
                       "{seq}\tS7\t{sender}\tBELL_MEASURE\tgroup={g} pair=t{a},t{b} outcome={s}\n",
                       op=_OPS.take(ops, axis=0))
        yield from add("{seq}\tS8\t{sender}\tBELL_ANNOUNCE\tgroup={g} outcome={s}\n")
        yield from add("{seq}\tS9\t{receiver}\tBELL_MEASURE\tgroup={g} pair=h{a},h{b} outcome={r}\n"
                       "{seq}\tS9\t{receiver}\tDECODE\tgroup={g} parities={p}{q} sender={s} "
                       "receiver={r} bits={x}{y}\n",
                       p=parities[::2], q=parities[1::2], x=bits[::2], y=bits[1::2])
        yield from add("{seq}\tS9\t{eve}\tANCILLA_BELL\tgroup={g} pair=e{a},e{b} outcome={e}\n",
                       e=_BELLS.take(ancilla_bell, axis=0))
        yield from add("{seq}\tS11\t{receiver}\tCOMPLETE\tdecoded={decoded}\n", decoded=decoded)

    return blocks()


def write_transcript(*args, **kwargs) -> str:
    """The text of ``transcript_blocks(*args, **kwargs)``."""
    return "".join(transcript_blocks(*args, **kwargs))


def _table(names: Iterable[str]) -> np.ndarray:
    """Each name's UTF-8 bytes as one row, padded with PAD."""
    encoded = [name.encode(*_UTF8) for name in names]
    width = max(map(len, encoded))
    text = b"".join(name.ljust(width, bytes([PAD])) for name in encoded)
    return np.frombuffer(text, np.uint8).reshape(len(encoded), width)


_BASES, _BELLS = (_table(name.value for name in names) for names in (BASES, BELL_OUTCOMES))
_OPS = _table(f"bits={op.bits} op={op.name}" for op in EncodingOp)


def _digits(numbers: np.ndarray) -> np.ndarray:
    """Non-negative int32 ``numbers`` in decimal, one row a number, in the
    width of the largest and padded on the left with PAD."""
    width = len(str(int(numbers.max())))
    tens = np.empty((width, len(numbers)), np.int32)
    for k in range(width):  # each number over 10**k, from the leading digit down
        np.floor_divide(numbers, 10 ** (width - 1 - k), out=tens[k])
    padded = tens[:-1] == 0  # the last digit shows, even of 0
    tens[1:] -= 10 * tens[:-1]
    tens += ord("0")
    tens[:-1][padded] = PAD
    return tens.T


def _render(template: str, fields: dict, first: int = 1) -> Iterator[tuple[int, bytes]]:
    """Yields ``template``'s rows as (line count, text), in blocks of at
    most BLOCK_ROWS lines.  A field in a list, tuple or array has one value
    a row: a number, or a name as a row of a ``_table``.  The k-th "seq" of
    row r reads first + r * (seqs a row) + k."""
    parsed = re.split(r"\{(\w+)\}", template)  # text, field, text, ..., field, text
    rows = min((len(fields[name]) for name in parsed[1::2]
                if isinstance(fields.get(name), _ROWWISE)), default=1)
    step, parts = template.count("{seq}"), [parsed[0].encode(*_UTF8)]
    seqs = (np.arange(first + k, first + k + rows * step, step, np.int32) for k in range(step))
    for name, text in zip(parsed[1::2], parsed[2::2]):
        value = next(seqs) if name == "seq" else fields[name]
        value = np.asarray(value) if isinstance(value, _ROWWISE) else str(value).encode(*_UTF8)
        parts += [value, text.encode(*_UTF8)]
    block_rows = BLOCK_ROWS // max(step, 1)
    for start in range(0, rows, block_rows):
        n, row, columns = min(block_rows, rows - start), b"", []
        for part in parts:  # the template's text, and the columns that overwrite it
            if isinstance(part, np.ndarray):
                column = part[start : start + n]
                column = column if column.ndim == 2 else _digits(column.astype(np.int32))
                columns.append((len(row), column))
                part = bytes([PAD]) * column.shape[1]
            row += part
        block = np.empty((n, len(row)), np.uint8)
        block[:] = np.frombuffer(row, np.uint8)
        for at, column in columns:
            block[:, at : at + column.shape[1]] = column
        yield n * step, block.tobytes().translate(None, bytes([PAD]))
