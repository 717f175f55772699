"""Line-oriented session transcripts.

One tab-separated record per observable protocol event:

    seq <TAB> phase <TAB> actor <TAB> action <TAB> detail

Sequence numbers start at 1 and increase by 1.  Files are UTF-8 with
LF line endings and no header, so two runs with the same configuration
and seed compare byte for byte.

A session emits its transcript as text directly (``number_lines``), and
records are parsed from that text only when something reads them.
``format_line`` and ``parse_line`` check single records at the file
boundary: only LF ends a line, and a line parses only if it formats back.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

FIELD_SEP = "\t"


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


def number_lines(bodies: Sequence[str]) -> str:
    """The transcript text of line bodies (phase, actor, action and detail,
    tab-separated), numbered from 1.  Each body is built with exactly
    three separators, so one count over the whole text checks what
    ``format_line`` checks line by line: a tab, LF or CR inside a field
    shows as a surplus tab or LF, or as a CR."""
    text = "".join([f"{seq}{FIELD_SEP}{body}\n" for seq, body in enumerate(bodies, 1)])
    lines = len(bodies)
    if text.count(FIELD_SEP) != 4 * lines or text.count("\n") != lines or "\r" in text:
        raise ValueError("transcript field contains a separator")
    return text


def parse_transcript(text: str) -> list[TranscriptRecord]:
    # only LF ends a line; str.splitlines would also break on characters
    # such as \x0c or \x85 that a field may hold
    lines = text.split("\n")
    if not lines[-1]:  # after the final LF, or no text at all
        lines.pop()
    return [parse_line(line) for line in lines]
