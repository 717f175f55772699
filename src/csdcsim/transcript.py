"""Line-oriented session transcripts.

One tab-separated record per observable protocol event:

    seq <TAB> phase <TAB> actor <TAB> action <TAB> detail

Sequence numbers start at 1 and increase by 1.  Files are UTF-8 with
LF line endings and no header, so two runs with the same configuration
and seed compare byte for byte.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

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
    parts = line.rstrip("\n").split(FIELD_SEP)
    if len(parts) != 5:
        raise ValueError(f"expected 5 tab-separated fields, got {len(parts)}")
    record = TranscriptRecord(int(parts[0]), parts[1], parts[2], parts[3], parts[4])
    format_line(record)  # a record parses only if it formats back
    return record


def format_transcript(records: Iterable[TranscriptRecord]) -> str:
    return "".join(format_line(r) + "\n" for r in records)


def parse_transcript(text: str) -> list[TranscriptRecord]:
    return [parse_line(line) for line in text.splitlines()]
