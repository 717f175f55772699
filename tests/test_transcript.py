"""Unit tests for the tab-separated transcript format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdcsim.transcript import (
    TranscriptRecord,
    format_line,
    format_transcript,
    parse_line,
    parse_transcript,
)

printable = st.text(
    st.characters(blacklist_characters="\t\n\r", min_codepoint=32, max_codepoint=126),
    min_size=1,
    max_size=20,
)


def test_record_fields_round_trip():
    record = TranscriptRecord(3, "S4", "BOB", "CHECK_ANNOUNCE", "triplet=1 basis=Z outcome=0")
    assert parse_line(format_line(record)) == record


# Records are plain storage; they are checked where they are formatted
# or parsed.


def test_sequence_must_be_positive():
    with pytest.raises(ValueError):
        format_line(TranscriptRecord(0, "S1", "ALICE", "PREPARE", "x"))
    with pytest.raises(ValueError):
        parse_line("0\tS1\tALICE\tPREPARE\tx")


def test_fields_may_not_contain_separators():
    with pytest.raises(ValueError):
        format_line(TranscriptRecord(1, "S1", "A\tB", "PREPARE", "x"))
    with pytest.raises(ValueError):
        format_line(TranscriptRecord(1, "S1", "ALICE", "PRE\nPARE", "x"))
    with pytest.raises(ValueError):
        parse_line("1\tS1\tALICE\tPRE\rPARE\tx")


def test_parse_rejects_wrong_field_count():
    with pytest.raises(ValueError):
        parse_line("1\tS1\tALICE\tPREPARE")
    with pytest.raises(ValueError):
        parse_line("1\tS1\tALICE\tPREPARE\tdetail\textra")


def test_transcript_ends_with_newline():
    record = TranscriptRecord(1, "S1", "ALICE", "PREPARE", "triplets=2")
    text = format_transcript([record])
    assert text.endswith("\n")
    assert "\r" not in text


def test_empty_transcript_is_empty_text():
    assert format_transcript([]) == ""
    assert parse_transcript("") == []


@given(st.integers(1, 10**6), printable, printable, printable, printable)
@settings(max_examples=50, deadline=None)
def test_arbitrary_records_round_trip(seq, phase, actor, action, detail):
    record = TranscriptRecord(seq, phase, actor, action, detail)
    text = format_transcript([record, record])
    assert parse_transcript(text) == [record, record]
