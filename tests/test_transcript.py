"""Unit tests for the tab-separated transcript format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdcsim.transcript import (
    TranscriptRecord,
    format_line,
    format_transcript,
    number_lines,
    parse_line,
    parse_transcript,
)

# any character but the separators, \x0c, \x85 and \u2028 among them
printable = st.text(
    st.characters(blacklist_characters="\t\n\r"),
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


@pytest.mark.parametrize("seq", ["01", "+1", " 1", "1_0", "1 "])
def test_parse_rejects_a_sequence_number_that_does_not_format_back(seq):
    # int() reads each of these, but none is how format_line writes a number
    with pytest.raises(ValueError):
        parse_line(f"{seq}\tS1\tALICE\tPREPARE\tx")


def test_only_lf_ends_a_line():
    record = TranscriptRecord(1, "S1", "ALICE", "PREPARE", "x\x0cy\x85z\u2028")
    text = format_transcript([record])
    assert parse_transcript(text) == [record]
    assert parse_transcript(text.rstrip("\n")) == [record]


def test_numbered_lines_are_the_formatted_records():
    bodies = ["S1\tALICE\tPREPARE\ttriplets=2", "S11\tALICE\tCOMPLETE\tdecoded=01"]
    records = [TranscriptRecord(n, *body.split("\t")) for n, body in enumerate(bodies, 1)]
    assert number_lines(bodies) == format_transcript(records)
    assert number_lines([]) == ""


@pytest.mark.parametrize("detail", ["x\ty", "x\ny", "x\ry", "x\r\n"])
def test_numbered_lines_reject_a_separator_in_a_field(detail):
    with pytest.raises(ValueError):
        number_lines(["S1\tALICE\tPREPARE\ttriplets=2", f"S4\tBOB\tCHECK_ANNOUNCE\t{detail}"])


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
    body = "\t".join((phase, actor, action, detail))
    numbered = [record._replace(seq=1), record._replace(seq=2)]
    assert number_lines([body, body]) == format_transcript(numbered)
