"""Unit tests for the tab-separated transcript format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdcsim.protocol import ProtocolConfig, Session
from csdcsim.transcript import (
    BLOCK_ROWS,
    TranscriptRecord,
    format_line,
    format_transcript,
    parse_line,
    parse_transcript,
    _render,
    transcript_blocks,
    write_transcript,
)
from transcript_reference import reference_records

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


def small_trial_values(sender="BOB", receiver="ALICE", controller="CTRL1", abort_triplet=None):
    """A four-triplet trial as write_transcript's keyword arguments: group 1
    checks, group 2 encodes unless the trial aborts."""
    return dict(
        triplets=4, sender=sender, receiver=receiver, controllers=[controller],
        tap=([0, 1, 1, 0], [0, 1, 0, 0]), checking=[1], encoding=[2], check_bases=[0, 1],
        check_bits={sender: [0, 1], receiver: [0, 1], controller: [0, 0]}, violations=0,
        abort_triplet=abort_triplet, controller_bits={controller: [1, 0]}, parities=[1, 0],
        ops=[2], sender_bell=[0], receiver_bell=[3], decoded="10",
    )


def small_trial(**names) -> str:
    """The transcript of ``small_trial_values``."""
    return write_transcript(**small_trial_values(**names))


def test_numbered_lines_are_the_formatted_records():
    text = small_trial()
    records = parse_transcript(text)
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    assert format_transcript(records) == text
    assert records[-1] == TranscriptRecord(len(records), "S11", "ALICE", "COMPLETE", "decoded=10")


@pytest.mark.parametrize("detail", ["x\ty", "x\ny", "x\ry", "x\r\n"])
def test_numbered_lines_reject_a_separator_in_a_field(detail):
    # before any block is taken, so a writer opens no file for a bad field
    for role in ("sender", "receiver", "controller"):
        for abort_triplet in (None, 2):
            with pytest.raises(ValueError):
                transcript_blocks(**small_trial_values(**{role: detail}, abort_triplet=abort_triplet))
    with pytest.raises(ValueError):
        transcript_blocks(**{**small_trial_values(), "decoded": detail})


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
    # any party names without a separator are written as records that parse back
    names = dict(sender=phase, receiver=actor, controller=action)
    text = small_trial(**names)
    records = parse_transcript(text)
    assert format_transcript(records) == text
    assert {r.actor for r in records} == set(names.values()) | {"EVE"}


# The writer renders numbers as digit columns and names from tables, both
# padded with a byte that it then drops.


def rendered(template, **fields):
    return b"".join(text for _, text in _render(template, fields)).decode("utf-8", "surrogatepass")


def test_every_number_below_100000_renders_as_str():
    numbers = np.arange(100_000)
    assert rendered("{n},", n=numbers) == "".join(f"{n}," for n in range(100_000))
    # blocks whose largest number is a power of ten, or one short of it
    for top in [10**k + d for k in range(5) for d in (-1, 0)]:
        assert rendered("{n},", n=numbers[: top + 1]) == "".join(f"{n}," for n in range(top + 1))


# a NUL, U+00FF (whose UTF-8 holds no 0xFF byte), an emoji and a lone surrogate
@pytest.mark.parametrize("char", ["\x00", "\xff", "\U0001F600", "\ud800"])
@pytest.mark.parametrize("abort_triplet", [None, 2])
def test_party_names_of_any_character_match_the_reference_records(char, abort_triplet):
    names = dict(sender=f"B{char}", receiver=f"{char}A", controller=f"C{char}{char}")
    values = small_trial_values(**names, abort_triplet=abort_triplet)
    assert write_transcript(**values) == format_transcript(reference_records(**values))


def test_tuples_render_as_lists_do():
    tuples = write_transcript(
        4, "BOB", "ALICE", ("CTRL1",), ((0, 1, 1, 0), (0, 1, 0, 0)), (1,), (2,), (0, 1),
        {"BOB": (0, 1), "ALICE": (0, 1), "CTRL1": (0, 0)}, 0, None,
        controller_bits={"CTRL1": (1, 0)}, parities=(1, 0), ops=(2,), sender_bell=(0,),
        receiver_bell=(3,), decoded="10",
    )
    assert tuples == small_trial()


def wide_trial_values() -> dict:
    """The outcomes of an honest T=4096, P=12 trial, whose transcript is
    the widest there is: 50,212 lines."""
    cfg = ProtocolConfig(triplet_count=4096, message_bits="10" * 1024, party_count=12, seed=7)
    return Session(cfg).run().outcomes


def test_blocks_are_whole_lines_at_most_block_rows_each():
    values = wide_trial_values()
    blocks = list(transcript_blocks(**values))
    assert all(block.endswith("\n") for block in blocks)
    assert max(block.count("\n") for block in blocks) == BLOCK_ROWS
    assert sum(block.count("\n") for block in blocks) == 50_212


def test_a_transcript_written_block_by_block_is_never_held_whole(tmp_path):
    # the traced peak while the widest transcript goes to a file stays below
    # the size of the text; rendering it whole first, then writing it, holds
    # the text several times over
    values, path = wide_trial_values(), tmp_path / "transcript.tsv"
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            out.writelines(transcript_blocks(**values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 3_000_000
    assert peak < size, (peak, size)
