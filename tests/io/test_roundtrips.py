"""Round-trip and error-handling tests for all four I/O formats."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import (
    read_csv,
    read_database,
    read_jsonl,
    read_patterns,
    read_spmf,
    write_csv,
    write_database,
    write_jsonl,
    write_patterns,
    write_spmf,
)
from repro.model.database import ESequenceDatabase
from repro.model.pattern import PatternWithSupport, TemporalPattern

from tests.conftest import make_random_db

FORMATS = {
    "text": (write_database, read_database),
    "spmf": (write_spmf, read_spmf),
    "jsonl": (write_jsonl, read_jsonl),
    "csv": (write_csv, read_csv),
}


def sample_db():
    db = make_random_db(42, num_sequences=8, point_fraction=0.2)
    return ESequenceDatabase(db.sequences, name="sample")


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_round_trip_preserves_sequences(self, fmt, tmp_path):
        write, read = FORMATS[fmt]
        path = tmp_path / f"db.{fmt}"
        db = sample_db()
        write(db, path)
        assert read(path) == db

    @pytest.mark.parametrize("fmt", ["text", "spmf", "jsonl"])
    def test_round_trip_preserves_name(self, fmt, tmp_path):
        write, read = FORMATS[fmt]
        path = tmp_path / "db.dat"
        db = sample_db()
        write(db, path)
        assert read(path).name == "sample"

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_empty_database(self, fmt, tmp_path):
        write, read = FORMATS[fmt]
        path = tmp_path / "empty.dat"
        write(ESequenceDatabase([]), path)
        assert len(read(path)) == 0

    @pytest.mark.parametrize("fmt", ["text", "jsonl", "spmf"])
    def test_empty_sequences_preserved(self, fmt, tmp_path):
        write, read = FORMATS[fmt]
        db = ESequenceDatabase.from_event_lists([[], [(0, 1, "A")], []])
        path = tmp_path / "gaps.dat"
        write(db, path)
        assert read(path) == db

    def test_float_timestamps_round_trip(self, tmp_path):
        db = ESequenceDatabase.from_event_lists([[(0.5, 2.25, "A")]])
        for fmt, (write, read) in FORMATS.items():
            path = tmp_path / f"float.{fmt}"
            write(db, path)
            assert read(path) == db, fmt

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_text_round_trip_property(self, seed, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("io")
        db = make_random_db(seed, num_sequences=5, point_fraction=0.3)
        path = tmp / "db.txt"
        write_database(db, path)
        assert read_database(path) == db


class TestTextFormatErrors:
    def test_malformed_event(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("A,1\n")
        with pytest.raises(ValueError, match="malformed"):
            read_database(path)

    def test_reserved_label_characters_rejected_on_write(self, tmp_path):
        db = ESequenceDatabase.from_event_lists([[(0, 1, "a,b")]])
        with pytest.raises(ValueError, match="reserved"):
            write_database(db, tmp_path / "x.txt")

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# a comment\nA,0,1\n")
        assert len(read_database(path)) == 1

    @pytest.mark.parametrize(
        "bad_line",
        ["a,nan,3;b,1,2", "a,0,inf;b,1,2", "a,-inf,3;b,1,2",
         "a,abc,3;b,1,2", "a,5,3;b,1,2"],
        ids=["nan", "inf", "-inf", "abc", "finish<start"],
    )
    def test_bad_timestamp_fails_loudly_with_its_line(
        self, tmp_path, capsys, bad_line
    ):
        from repro.cli import main

        path = tmp_path / "bad.txt"
        path.write_text(f"# name: bad\na,0,1;b,1,2\n{bad_line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            read_database(path)
        assert main(["mine", str(path), "--min-sup", "0.5"]) != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:3:" in captured.err


class TestReaderLineErrors:
    """Every reader names the file and line of a bad record, and
    ``ptpminer mine`` turns it into exit 2 with nothing on stdout."""

    @pytest.mark.parametrize(
        ("suffix", "content", "line"),
        [
            (".jsonl", '{"_meta": {}}\n{"events": [1]}\n', 2),
            (".jsonl", '{"events": [[NaN, 1, "A"]]}\n', 1),
            (".jsonl", "[1, 2]\n", 1),
            (".csv", "sid,label,start,finish\n0,A,0,1\n0,B,nan,1\n", 3),
            (".csv", "sid,label,start,finish\nx,A,0,1\n", 2),
            (".spmf", "@ITEM=0=A\n0 nan 2 -1 -2\n", 2),
            (".spmf", "@ITEM=0=A\n@ITEM=x=B\n0 1 2 -1 -2\n", 2),
            (".spmf", "@ITEM=0=A\n0 1 2 -1 -2\n0 1 2 -1\n", 3),
        ],
        ids=[
            "jsonl-event-not-a-triple",
            "jsonl-nan",
            "jsonl-not-an-object",
            "csv-nan",
            "csv-bad-sid",
            "spmf-nan",
            "spmf-bad-item-id",
            "spmf-no-terminator",
        ],
    )
    def test_error_names_file_and_line(
        self, tmp_path, capsys, suffix, content, line
    ):
        from repro.cli import main

        path = tmp_path / f"bad{suffix}"
        path.write_text(content)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
            read_database_any(path)
        assert main(["mine", str(path), "--min-sup", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:{line}:" in captured.err


def read_database_any(path):
    """Read ``path`` with the reader its suffix names."""
    readers = {".jsonl": read_jsonl, ".csv": read_csv, ".spmf": read_spmf}
    return readers[path.suffix](path)


class TestSpmfErrors:
    def test_missing_terminator(self, tmp_path):
        path = tmp_path / "bad.spmf"
        path.write_text("@ITEM=0=A\n0 1 2 -1\n")
        with pytest.raises(ValueError, match="-2"):
            read_spmf(path)

    def test_unknown_item_id(self, tmp_path):
        path = tmp_path / "bad.spmf"
        path.write_text("5 1 2 -1 -2\n")
        with pytest.raises(ValueError, match="unknown item"):
            read_spmf(path)

    def test_wrong_arity(self, tmp_path):
        path = tmp_path / "bad.spmf"
        path.write_text("@ITEM=0=A\n0 1 -1 -2\n")
        with pytest.raises(ValueError, match="expected"):
            read_spmf(path)


class TestJsonlErrors:
    def test_bad_format_tag(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"_meta": {"format": "other"}}\n')
        with pytest.raises(ValueError, match="format tag"):
            read_jsonl(path)

    def test_missing_events_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"rows": []}\n')
        with pytest.raises(ValueError, match="events"):
            read_jsonl(path)


class TestCsvErrors:
    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)

    def test_negative_sid(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sid,label,start,finish\n-1,A,0,1\n")
        with pytest.raises(ValueError, match="negative sid"):
            read_csv(path)

    def test_sid_gaps_become_empty_sequences(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("sid,label,start,finish\n0,A,0,1\n2,B,0,1\n")
        db = read_csv(path)
        assert len(db) == 3
        assert len(db[1]) == 0


class TestPatternIO:
    def test_pattern_round_trip(self, tmp_path):
        patterns = [
            PatternWithSupport(TemporalPattern.parse("(A+) (A-)"), 12),
            PatternWithSupport(
                TemporalPattern.parse("(A+ B+) (A-) (B- C.)"), 3
            ),
        ]
        path = tmp_path / "patterns.txt"
        write_patterns(patterns, path)
        assert read_patterns(path) == patterns

    def test_float_supports_round_trip(self, tmp_path):
        patterns = [
            PatternWithSupport(TemporalPattern.parse("(A+) (A-)"), 2.5)
        ]
        path = tmp_path / "patterns.txt"
        write_patterns(patterns, path)
        assert read_patterns(path)[0].support == 2.5

    def test_malformed_pattern_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("12 no-tab-here\n")
        with pytest.raises(ValueError, match="support"):
            read_patterns(path)
