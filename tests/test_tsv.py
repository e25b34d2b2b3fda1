"""The shared TSV line rules: comments, path:line errors, and writer round trips."""

import json
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geotri.atomic import read_text, read_tsv, write_tsv
from geotri.cli import load_model
from geotri.extract import Triplet, load_patterns, read_triplets_tsv, write_triplets_tsv
from geotri.features import TrainingSet, load_feature_array, write_training_set
from geotri.fuse import Scenario, load_scenario, save_scenario
from geotri.gazetteer import Poi, load_gazetteer

SCENARIO_HEAD = "bbox\t40.0\t116.0\t40.2\t116.2\ndim\t5\nunknown\tx\t40.1\t116.1\n"

# loader, a row with a bad value, a valid row, and the rest of a valid file
LOADERS = {
    "gazetteer": (load_gazetteer, "Bad\t\tnorth\t-71.0", "Boston\t\t42.36\t-71.06", ""),
    "patterns": (load_patterns, "near\tnear\tENTITY BOGUS ENTITY", "near\tnear\tENTITY IN ENTITY", ""),
    "triplets": (
        read_triplets_tsv,
        "A\tnear\tB\tabc\t116.1\t40.2\t116.2",
        "A\tnear\tB\t40.1\t116.1\t40.2\t116.2",
        "",
    ),
    "features": (load_feature_array, "1.5\tabc", "1.5\t90.0", ""),
    "scenario": (load_scenario, "near\tlm\tabc\t116.1", "near\tlm\t40.1\t116.1", SCENARIO_HEAD),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_loader_skips_comments_and_reports_bad_value_with_line(tmp_path, kind):
    load, bad, good, rest = LOADERS[kind]
    path = tmp_path / f"{kind}.tsv"
    path.write_text(f"\n  # a comment\n{bad}\n{good}\n{rest}", encoding="utf-8")
    if kind == "gazetteer":  # the gazetteer skips malformed rows and counts them
        gaz = load_gazetteer(str(path))
        assert (list(gaz.name_index), gaz.skipped_rows) == (["boston"], 1)
        return
    with pytest.raises(ValueError, match=rf"{kind}\.tsv:3: "):
        load(str(path))
    path.write_text(f"\n  # a comment\n{good}\n{rest}", encoding="utf-8")
    load(str(path))


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_loader_reports_bytes_that_are_not_utf8_with_path_and_line(tmp_path, kind):
    load, _, good, rest = LOADERS[kind]
    path = tmp_path / f"{kind}.tsv"
    path.write_bytes(f"{rest}{good}\n".encode() + b"# Bogot\xe9\n")
    lineno = rest.count("\n") + 2
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: not UTF-8 text"):
        load(str(path))


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
MODEL_TEXT = json.dumps(
    {"relation": "near", "component_count": 1,
     "components": [{"weight": 1.0, "mean": [1.0, 2.0], "covariance": [4.0, 0.0, 0.0, 9.0]}]}
)


def _model_values(path):
    model = load_model(path)
    return model.relation, [(c.weight, c.mean.tolist(), c.covariance.tolist()) for c in model.components]


# every kind of input file: its text and a reader whose results compare by value
BOM_INPUTS = {
    "corpus": ((FIXTURES / "corpus.txt").read_text(encoding="utf-8"), read_text),
    "features": ("1.5\t90.0\n2.5\t180.0\n", lambda path: load_feature_array(path).tolist()),
    "gazetteer": ((FIXTURES / "gazetteer.tsv").read_text(encoding="utf-8"), load_gazetteer),
    "model": (MODEL_TEXT, _model_values),
    "patterns": ((FIXTURES / "patterns.tsv").read_text(encoding="utf-8"), load_patterns),  # starts with a comment
    "scenario": ((FIXTURES / "scenario_demo.tsv").read_text(encoding="utf-8"), load_scenario),
    "triplets": ((FIXTURES / "triplets_100.tsv").read_text(encoding="utf-8"), read_triplets_tsv),
}


@pytest.mark.parametrize("kind", sorted(BOM_INPUTS))
def test_every_input_reads_the_same_after_a_leading_byte_order_mark(tmp_path, kind):
    text, read = BOM_INPUTS[kind]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert read(str(marked)) == read(str(plain))


def test_bytes_that_are_not_utf8_after_a_byte_order_mark_report_their_file_offset(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"\xef\xbb\xbfa\tb\nc\xff\n")
    with pytest.raises(ValueError, match=r"rows\.tsv:2: not UTF-8 text: invalid start byte at byte 8$"):
        read_tsv(path, list)


def test_read_tsv_reads_crlf_and_cr_line_ends_as_newlines(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"a\tb\r\n\r\n# c\rd\te\r")
    assert read_tsv(path, list) == [["a", "b"], ["d", "e"]]
    path.write_bytes(b"a\r\nb\rc\xff\n")
    with pytest.raises(ValueError, match=r"rows\.tsv:3: not UTF-8 text"):
        read_tsv(path, list)


@pytest.mark.parametrize(
    "row, message",
    [
        ("A\tnear\tB\t100.0\t116.1\t40.2\t116.2", "coordinates out of range"),
        ("A\tnear\tA\t40.1\t116.1\t40.2\t116.2", "subject and object must differ"),
        ("A\tnear\tB\t40.1\t116.1\t40.2", "expected 7 columns, got 6"),
        ("A\t\tB\t40.1\t116.1\t40.2\t116.2", "relation label must be non-empty"),
    ],
)
def test_triplet_row_checks_report_path_and_line(tmp_path, row, message):
    path = tmp_path / "triplets.tsv"
    path.write_text(f"A\tnear\tB\t40.1\t116.1\t40.2\t116.2\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"triplets\.tsv:2: {message}"):
        read_triplets_tsv(str(path))


@pytest.mark.parametrize(
    "kind, row",
    [
        ("gazetteer", "\t\t40.1\t116.1"),
        ("triplets", "\tnear\tB\t40.1\t116.1\t40.2\t116.2"),
        ("triplets", "A\tnear\t\t40.1\t116.1\t40.2\t116.2"),
        ("scenario", "near\t\t40.1\t116.1"),
        ("scenario", "unknown\t\t40.1\t116.1"),
    ],
)
def test_every_place_loader_refuses_an_empty_name(tmp_path, kind, row):
    load, _, good, rest = LOADERS[kind]
    path = tmp_path / f"{kind}.tsv"
    path.write_text(f"{rest}{good}\n{row}\n", encoding="utf-8")
    if kind == "gazetteer":  # the gazetteer skips the row and counts it
        gaz = load_gazetteer(str(path))
        assert (list(gaz.name_index), gaz.skipped_rows) == (["boston"], 1)
        return
    lineno = rest.count("\n") + 2
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: POI name must be non-empty$"):
        load(str(path))


def test_save_scenario_rejects_label_that_reads_back_as_comment(tmp_path):
    near = Poi("lm", 40.1, 116.1)
    scenario = Scenario(Poi("x", 40.1, 116.1), (("near", near), ("#near", near)), (40.0, 116.0, 40.2, 116.2), 5)
    path = tmp_path / "scenario.tsv"
    with pytest.raises(ValueError, match=r"scenario\.tsv:5: row would not read back"):
        save_scenario(scenario, str(path))
    assert not path.exists()


def test_save_scenario_rejects_label_that_reads_back_as_header(tmp_path):
    near = Poi("lm", 40.1, 116.1)
    scenario = Scenario(Poi("x", 40.1, 116.1), (("unknown", near),), (40.0, 116.0, 40.2, 116.2), 5)
    path = tmp_path / "scenario.tsv"
    with pytest.raises(ValueError, match="read back as the unknown place"):
        save_scenario(scenario, str(path))
    assert not path.exists()


def test_triplet_writer_rejects_name_with_tab(tmp_path):
    triplet = Triplet(Poi("Old\tMarket", 40.1, 116.1), "near", Poi("Gate", 40.2, 116.2))
    path = tmp_path / "triplets.tsv"
    with pytest.raises(ValueError, match="would not read back"):
        write_triplets_tsv([triplet], str(path))
    assert not path.exists()


def test_feature_writer_writes_numpy_floats_as_plain_numbers(tmp_path):
    path = tmp_path / "near.tsv"
    vectors = np.rec.fromarrays([np.array([1.25]), np.array([45.5])], names="distance,orientation")
    write_training_set(TrainingSet(vectors), str(path))
    assert path.read_text(encoding="utf-8") == "1.25\t45.5\n"
    assert load_feature_array(str(path)).tolist() == [[1.25, 45.5]]


@pytest.mark.parametrize(
    "row", [["a\tb"], ["a", "b\nc"], ["a\rb"], [""], [" ", "\t"], ["#x", 1], ["  #x"], []]
)
def test_write_tsv_rejects_rows_that_would_not_read_back(tmp_path, row):
    path = tmp_path / "rows.tsv"
    with pytest.raises(ValueError, match=r"rows\.tsv:2: row would not read back"):
        write_tsv(path, [["ok"], row])
    assert not path.exists()


def test_read_tsv_keeps_surrounding_spaces_and_empty_fields(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text(" a \t\tb#\n\tx\n", encoding="utf-8")
    assert read_tsv(path, list) == [[" a ", "", "b#"], ["", "x"]]


field = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.text(" #\t\n\rab", max_size=4),
    st.integers(),
    st.floats(),
)


@given(st.lists(st.lists(field, min_size=1, max_size=5), max_size=4))
def test_write_then_read_gives_back_the_fields(rows):
    text_rows = [[str(f) for f in row] for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "rows.tsv"
        lines = ["\t".join(row) for row in text_rows]
        broken = any("\t" in f or "\n" in f or "\r" in f for row in text_rows for f in row)
        if broken or not all(line.strip() and line.lstrip()[0] != "#" for line in lines):
            with pytest.raises(ValueError):
                write_tsv(path, rows)
            return
        write_tsv(path, rows)
        assert read_tsv(path, list) == text_rows
