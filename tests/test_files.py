import os
from pathlib import Path

import pytest

from casevec import cli
from casevec.articles import ArticleSpec, load_article_specs
from casevec.evaluation import QrelSet, QueryCase, load_queries
from casevec.files import (
    claim,
    open_output,
    read_json_objects,
    read_rows,
    write_json_lines,
    write_rows,
)
from casevec.relevance import CaseDocument, load_cases
from casevec.synth import SynthCorpus, load_labels, write_corpus


def test_creates_a_new_file(tmp_path):
    path = tmp_path / "out.txt"
    with open_output(str(path), encoding="utf-8") as fh:
        fh.write("abc\n")
    assert path.read_text(encoding="utf-8") == "abc\n"


def test_shorter_rewrite_leaves_no_old_tail(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("a much longer first version\n", encoding="utf-8")
    with open_output(str(path), encoding="utf-8") as fh:
        fh.write("short\n")
    assert path.read_text(encoding="utf-8") == "short\n"


def test_open_does_not_truncate_to_zero(tmp_path):
    # the point of open_output: the file is cut to its new length on exit,
    # never to zero on open
    path = tmp_path / "out.txt"
    path.write_text("0123456789", encoding="utf-8")
    with open_output(str(path), encoding="utf-8") as fh:
        assert os.path.getsize(path) == 10
        fh.write("ab")
    assert path.read_text(encoding="utf-8") == "ab"


def test_binary_mode(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"\xff" * 10)
    with open_output(str(path), "wb") as fh:
        fh.write(b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"


def test_newline_argument_is_passed_on(tmp_path):
    path = tmp_path / "out.csv"
    with open_output(str(path), encoding="utf-8", newline="") as fh:
        fh.write("a\r\n")
    assert path.read_bytes() == b"a\r\n"


def test_writer_that_raises_leaves_only_what_it_wrote(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old contents that are longer\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with open_output(str(path), encoding="utf-8") as fh:
            fh.write("new")
            raise RuntimeError("writer failed")
    assert path.read_text(encoding="utf-8") == "new"


def test_rewrite_keeps_the_inode_and_permissions(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("first\n", encoding="utf-8")
    os.chmod(path, 0o600)
    before = os.stat(path)
    with open_output(str(path), encoding="utf-8") as fh:
        fh.write("second\n")
    after = os.stat(path)
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


@pytest.mark.parametrize("mode", ["a", "r+", "x", "w+"])
def test_other_modes_rejected(tmp_path, mode):
    with pytest.raises(ValueError, match="mode"):
        with open_output(str(tmp_path / "out.txt"), mode):
            pass
    assert not (tmp_path / "out.txt").exists()


def test_missing_directory_raises_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        with open_output(str(tmp_path / "nope" / "out.txt")):
            pass


class TextError(ValueError):
    pass


def test_read_rows_cites_the_line_a_row_ends_on_and_yields_empty_rows(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b'a\tb\n\n"multi\nline\nid"\tc\nd\te\n')
    assert list(read_rows(str(path), TextError, delimiter="\t")) == [
        (1, ["a", "b"]), (2, []), (5, ["multi\nline\nid", "c"]), (6, ["d", "e"])]


def test_read_rows_turns_a_csv_error_into_the_given_error_at_its_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\nc,d\n" + "x" * 140_000 + ",y\n", encoding="utf-8")
    rows = read_rows(str(path), TextError)
    assert [row for _, row in zip(range(2), rows)] == [(1, ["a", "b"]), (2, ["c", "d"])]
    with pytest.raises(TextError) as excinfo:
        next(rows)
    assert str(excinfo.value) == f"{path}:3: field larger than field limit (131072)"


@pytest.mark.parametrize("read", [read_rows, read_json_objects], ids=["rows", "json-lines"])
def test_a_byte_that_is_not_utf8_is_cited_at_the_line_that_holds_it(tmp_path, read):
    """The text layer meets the byte while it decodes ahead, about 200
    lines before the one that holds it; lines end in \\r\\n, \\r or \\n."""
    path = tmp_path / "t.txt"
    path.write_bytes(b'{"a": 1}\r\n' * 1000 + b'{"a": 2}\r{"a": 3}\n{"a": "\xe9t\xe9"}\n')
    with pytest.raises(TextError) as excinfo:
        list(read(str(path), TextError))
    assert str(excinfo.value) == (f"{path}:1003: 'utf-8' codec can't decode byte 0xe9"
                                  " in position 7: invalid continuation byte")


def test_claim_records_the_first_line_of_each_distinct_key():
    first_line = {}
    for line, key in [(1, "a"), (2, "b"), (4, "c")]:
        claim(first_line, key, "f.txt", line, TextError, "id")
    assert first_line == {"a": 1, "b": 2, "c": 4}


def test_claim_raises_the_callers_error_citing_both_lines():
    first_line = {"a": 1, "b": 3}
    with pytest.raises(TextError) as excinfo:
        claim(first_line, "b", "f.txt", 7, TextError, "id")
    assert str(excinfo.value) == "f.txt:7: id 'b' repeats line 3"
    assert first_line == {"a": 1, "b": 3}


def test_claim_prints_a_tuple_key_as_its_repr():
    first_line = {}
    claim(first_line, ("q", "c\nd"), "f.tsv", 2, TextError, "pair")
    with pytest.raises(TextError) as excinfo:
        claim(first_line, ("q", "c\nd"), "f.tsv", 5, TextError, "pair")
    assert str(excinfo.value) == "f.tsv:5: pair ('q', 'c\\nd') repeats line 2"


@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_write_rows_round_trips_through_read_rows(tmp_path, delimiter):
    path = tmp_path / "t.txt"
    rows = [["id", "value"], ["a,b", "1"], ['q"uote', "x\ty"], ["line\nbreak", ""]]
    write_rows(str(path), iter(rows), delimiter=delimiter)
    assert path.read_bytes().count(b"\r") == 0
    assert [row for _, row in read_rows(str(path), TextError, delimiter)] == rows


def test_write_json_lines_writes_one_sorted_key_object_per_line(tmp_path):
    path = tmp_path / "t.jsonl"
    write_json_lines(str(path), [{"b": 1, "a": "x"}, {"c": [1.5]}])
    assert path.read_bytes() == b'{"a": "x", "b": 1}\n{"c": [1.5]}\n'
    assert list(read_json_objects(str(path), TextError)) == [
        (1, {"a": "x", "b": 1}), (2, {"c": [1.5]})]


HAN = "盗窃罪"  # theft, a charge of the PRC Criminal Law


def test_non_ascii_text_is_written_as_utf8_and_reads_back(tmp_path):
    """Cases, queries, qrels, labels and expanded branches all keep
    non-ASCII text as UTF-8 bytes, never as \\uXXXX escapes."""
    case = CaseDocument(f"case-{HAN}", facts=f"facts {HAN}", holding=HAN,
                        decision=f"decided {HAN}", articles=frozenset({f"art-{HAN}"}))
    query = QueryCase(f"query-{HAN}", facts=f"{HAN} facts")
    corpus = SynthCorpus(
        article_specs=[ArticleSpec(f"art-{HAN}", [[[HAN], ["x"]]])], cases=[case],
        case_branches={case.case_id: (f"art-{HAN}", 0)}, queries=[query],
        query_branches={query.query_id: (f"art-{HAN}", 0)},
        qrels=QrelSet({(query.query_id, case.case_id): 3}))
    paths = write_corpus(corpus, str(tmp_path / "corpus"))
    branches = tmp_path / "branches.jsonl"
    assert cli.main(["expand-articles", "--articles", paths["articles"],
                     "--out", str(branches)]) == 0

    utf8 = HAN.encode("utf-8")
    for path in [*map(Path, paths.values()), branches]:
        data = path.read_bytes()
        assert utf8 in data and b"\\u" not in data, path
    assert load_cases(paths["cases"]) == [case]
    assert load_queries(paths["queries"]) == [query]
    assert QrelSet.from_tsv(paths["qrels"]).grades == corpus.qrels.grades
    assert load_labels(paths["labels"]) == {
        case.case_id: f"art-{HAN}:b0", query.query_id: f"art-{HAN}:b0"}
    assert load_article_specs(paths["articles"]) == corpus.article_specs
    assert [obj for _, obj in read_json_objects(str(branches), TextError)] == [
        {"article_id": f"art-{HAN}", "branch_index": 0, "keyword_sequence": [HAN, "x"]}]
