"""Relevance weights: argmax agreement, cosine fallback, directionality."""

import ast
import csv
import io
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import casevec
from casevec import relevance
from casevec.articles import build_corpus
from casevec.bm25 import SimilarityProfile, build_index, compute_profiles
from casevec.cli import main as cli_main
from casevec.relevance import (
    CaseDocument,
    RelevanceError,
    WeightTable,
    load_cases,
    pairwise_weights,
    rel,
    save_cases,
    weight,
)
from casevec.sampling import Quadruple, build_batch, class_partition, sample_quadruples
from casevec.synth import SynthSpec, generate
from casevec.text import TokenizerConfig

from _helpers import cosine_reference, weight_csv_reference


def profile(case_id, **vectors):
    return SimilarityProfile(
        case_id=case_id,
        vectors={k: np.asarray(v, dtype=np.float64) for k, v in vectors.items()},
    )


def case(case_id, articles, facts="some facts", holding="h"):
    return CaseDocument(
        case_id=case_id, facts=facts, holding=holding, articles=frozenset(articles)
    )


class TestRel:
    def test_equal_nonzero_vectors_give_one(self):
        a = frozenset({"k"})
        p1 = profile("c1", k=[0.5, 2.0])
        p2 = profile("c2", k=[0.5, 2.0])
        assert rel(p1, p2, a, a) == 1.0

    def test_orthogonal_different_argmax_gives_zero(self):
        a = frozenset({"k"})
        assert rel(profile("c1", k=[1.0, 0.0]), profile("c2", k=[0.0, 1.0]), a, a) == 0.0

    def test_max_rule_over_shared_articles(self):
        """Cosines of roughly 0.6 and 0.9 with no argmax agreement: the
        larger one wins."""
        arts = frozenset({"x", "y"})
        # x: cos 0.6, argmax 0 vs 1; y: cos 0.9, argmax 1 vs 0
        a = 0.626793
        p1 = profile("c1", x=[1.0, 0.0], y=[a, 1.0])
        p2 = profile("c2", x=[0.6, 0.8], y=[1.0, a])
        expected = max(
            cosine_reference([1.0, 0.0], [0.6, 0.8]),
            cosine_reference([a, 1.0], [1.0, a]),
        )
        assert expected == pytest.approx(0.9, abs=1e-5)
        assert rel(p1, p2, arts, arts) == pytest.approx(expected, abs=1e-12)

    def test_no_shared_articles_gives_zero(self):
        p1 = profile("c1", k=[1.0])
        p2 = profile("c2", j=[1.0])
        assert rel(p1, p2, frozenset({"k"}), frozenset({"j"})) == 0.0

    def test_zero_vector_never_triggers_argmax_rule(self):
        a = frozenset({"k"})
        p1 = profile("c1", k=[0.0, 0.0])
        p2 = profile("c2", k=[0.0, 0.0])
        assert rel(p1, p2, a, a) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        arts = frozenset({"x", "y"})
        for _ in range(20):
            p1 = profile("c1", x=rng.uniform(0, 2, 3), y=rng.uniform(0, 2, 2))
            p2 = profile("c2", x=rng.uniform(0, 2, 3), y=rng.uniform(0, 2, 2))
            assert rel(p1, p2, arts, arts) == pytest.approx(rel(p2, p1, arts, arts), abs=1e-12)

    def test_scale_invariance(self):
        arts = frozenset({"x"})
        base1 = np.array([0.3, 0.7, 0.1])
        base2 = np.array([0.2, 0.1, 0.9])
        r = rel(profile("c1", x=base1), profile("c2", x=base2), arts, arts)
        r_scaled = rel(profile("c1", x=7.5 * base1), profile("c2", x=0.01 * base2), arts, arts)
        assert r == pytest.approx(r_scaled, abs=1e-12)

    def test_missing_shared_article_rejected(self):
        arts = frozenset({"x"})
        with pytest.raises(RelevanceError, match="does not cover"):
            rel(profile("c1", y=[1.0]), profile("c2", x=[1.0]), arts, arts)

    def test_argmax_tie_breaks_to_lowest_index(self):
        a = frozenset({"k"})
        p1 = profile("c1", k=[1.0, 1.0])
        p2 = profile("c2", k=[2.0, 1.0])
        assert rel(p1, p2, a, a) == 1.0


class TestWeight:
    def test_self_weight_is_one(self):
        c = case("c1", {"k"})
        profiles = {"c1": profile("c1", k=[0.0, 1.5])}
        assert weight(c, c, profiles).value == 1.0

    def test_disjoint_articles_weigh_zero(self):
        ci, cj = case("c1", {"a"}), case("c2", {"b"})
        profiles = {"c1": profile("c1", a=[1.0], b=[0.0]),
                    "c2": profile("c2", a=[0.0], b=[1.0])}
        assert weight(ci, cj, profiles).value == 0.0

    def test_directional_half_versus_full(self):
        """A two-article case against a one-article case with argmax
        agreement on the shared article: 0.5 one way, 1.0 the other."""
        ci = case("c1", {"k1", "k2"})
        cj = case("c2", {"k1"})
        profiles = {
            "c1": profile("c1", k1=[2.0, 0.5], k2=[1.0]),
            "c2": profile("c2", k1=[1.0, 0.2], k2=[0.0]),
        }
        assert weight(ci, cj, profiles).value == pytest.approx(0.5)
        assert weight(cj, ci, profiles).value == pytest.approx(1.0)

    def test_empty_source_articles_rejected(self):
        ci = case("c1", set())
        cj = case("c2", {"k"})
        with pytest.raises(RelevanceError, match="empty article set"):
            weight(ci, cj, {"c1": profile("c1"), "c2": profile("c2", k=[1.0])})


class TestPairwiseWeights:
    def make_three(self):
        cases = [case("c1", {"a"}), case("c2", {"a"}), case("c3", {"a", "b"})]
        profiles = {
            "c1": profile("c1", a=[1.0, 0.0], b=[0.0]),
            "c2": profile("c2", a=[0.8, 0.1], b=[0.0]),
            "c3": profile("c3", a=[0.0, 2.0], b=[1.0]),
        }
        return cases, profiles

    def test_single_case_table(self):
        cases, profiles = self.make_three()
        table = pairwise_weights(cases[:1], profiles)
        assert table.matrix.shape == (1, 1)
        assert table.get("c1", "c1") == 1.0

    def test_matches_individual_weight_calls(self):
        cases, profiles = self.make_three()
        table = pairwise_weights(cases, profiles)
        for ci in cases:
            for cj in cases:
                assert table.get(ci.case_id, cj.case_id) == pytest.approx(
                    weight(ci, cj, profiles).value, abs=1e-15
                )

    def test_values_in_unit_interval(self):
        cases, profiles = self.make_three()
        table = pairwise_weights(cases, profiles)
        assert np.all(table.matrix >= 0.0)
        assert np.all(table.matrix <= 1.0)

    def test_asymmetry_shows_up(self):
        cases, profiles = self.make_three()
        table = pairwise_weights(cases, profiles)
        assert table.get("c3", "c2") != table.get("c2", "c3")

    def test_duplicate_case_ids_rejected(self):
        cases, profiles = self.make_three()
        with pytest.raises(RelevanceError, match="case id 'c1' is not unique"):
            pairwise_weights(cases + cases[:1], profiles)

    def test_empty_article_set_names_the_case(self):
        cases, profiles = self.make_three()
        cases[1] = case("c2", set())
        with pytest.raises(RelevanceError, match="case 'c2' has an empty article set"):
            pairwise_weights(cases, profiles)

    def test_profile_missing_a_cited_article_names_the_case(self):
        cases, profiles = self.make_three()
        profiles["c3"] = profile("c3", a=[0.0, 2.0])
        with pytest.raises(RelevanceError,
                           match="profile of case 'c3' does not cover its article 'b'"):
            pairwise_weights(cases, profiles)

    def test_missing_profile_names_the_case(self):
        cases, profiles = self.make_three()
        del profiles["c2"]
        with pytest.raises(RelevanceError, match="profile of case 'c2' is missing"):
            pairwise_weights(cases, profiles)
        with pytest.raises(RelevanceError, match="profile of case 'c2' is missing"):
            weight(cases[0], cases[1], profiles)
        with pytest.raises(RelevanceError, match="profile of case 'c2' is missing"):
            weight(cases[1], cases[0], profiles)

    def test_computed_per_article_not_per_pair(self, monkeypatch):
        """The table never falls back to the scalar oracles."""
        cases = [case("c1", {"a", "b"}), case("c2", {"b", "c"}), case("c3", {"a", "c"})]
        profiles = {cid: profile(cid, a=[1.0, 0.5], b=[0.2, 0.9, 0.1], c=[0.3, 0.3])
                    for cid in ("c1", "c2", "c3")}
        expected = [[weight(ci, cj, profiles).value for cj in cases] for ci in cases]

        def refuse(*args):
            raise AssertionError("pairwise_weights called a scalar oracle")

        monkeypatch.setattr(relevance, "weight", refuse)
        monkeypatch.setattr(relevance, "rel", refuse)
        monkeypatch.setattr(relevance, "_cosine", refuse)
        assert pairwise_weights(cases, profiles).matrix.tolist() == expected

    def test_csv_round_trip(self, tmp_path):
        cases, profiles = self.make_three()
        table = pairwise_weights(cases, profiles)
        path = tmp_path / "weights.csv"
        table.to_csv(str(path))
        loaded = WeightTable.from_csv(str(path))
        assert loaded.ids == table.ids
        assert np.array_equal(loaded.matrix, table.matrix)

    @pytest.mark.parametrize("bad_row, message", [
        ("a,b", "bad row"),
        ("a,b,0.5,extra", "bad row"),
        ("a,b,heavy", "bad row"),
        ("a,b,nan", "not in [0, 1]"),
        ("a,b,7", "not in [0, 1]"),
        ("a,b,-0.5", "not in [0, 1]"),
        ("a,a,0.5", "duplicate pair"),
        ("a,zzz,0.7", "target 'zzz' is not a source id"),
    ])
    def test_bad_csv_row_names_path_and_line(self, tmp_path, capsys, bad_row, message):
        path = tmp_path / "weights.csv"
        path.write_text("source_id,target_id,value\na,a,1.0\n" + bad_row + "\n"
                        "b,a,0.0\nb,b,1.0\n")
        with pytest.raises(RelevanceError) as excinfo:
            WeightTable.from_csv(str(path))
        assert str(excinfo.value).startswith(f"{path}:3: ")
        assert message in str(excinfo.value)
        code = cli_main(["sample", "--weights", str(path), "--out", str(tmp_path / "b.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3: ")


WEIGHT_IDS = ["c0", "c1", "c2", "c3", "c4", "x,y", 'q"t', "two\nlines", "\u00e9t\u00e9", ""]
DEFECTS = ["short", "long", "not-float", "nan", "out-of-range", "duplicate", "unknown-target",
           "missing-pair", "blank", "over-field-limit"]


def weight_csv_rows(rng):
    """Rows of a weight CSV over 1-5 ids, shuffled or not, then 0-3 defects
    at random lines; or a header-only or bad-header file."""
    kind = rng.random()
    if kind < 0.04:
        return [["source_id", "target_id", "value"]]
    n = int(rng.integers(1, 6))
    ids = [WEIGHT_IDS[k] for k in rng.choice(len(WEIGHT_IDS), n, replace=False)]
    values = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
    values[rng.random((n, n)) < 0.1] = 1.0
    rows = [[a, b, repr(float(values[i, j]))] for i, a in enumerate(ids) for j, b in enumerate(ids)]
    if rng.random() < 0.5:
        rows = [rows[k] for k in rng.permutation(len(rows))]
    for defect in rng.choice(DEFECTS, int(rng.integers(0, 4))):
        at = int(rng.integers(0, len(rows) + 1))
        src, tgt = ids[int(rng.integers(0, n))], ids[int(rng.integers(0, n))]
        if defect == "missing-pair":
            if rows:
                del rows[min(at, len(rows) - 1)]
            continue
        rows.insert(at, {
            "short": [src, tgt],
            "long": [src, tgt, "0.5", "x"],
            "not-float": [src, tgt, "heavy"],
            "nan": [src, tgt, "nan"],
            "out-of-range": [src, tgt, str(rng.choice(["1.5", "-0.25", "inf", "1e-400x"]))],
            "duplicate": [src, tgt, "0.25"],
            "unknown-target": [src, "ghost", "0.5"],
            "blank": [],
            "over-field-limit": [src, "z" * 80, "0.5"],
        }[defect])
    header = ["source_id", "target_id", "value"] if kind > 0.08 else ["source_id", "value"]
    return [header] + rows


def read_outcome(read, path):
    """What a reader gives for a file: its ids and matrix bytes, or the
    type and text of the error it raises."""
    try:
        ids, matrix = read(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return ids, matrix.dtype, matrix.shape, matrix.tobytes()


@pytest.mark.parametrize("block_rows", [1, 4, 2048])
def test_reader_matches_the_row_by_row_reader(tmp_path, monkeypatch, block_rows):
    """``from_csv`` against the row-by-row reader on 400 seeded files with
    quoted ids (``,``, ``"`` and a newline, so rows span lines), shuffled
    rows, targets read before they are sources, and up to three defects at
    random lines. A 64-character field limit makes the reader itself fail
    on the over-limit rows. Both readers give the same ids and matrix, or
    a ``ValueError`` of the same type and text, line number included."""
    def new_reader(path):
        table = WeightTable.from_csv(path)
        return table.ids, table.matrix

    def reference_reader(path):
        try:
            return weight_csv_reference(path)
        except ValueError as exc:
            raise RelevanceError(str(exc)) from None

    monkeypatch.setattr(relevance, "_BLOCK_ROWS", block_rows)
    limit = csv.field_size_limit(64)
    seen = {}
    target_first = 0
    try:
        rng = np.random.default_rng(block_rows)
        for k in range(400):
            rows = weight_csv_rows(rng)
            path = str(tmp_path / f"w{k}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
            expected = read_outcome(reference_reader, path)
            assert read_outcome(new_reader, path) == expected, path
            if isinstance(expected[0], str):
                message = expected[1]
                key = next((m for m in ("bad row", "is not in [0, 1]", "duplicate pair",
                                        "is not a source id", "missing pair", "holds no weight",
                                        "unexpected weight CSV header", "field larger")
                            if m in message), message)
                seen[key] = seen.get(key, 0) + 1
            else:
                seen["table"] = seen.get("table", 0) + 1
                sources = set()
                for src, tgt, _ in rows[1:]:
                    sources.add(src)
                    if tgt not in sources:
                        target_first += 1
                        break
    finally:
        csv.field_size_limit(limit)
    assert set(seen) == {"table", "bad row", "is not in [0, 1]", "duplicate pair",
                         "is not a source id", "missing pair", "holds no weight",
                         "unexpected weight CSV header", "field larger"}, seen
    assert min(seen.values()) >= 5, seen
    assert target_first >= 20


@pytest.mark.parametrize("block_rows", [1, 4, 2048])
def test_valid_files_never_reach_the_row_by_row_pass(tmp_path, monkeypatch, block_rows):
    """``to_csv`` output over quoted, multi-line, non-ASCII and empty ids
    reads back in the block pass alone."""
    def refuse(path):
        raise AssertionError(f"{path} was read row by row")

    monkeypatch.setattr(relevance, "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(relevance, "_raise_first_error", refuse)
    rng = np.random.default_rng(block_rows)
    for n in range(1, len(WEIGHT_IDS) + 1):
        table = WeightTable(WEIGHT_IDS[:n], rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6))
        path = str(tmp_path / f"w{n}.csv")
        table.to_csv(path)
        loaded = WeightTable.from_csv(path)
        assert loaded.ids == table.ids
        assert loaded.matrix.tobytes() == table.matrix.tobytes()


def refuse_row_by_row(monkeypatch):
    def refuse(path):
        raise AssertionError(f"{path} was read row by row")

    monkeypatch.setattr(relevance, "_raise_first_error", refuse)


def count_calls(monkeypatch, name):
    """Count the calls of ``relevance.<name>`` in the returned list's one item."""
    calls = [0]
    original = getattr(relevance, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(relevance, name, counted)
    return calls


@pytest.mark.parametrize("block_rows", [1, 4, 2048])
@pytest.mark.parametrize("last_id", ['q"t', "x,y"])
def test_hand_off_to_csv_reader_in_mid_file(tmp_path, monkeypatch, block_rows, last_id):
    """Every id is plain but the last source's, which needs quoting. Plain
    blocks are split in one pass until the first line that holds it; that
    line and the rest of the file go to ``csv.reader``. The file reads back
    bit-identical, whether it is ``to_csv``'s or puts every row of the
    quoted id last, and never reaches the row-by-row pass."""
    refuse_row_by_row(monkeypatch)
    monkeypatch.setattr(relevance, "_BLOCK_ROWS", block_rows)
    plain_calls = count_calls(monkeypatch, "_plain_columns")
    reader_calls = count_calls(monkeypatch, "_block_columns")
    n = 50
    rng = np.random.default_rng(block_rows)
    ids = [f"c{k}" for k in range(n - 1)] + [last_id]
    table = WeightTable(ids, rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.3))
    written = str(tmp_path / "written.csv")
    table.to_csv(written)
    pairs = sorted(((a, b) for a in ids for b in ids), key=lambda pair: last_id in pair)
    late = str(tmp_path / "quoted_last.csv")
    with open(late, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source_id", "target_id", "value"])
        writer.writerows([a, b, repr(table.get(a, b))] for a, b in pairs)
    # the rows before the first that holds the quoted id: c0's to it, or all of c0-c48's
    for path, plain_rows in ((written, n - 1), (late, (n - 1) ** 2)):
        plain_calls[0] = reader_calls[0] = 0
        loaded = WeightTable.from_csv(path)
        assert loaded.ids == ids
        assert loaded.matrix.tobytes() == table.matrix.tobytes()
        assert plain_calls[0] == plain_rows // block_rows
        assert reader_calls[0] >= 1


@pytest.mark.parametrize("header, newline", [
    ('"source_id",target_id,value', "\n"),
    ("source_id,target_id,value", "\r\n"),
])
def test_header_or_line_ends_written_otherwise_read_through_csv_reader(
        tmp_path, monkeypatch, header, newline):
    """A quoted header, or ``\\r\\n`` line ends, is still a weight CSV:
    ``csv.reader`` reads the file, as the row-by-row reader does."""
    refuse_row_by_row(monkeypatch)
    plain_calls = count_calls(monkeypatch, "_plain_columns")
    ids = ["a", "b,c", "d"]
    table = WeightTable(ids, np.array([[1.0, 0.0, 0.25], [0.5, 1.0, 0.0], [-0.0, 0.1, 1.0]]))
    reference = io.StringIO()
    csv.writer(reference, lineterminator=newline).writerows(
        [a, b, repr(table.get(a, b))] for a in ids for b in ids)
    path = tmp_path / "weights.csv"
    path.write_bytes((header + newline + reference.getvalue()).encode("utf-8"))
    expected_ids, expected = weight_csv_reference(str(path))
    loaded = WeightTable.from_csv(str(path))
    assert loaded.ids == expected_ids == ids
    assert loaded.matrix.tobytes() == expected.tobytes() == table.matrix.tobytes()
    assert plain_calls[0] == 0


@pytest.mark.parametrize("block_rows", [1, 4, 2048])
def test_plain_rows_are_checked_line_by_line(tmp_path, monkeypatch, block_rows):
    """A 4-field line, then a 2-field line: the block holds two commas per
    line on average, and split at every comma the fields would fill a
    valid 2×2 table. The error is the row-by-row reader's."""
    monkeypatch.setattr(relevance, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "weights.csv"
    path.write_text("source_id,target_id,value\na,a,1.0\na,b,0.5,b\na,0.25\nb,b,1.0\n")
    with pytest.raises(ValueError) as expected:
        weight_csv_reference(str(path))
    with pytest.raises(RelevanceError) as excinfo:
        WeightTable.from_csv(str(path))
    assert str(excinfo.value) == str(expected.value)
    assert str(excinfo.value).startswith(f"{path}:3: bad row ")


@pytest.mark.parametrize("long_id, message", [
    ("z" * 65, "field larger than field limit (64)"),
    ("z" * 64, None),
    ("\u00e9" * 40, None),  # 40 characters in 80 bytes: the limit counts characters
])
def test_field_size_limit_applies_as_in_csv_reader(tmp_path, long_id, message):
    """A valid table with an id near a 64-character field limit: one over
    it fails at its first line, as in ``csv.reader``; one at it reads back."""
    table = WeightTable(["a", long_id], np.array([[1.0, 0.5], [0.0, 1.0]]))
    path = str(tmp_path / "weights.csv")
    table.to_csv(path)
    limit = csv.field_size_limit(64)
    try:
        if message is None:
            assert WeightTable.from_csv(path).matrix.tobytes() == table.matrix.tobytes()
        else:
            with pytest.raises(RelevanceError) as excinfo:
                WeightTable.from_csv(path)
            assert str(excinfo.value) == f"{path}:3: {message}"
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("block_rows", [1, 2048])
@pytest.mark.parametrize("odd_id", ["b\rb", "b\0b"])
def test_carriage_return_or_nul_read_as_csv_reader_reads_them(tmp_path, monkeypatch,
                                                              block_rows, odd_id):
    """An unquoted id with a lone ``\\r``, which ends a ``csv.reader`` row,
    or a NUL, which ``csv.reader`` rejects before Python 3.11, in an
    otherwise valid file: the outcome is the row-by-row reader's."""
    monkeypatch.setattr(relevance, "_BLOCK_ROWS", block_rows)
    path = str(tmp_path / "weights.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("source_id,target_id,value\n")
        fh.writelines(f"{a},{b},0.5\n" for a in ("a", odd_id) for b in ("a", odd_id))

    def new_reader(path):
        table = WeightTable.from_csv(path)
        return table.ids, table.matrix

    def reference_reader(path):
        try:
            return weight_csv_reference(path)
        except ValueError as exc:
            raise RelevanceError(str(exc)) from None

    assert read_outcome(new_reader, path) == read_outcome(reference_reader, path)


def test_last_line_without_a_line_break_reads_back(tmp_path, monkeypatch):
    refuse_row_by_row(monkeypatch)
    path = tmp_path / "weights.csv"
    path.write_text("source_id,target_id,value\na,a,1.0\na,b,0.5\nb,a,0.0\nb,b,0.25")
    loaded = WeightTable.from_csv(str(path))
    assert loaded.ids == ["a", "b"]
    assert loaded.matrix.tolist() == [[1.0, 0.5], [0.0, 0.25]]


def test_reader_names_the_line_after_a_multi_line_id(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text('source_id,target_id,value\n"a\nb","a\nb",1.0\n"a\nb","a\nb",0.5\n')
    with pytest.raises(RelevanceError) as excinfo:
        WeightTable.from_csv(str(path))
    assert str(excinfo.value) == f"{path}:7: duplicate pair ('a\\nb', 'a\\nb')"


def oracle_matrix(cases, profiles):
    return np.array([[weight(ci, cj, profiles).value for cj in cases] for ci in cases])


def multi_article_corpus(seed):
    """3-9 cases citing 1-3 of 4 articles of 2-5 branches each. Only the
    first case cites ``d``, and the last case's whole profile is zero.
    Vectors are zero, small integers (argmax ties, equal peaks), sparse
    floats, or a scaled copy of an earlier case's vector (cosine 1)."""
    rng = np.random.default_rng(seed)
    branches = {a: int(rng.integers(2, 6)) for a in "abcd"}
    n = int(rng.integers(3, 10))
    cases, profiles = [], {}
    for i in range(n):
        cited = set(rng.choice(list("abc"), int(rng.integers(1, 4)), replace=False).tolist())
        if i == 0:
            cited = {"d", *sorted(cited)[:2]}
        cid = f"c{i}"
        cases.append(case(cid, cited))
        vectors = {}
        for a, t in branches.items():
            kind = int(rng.integers(0, 4)) if i < n - 1 else 0
            if kind == 0:
                vectors[a] = np.zeros(t)
            elif kind == 1:
                vectors[a] = rng.integers(0, 3, t).astype(np.float64)
            elif kind == 2 or i == 0:
                vectors[a] = rng.uniform(0.0, 3.0, t) * (rng.random(t) < 0.7)
            else:
                vectors[a] = rng.uniform(0.1, 10.0) * profiles[f"c{rng.integers(0, i)}"].vectors[a]
        profiles[cid] = SimilarityProfile(cid, vectors)
    return cases, profiles


def test_table_matches_the_scalar_oracle_on_multi_article_corpora():
    """0 and 1 bit-equal, every other entry within 1e-16: the Gram matrix
    may sum in another order than ``np.dot``."""
    fractional_overlap = 0
    for seed in range(240):
        cases, profiles = multi_article_corpus(seed)
        expected = oracle_matrix(cases, profiles)
        got = pairwise_weights(cases, profiles).matrix
        exact = (expected == 0.0) | (expected == 1.0)
        assert np.array_equal(got[exact], expected[exact]), seed
        assert np.abs(got - expected).max() <= 1e-16, seed
        fractional_overlap += sum(0 < len(ci.articles & cj.articles) < len(ci.articles)
                                  for ci in cases for cj in cases)
    assert fractional_overlap > 1000


def test_peak_memory_is_near_the_table_itself():
    """The table is built in place: beside the N×N result there is only
    per-article and per-chunk scratch (1920 cases, 29 MB of weights)."""
    spec = SynthSpec(num_articles=4, branches_per_article=4, vocab_size=200, noise_rate=0.1,
                     seed=1, cases_per_branch=120)
    tok = TokenizerConfig()
    corpus = generate(spec)
    articles = build_corpus(corpus.article_specs, tok)
    profiles = compute_profiles(corpus.cases, articles, build_index(articles, tok))
    tracemalloc.start()
    try:
        table = pairwise_weights(corpus.cases, profiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.ids) == 1920
    assert peak <= 1.5 * table.matrix.nbytes


def test_csv_round_trip_memory_is_bounded(tmp_path):
    """``to_csv`` builds one chunk of rows at a time, and ``from_csv``
    holds int32 id codes and values, 16 bytes a pair, once, dropping each
    block as it fills the matrix (480 cases, 1.8 MB of weights). The
    reader peaked at 6.09× the matrix with int64 codes and at 4.21× when
    it joined the blocks before filling it, 3.26× with a mask of the
    filled pairs; now 3.13×."""
    spec = SynthSpec(num_articles=4, branches_per_article=4, vocab_size=200, noise_rate=0.1,
                     seed=1, cases_per_branch=30)
    tok = TokenizerConfig()
    corpus = generate(spec)
    articles = build_corpus(corpus.article_specs, tok)
    table = pairwise_weights(corpus.cases, compute_profiles(corpus.cases, articles,
                                                            build_index(articles, tok)))
    path = str(tmp_path / "weights.csv")
    peaks = []
    for step in (lambda: table.to_csv(path), lambda: WeightTable.from_csv(path)):
        tracemalloc.start()
        try:
            loaded = step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(table.ids) == 480
    assert loaded.matrix.tobytes() == table.matrix.tobytes()
    assert peaks[0] <= 4 * 2**20
    assert peaks[1] <= 4 * table.matrix.nbytes


@pytest.mark.parametrize("spec", [
    SynthSpec(num_articles=2, branches_per_article=3, cases_per_branch=4, queries_per_branch=1,
              vocab_size=60, noise_rate=0.0),
    SynthSpec(num_articles=3, branches_per_article=3, cases_per_branch=6, queries_per_branch=2,
              vocab_size=90, facts_keyword_rate=0.2, noise_rate=0.2),
], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("seed", [3, 77, 1011])
def test_sampling_is_unchanged_from_the_oracle_table(spec, seed):
    """Anchors, positives, their weights and class labels drawn from the
    table equal those drawn from the scalar oracle's matrix."""
    tok = TokenizerConfig()
    corpus = generate(replace(spec, seed=seed))
    articles = build_corpus(corpus.article_specs, tok)
    profiles = compute_profiles(corpus.cases, articles, build_index(articles, tok))
    table = pairwise_weights(corpus.cases, profiles)
    oracle = WeightTable(table.ids, oracle_matrix(corpus.cases, profiles))
    for batch in range(8):
        draws = []
        for t in (table, oracle):
            quads = sample_quadruples(t, 4, np.random.default_rng([seed, batch]))
            ids = build_batch(quads)
            draws.append((quads, ids, class_partition(ids, t).labels))
        assert draws[0] == draws[1]


def random_table(seed, n=9):
    """Weights on a 0.1 grid, so many equal a floor exactly, and ids whose
    table order is not their sorted order."""
    rng = np.random.default_rng(seed)
    ids = [f"c{k}" for k in rng.permutation(n)]
    return WeightTable(ids, rng.integers(0, 11, (n, n)) / 10.0)


FLOORS = [0.0, 0.3, 0.5, 1.0]


def positives(table, anchor, floor):
    """The ids and weights of ``anchor``'s positives in the index at ``floor``."""
    targets, weights = table.positive_index(floor).row(table.ids.index(anchor))
    return [table.ids[j] for j in targets.tolist()], weights.tolist()


def anchors(table, floor):
    """The ids of the index's anchors at ``floor``."""
    index = table.positive_index(floor)
    return [table.ids[i] for i in index.anchors.tolist()]


class TestWeightTableAccessors:
    """``block`` and the positive index against loops over ``get``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_block_matches_get(self, seed):
        table = random_table(seed)
        rng = np.random.default_rng(100 + seed)
        for size in (1, 4, len(table.ids)):
            ids = [table.ids[k] for k in rng.choice(len(table.ids), size, replace=False)]
            expected = [[table.get(a, b) for b in ids] for a in ids]
            assert table.block(ids).tolist() == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_positives_match_get(self, seed):
        table = random_table(seed)
        for floor in FLOORS:
            for anchor in table.ids:
                expected = [(other, table.get(anchor, other)) for other in table.ids
                            if other != anchor and table.get(anchor, other) >= floor]
                assert list(zip(*positives(table, anchor, floor))) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_anchors_match_get(self, seed):
        table = random_table(seed)
        for floor in FLOORS:
            expected = [a for a in table.ids
                        if any(b != a and table.get(a, b) >= floor for b in table.ids)]
            assert anchors(table, floor) == expected

    def test_anchor_is_never_its_own_positive(self):
        table = WeightTable(["x", "y"], np.array([[1.0, 0.2], [0.0, 1.0]]))
        assert positives(table, "x", 0.5)[0] == []
        assert positives(table, "x", 0.2)[0] == ["y"]
        assert anchors(table, 0.5) == []

    def test_weight_equal_to_the_floor_counts(self):
        table = WeightTable(["x", "y"], np.array([[0.0, 0.5], [0.4, 0.0]]))
        assert positives(table, "x", 0.5) == (["y"], [0.5])
        assert positives(table, "x", np.nextafter(0.5, 1.0))[0] == []
        assert anchors(table, 0.5) == ["x"]
        assert anchors(table, 0.4) == ["x", "y"]

    def test_table_order_not_sorted_order(self):
        table = WeightTable(["z", "a", "m"], np.full((3, 3), 0.9))
        assert positives(table, "m", 0.5)[0] == ["z", "a"]
        assert anchors(table, 0.5) == ["z", "a", "m"]

    def test_unknown_id_raises_key_error(self):
        table = random_table(0)
        with pytest.raises(KeyError):
            table.block([table.ids[0], "nope"])
        with pytest.raises(KeyError):
            table.block(["nope"])
        with pytest.raises(KeyError):
            table.get(table.ids[0], "nope")

    @pytest.mark.parametrize("seed", range(3))
    def test_csv_bytes_match_reference(self, tmp_path, seed):
        """The bytes of ``csv.writer`` writing each pair's row, with
        ``repr`` of its weight, for plain ids and for ids that need quoting,
        are not ASCII or are empty; and ``from_csv`` reads back the same
        table wherever no id holds a lone carriage return, which
        ``csv.writer`` leaves unquoted. Among exact zeros the table holds
        ``-0.0``, which keeps its sign, the least subnormal, 1.0 and 0.1."""
        rng = np.random.default_rng(seed)
        plain = [f"c{k}" for k in rng.permutation(7)]
        special = ["a,b", 'say "hi"', "two\nlines", "cr\rlf", "", "\u03a9mega",
                   "caf\u00e9 \u6848", " pad ", '"']
        for ids in (plain, special):
            n = len(ids)
            matrix = rng.uniform(0.0, 1.0, (n, n)) ** 3 * (rng.random((n, n)) < 0.7)
            matrix[[0, 0, 1, 1, 2], [0, 1, 0, 2, 2]] = [-0.0, 5e-324, 1.0, 0.1, 0.0]
            table = WeightTable(ids, matrix)
            path = tmp_path / "weights.csv"
            table.to_csv(str(path))
            reference = io.StringIO()
            writer = csv.writer(reference, lineterminator="\n")
            writer.writerow(["source_id", "target_id", "value"])
            writer.writerows([a, b, repr(table.get(a, b))] for a in ids for b in ids)
            assert path.read_bytes() == reference.getvalue().encode("utf-8")
            readable = [cid for cid in ids if "\r" not in cid]
            table = WeightTable(readable, table.block(readable))
            table.to_csv(str(path))
            loaded = WeightTable.from_csv(str(path))
            assert loaded.ids == readable
            assert loaded.matrix.tobytes() == table.matrix.tobytes()
            assert np.signbit(loaded.matrix[0, 0]) and loaded.matrix[0, 1] == 5e-324


class TestWeightTableChecks:
    """The table holds weights in [0, 1] and keeps them from changing."""

    @pytest.mark.parametrize("bad", [-0.25, 1.5, np.nan, -np.inf])
    def test_weight_outside_unit_interval_rejected(self, bad):
        matrix = np.full((3, 3), 0.5)
        matrix[1, 2] = bad
        with pytest.raises(RelevanceError, match=r"weight matrix holds a value outside \[0, 1\]"):
            WeightTable(["a", "b", "c"], matrix)

    def test_all_negative_weights_rejected(self):
        """Such weights would normalize to a positive p and be drawn."""
        with pytest.raises(RelevanceError) as excinfo:
            WeightTable(["a", "b"], np.full((2, 2), -0.5))
        assert str(excinfo.value) == (
            "weight matrix holds a value outside [0, 1] (min -0.5, max -0.5)"
        )

    def test_matrix_is_read_only(self):
        table = random_table(0)
        with pytest.raises(ValueError, match="read-only"):
            table.matrix[0, 0] = 0.5
        assert table.get(table.ids[0], table.ids[0]) == random_table(0).get(
            table.ids[0], table.ids[0])


class TestPositiveIndex:
    """The per-floor index the sampler reads."""

    def test_built_once_per_floor(self):
        table = random_table(1)
        index = table.positive_index(0.5)
        sample_quadruples(table, 1, np.random.default_rng(0), floor=0.5)
        again = table.positive_index(0.5)
        assert again is index
        for name in ("anchors", "indptr", "targets", "weights"):
            assert getattr(again, name) is getattr(index, name)
            assert not getattr(index, name).flags.writeable

    @pytest.mark.parametrize("seed", range(3))
    def test_two_floors_keep_two_indexes(self, seed):
        table = random_table(seed)
        low, high = table.positive_index(0.3), table.positive_index(0.7)
        assert low is not high
        assert table.positive_index(0.3) is low and table.positive_index(0.7) is high
        for floor, index in ((0.3, low), (0.7, high)):
            for i, anchor in enumerate(table.ids):
                targets, weights = index.row(i)
                expected = [(j, table.get(anchor, other)) for j, other in enumerate(table.ids)
                            if j != i and table.get(anchor, other) >= floor]
                assert list(zip(targets.tolist(), weights.tolist())) == expected
            assert index.anchors.tolist() == [i for i in range(len(table.ids))
                                              if len(index.row(i)[0])]

    @pytest.mark.parametrize("floor", [0.3, 0.5, 1.0])
    def test_weight_at_the_floor_counts_and_a_zero_row_is_no_anchor(self, floor):
        """A weight exactly at the floor is a positive, one a step below it
        is not; a row of zeros, off the diagonal or everywhere, has none."""
        matrix = np.array([[1.0, floor, np.nextafter(floor, 0.0)],
                           [0.0, 1.0, 0.0],
                           [0.0, 0.0, 0.0]])
        table = WeightTable(["a", "b", "c"], matrix)
        index = table.positive_index(floor)
        assert index.anchors.tolist() == [0]
        assert [(t.tolist(), w.tolist()) for t, w in map(index.row, range(3))] == [
            ([1], [floor]), ([], []), ([], [])]
        assert table.positive_index(np.nextafter(floor, 2.0)).anchors.tolist() == []
        for seed in range(5):
            assert sample_quadruples(table, 1, np.random.default_rng(seed), floor=floor) == [
                Quadruple("a", "b", floor)]


def test_only_relevance_reads_the_weight_matrix():
    """The weight table's storage stays behind ``WeightTable``'s methods:
    no other package module touches an attribute named ``matrix``."""
    readers = []
    for path in sorted(Path(casevec.__file__).parent.glob("*.py")):
        if path.name == "relevance.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "matrix"]
    assert readers == []


class TestCaseFiles:
    def test_round_trip(self, tmp_path):
        cases = [
            CaseDocument("c1", facts="the facts", holding="the holding",
                         decision="under art a", articles=frozenset({"a", "b"})),
            CaseDocument("c2", facts="other facts"),
        ]
        path = tmp_path / "cases.jsonl"
        save_cases(cases, str(path))
        loaded = load_cases(str(path))
        assert loaded == cases

    def test_missing_facts_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case_id": "c1", "holding": "h"}\n')
        with pytest.raises(RelevanceError, match="missing field 'facts'"):
            load_cases(str(path))

    def test_invalid_json_line_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case_id": "c1", "facts": "f"}\n{oops}\n')
        with pytest.raises(RelevanceError, match=":2:"):
            load_cases(str(path))

    def test_file_of_blank_lines_holds_no_case(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n  \n")
        with pytest.raises(RelevanceError) as excinfo:
            load_cases(str(path))
        assert str(excinfo.value) == f"{path}: holds no case"

    @pytest.mark.parametrize("case_id", ["cr\rlf", "end\r", "\r", "a,\rb", "x\r\r\ny"])
    def test_lone_carriage_return_in_id_rejected(self, tmp_path, case_id):
        path = tmp_path / "cases.jsonl"
        save_cases([CaseDocument("c1", facts="f"), CaseDocument(case_id, facts="f")], str(path))
        with pytest.raises(RelevanceError) as excinfo:
            load_cases(str(path))
        assert str(excinfo.value) == (
            f"{path}:2: case_id {case_id!r} holds a carriage return without a line feed"
        )

    def test_every_accepted_id_is_written_as_before_and_reads_back(self, tmp_path):
        """Ids that load, ``\\r\\n`` among them, give the bytes of
        ``csv.writer`` in ``to_csv`` and the same table from ``from_csv``."""
        ids = ["plain", "a,b", 'say "hi"', "two\nlines", "win\r\nline", "\r\n", '"\r\n,',
               "", "café", " pad "]
        path = tmp_path / "cases.jsonl"
        save_cases([CaseDocument(cid or "x", facts="f") for cid in ids], str(path))
        loaded = [case.case_id for case in load_cases(str(path))]
        assert loaded == [cid or "x" for cid in ids]
        n = len(loaded)
        table = WeightTable(loaded, np.random.default_rng(0).uniform(0.0, 1.0, (n, n)))
        table.to_csv(str(tmp_path / "w.csv"))
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(["source_id", "target_id", "value"])
        writer.writerows([a, b, repr(table.get(a, b))] for a in loaded for b in loaded)
        assert (tmp_path / "w.csv").read_bytes() == reference.getvalue().encode("utf-8")
        back = WeightTable.from_csv(str(tmp_path / "w.csv"))
        assert back.ids == loaded
        assert back.matrix.tobytes() == table.matrix.tobytes()
