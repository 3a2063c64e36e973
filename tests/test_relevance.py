"""Relevance weights: argmax agreement, cosine fallback, directionality."""

import numpy as np
import pytest

from casevec.bm25 import SimilarityProfile
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

from _helpers import cosine_reference


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
        with pytest.raises(RelevanceError, match="unique"):
            pairwise_weights(cases + cases[:1], profiles)

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
