"""Branch expansion: product within an act, sum across acts, file round-trip."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casevec.articles import (
    ArticleSpec,
    ArticleSpecError,
    build_corpus,
    expand_branches,
    load_article_specs,
    save_article_specs,
)

from _helpers import branch_count_reference

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def spec_of(acts, article_id="a1"):
    return ArticleSpec(article_id=article_id, acts=acts)


class TestExpandBranches:
    def test_single_act_product(self):
        branches = expand_branches(spec_of([[["A"], ["B", "C"]]]))
        assert len(branches) == 2
        assert [b.keyword_sequence for b in branches] == [("a", "b"), ("a", "c")]

    def test_acts_sum(self):
        branches = expand_branches(spec_of([[["A"]], [["B"], ["C", "D"]]]))
        assert len(branches) == 1 + 2
        assert [b.keyword_sequence for b in branches] == [("a",), ("b", "c"), ("b", "d")]

    def test_branch_indices_are_sequential(self):
        branches = expand_branches(spec_of([[["A"]], [["B"], ["C", "D"]]]))
        assert [b.branch_index for b in branches] == [0, 1, 2]

    def test_phrases_split_into_tokens(self):
        (branch,) = expand_branches(spec_of([[["Driving While Drunk"]]]))
        assert branch.keyword_sequence == ("driving", "while", "drunk")

    def test_deterministic(self):
        acts = [[["x", "y"], ["z"]], [["w"]]]
        assert expand_branches(spec_of(acts)) == expand_branches(spec_of(acts))

    def test_empty_slot_rejected_with_path(self):
        with pytest.raises(ArticleSpecError, match=r"acts\[0\].slots\[1\]"):
            expand_branches(spec_of([[["A"], []]]))

    def test_empty_act_rejected(self):
        with pytest.raises(ArticleSpecError, match=r"acts\[1\]"):
            expand_branches(spec_of([[["A"]], []]))

    def test_empty_phrase_rejected(self):
        with pytest.raises(ArticleSpecError, match=r"phrases\[0\]"):
            expand_branches(spec_of([[[""]]]))

    def test_no_acts_rejected(self):
        with pytest.raises(ArticleSpecError, match="at least one act"):
            expand_branches(spec_of([]))

    def test_punctuation_only_phrase_rejected(self):
        with pytest.raises(ArticleSpecError, match="empty keyword sequence"):
            expand_branches(spec_of([[["..."]]]))


phrases = st.text(alphabet="abcdefg", min_size=1, max_size=4)
slots = st.lists(phrases, min_size=1, max_size=3)
acts = st.lists(slots, min_size=1, max_size=3)
specs = st.lists(acts, min_size=1, max_size=3)


class TestExpansionProperties:
    @settings(max_examples=200, deadline=None)
    @given(specs)
    def test_count_law(self, acts_list):
        """Branch count is the sum over acts of the product of slot sizes."""
        branches = expand_branches(spec_of(acts_list))
        assert len(branches) == branch_count_reference(acts_list)

    @settings(max_examples=100, deadline=None)
    @given(specs)
    def test_every_phrase_appears(self, acts_list):
        branches = expand_branches(spec_of(acts_list))
        joined = [" ".join(b.keyword_sequence) for b in branches]
        for act in acts_list:
            for slot in act:
                for phrase in slot:
                    assert any(phrase in text for text in joined)


class TestBuildCorpus:
    def test_empty(self):
        corpus = build_corpus([])
        assert len(corpus) == 0
        assert corpus.by_article == {}

    def test_single_spec_counts(self):
        corpus = build_corpus([spec_of([[["a"], ["b", "c", "d"]]])])
        assert len(corpus.by_article["a1"]) == 3
        assert len(corpus) == 3

    def test_two_specs_global_enumeration(self):
        s1 = spec_of([[["a"], ["b", "c"]]], article_id="first")  # 2 branches
        s2 = ArticleSpec(
            article_id="second",
            acts=[[["p"]], [["q"], ["r", "s", "t"]], [["u", "v", "w"]]],  # 1 + 3 + 3
        )
        assert len(expand_branches(s1)) == 2
        assert len(expand_branches(s2)) == 7
        corpus = build_corpus([s1, s2])
        assert len(corpus) == 9
        assert {a: len(bs) for a, bs in corpus.by_article.items()} == {"first": 2, "second": 7}
        assert [b.article_id for b in corpus.branches] == ["first"] * 2 + ["second"] * 7

    def test_duplicate_article_id_rejected(self):
        with pytest.raises(ArticleSpecError, match="duplicate"):
            build_corpus([spec_of([[["a"]]]), spec_of([[["b"]]])])


class TestSpecFiles:
    def test_load_bundled_dangerous_driving_spec(self):
        """The bundled statute reconstruction expands to exactly 7 branches."""
        (spec,) = load_article_specs(os.path.join(DATA_DIR, "dangerous_driving_article.json"))
        assert spec.article_id == "criminal-law-133-1"
        assert len(expand_branches(spec)) == 7

    def test_round_trip_preserves_branches(self, tmp_path):
        original = [
            spec_of([[["a b", "c"], ["d"]]], article_id="x"),
            spec_of([[["e"]], [["f", "g"]]], article_id="y"),
        ]
        path = tmp_path / "specs.json"
        save_article_specs(original, str(path))
        loaded = load_article_specs(str(path))
        assert [expand_branches(s) for s in loaded] == [expand_branches(s) for s in original]

    def test_two_article_file(self, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(
            '{"articles": [{"article_id": "a", "acts": [[["x"]]]},'
            ' {"article_id": "b", "acts": [[["y"]]]}]}'
        )
        assert len(load_article_specs(str(path))) == 2

    def test_empty_slot_in_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"articles": [{"article_id": "a", "acts": [[[]]]}]}')
        with pytest.raises(ArticleSpecError, match=r"articles\[0\]"):
            load_article_specs(str(path))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"articles": [\n  {"article_id": }\n]}')
        with pytest.raises(ArticleSpecError, match="line 2"):
            load_article_specs(str(path))

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text('{"articles": [{"article_id": "a", "acts": [[["x"]]], "zap": 1}]}')
        with pytest.raises(ArticleSpecError, match="unknown fields"):
            load_article_specs(str(path))
