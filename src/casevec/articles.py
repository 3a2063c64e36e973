"""Statute articles and their expansion into unambiguous branches.

An article is modeled as an ordered list of *acts*, each act an ordered
list of *slots*, each slot a list of alternative keyword phrases. Slots
within an act are sequential; phrases within a slot are parallel
alternatives. Choosing one phrase per slot yields one branch, a reading of
the article that applies to exactly one situation. Branches accumulate
across acts by union: acts describe alternative situations, so an
article's branch count is the sum over acts of the product of slot sizes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .files import decode_error, open_output
from .text import TokenizerConfig, tokenize


class ArticleSpecError(ValueError):
    """Raised when an article spec or spec file violates the format."""


@dataclass
class ArticleSpec:
    """One statute article: ``acts[act][slot]`` is a list of phrases."""

    article_id: str
    acts: list[list[list[str]]]

    def validate(self) -> None:
        if not self.article_id or not isinstance(self.article_id, str):
            raise ArticleSpecError("article_id must be a nonempty string")
        if not self.acts:
            raise ArticleSpecError(f"article {self.article_id!r}: needs at least one act")
        for a, act in enumerate(self.acts):
            if not act:
                raise ArticleSpecError(f"article {self.article_id!r}: acts[{a}] has no slots")
            for s, slot in enumerate(act):
                if not slot:
                    raise ArticleSpecError(
                        f"article {self.article_id!r}: acts[{a}].slots[{s}] has no phrases"
                    )
                for p, phrase in enumerate(slot):
                    if not isinstance(phrase, str) or not phrase:
                        raise ArticleSpecError(
                            f"article {self.article_id!r}: acts[{a}].slots[{s}].phrases[{p}]"
                            " is not a nonempty string"
                        )


@dataclass(frozen=True)
class ArticleBranch:
    """A single unambiguous branch of an article, as a keyword sequence."""

    article_id: str
    branch_index: int
    keyword_sequence: tuple[str, ...]


@dataclass
class ArticleCorpus:
    """All branches of a set of articles, in a fixed global order."""

    branches: list[ArticleBranch] = field(default_factory=list)
    by_article: dict[str, list[ArticleBranch]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.branches)


def expand_branches(
    spec: ArticleSpec, cfg: TokenizerConfig = TokenizerConfig()
) -> list[ArticleBranch]:
    """Expand an article spec into its branches.

    Within an act, one phrase is chosen per slot (Cartesian product, slots
    varying fastest on the right); acts contribute their branches in act
    order. Phrases are tokenized with the shared tokenizer and concatenated
    in slot order to form each branch's keyword sequence.
    """
    spec.validate()
    branches: list[ArticleBranch] = []
    index = 0
    for a, act in enumerate(spec.acts):
        for combo in itertools.product(*act):
            seq = tuple(tok for phrase in combo for tok in tokenize(phrase, cfg))
            if not seq:
                raise ArticleSpecError(
                    f"article {spec.article_id!r}: acts[{a}] combination {combo!r}"
                    " tokenizes to an empty keyword sequence"
                )
            branches.append(ArticleBranch(spec.article_id, index, seq))
            index += 1
    return branches


def build_corpus(
    specs: list[ArticleSpec], cfg: TokenizerConfig = TokenizerConfig()
) -> ArticleCorpus:
    """Expand all specs into one corpus. Branch order is spec order, then
    branch index; duplicate article ids are rejected."""
    corpus = ArticleCorpus()
    for spec in specs:
        if spec.article_id in corpus.by_article:
            raise ArticleSpecError(f"duplicate article_id {spec.article_id!r}")
        expanded = expand_branches(spec, cfg)
        corpus.by_article[spec.article_id] = expanded
        corpus.branches.extend(expanded)
    return corpus


def _spec_from_obj(obj: object, where: str) -> ArticleSpec:
    if not isinstance(obj, dict):
        raise ArticleSpecError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - {"article_id", "acts"}
    if unknown:
        raise ArticleSpecError(f"{where}: unknown fields {sorted(unknown)}")
    try:
        spec = ArticleSpec(article_id=obj["article_id"], acts=obj["acts"])
    except KeyError as exc:
        raise ArticleSpecError(f"{where}: missing field {exc.args[0]!r}") from None
    try:
        spec.validate()
    except ArticleSpecError as exc:
        raise ArticleSpecError(f"{where}: {exc}") from None
    return spec


def load_article_specs(path: str) -> list[ArticleSpec]:
    """Load article specs from a JSON file.

    The file holds ``{"articles": [{"article_id": ..., "acts": [[[phrase,
    ...], ...], ...]}, ...]}`` in UTF-8, article ids distinct. Errors
    carry line or field diagnostics.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError:
            raise decode_error(path, ArticleSpecError) from None
        except json.JSONDecodeError as exc:
            raise ArticleSpecError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
    if not isinstance(doc, dict) or "articles" not in doc:
        raise ArticleSpecError(f"{path}: top level must be an object with an 'articles' list")
    items = doc["articles"]
    if not isinstance(items, list):
        raise ArticleSpecError(f"{path}: 'articles' must be a list")
    specs: dict[str, ArticleSpec] = {}
    for i, obj in enumerate(items):
        spec = _spec_from_obj(obj, f"{path}: articles[{i}]")
        if spec.article_id in specs:
            raise ArticleSpecError(
                f"{path}: articles[{i}]: duplicate article_id {spec.article_id!r}")
        specs[spec.article_id] = spec
    return list(specs.values())


def save_article_specs(specs: list[ArticleSpec], path: str) -> None:
    """Write specs to the JSON format read by :func:`load_article_specs`."""
    for spec in specs:
        spec.validate()
    doc = {"articles": [{"article_id": s.article_id, "acts": s.acts} for s in specs]}
    with open_output(path, encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2)
        fh.write("\n")
