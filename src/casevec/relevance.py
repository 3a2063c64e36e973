"""Case documents and pairwise relevance weights.

The weight from case i to case j combines how much of i's article set j
covers with how similar the two cases look at the branch level:

    weight(i, j) = |A_i intersect A_j| / |A_i| * rel(i, j)

where rel is 1 when some shared article has both cases peaking on the
same branch (with nonzero score vectors), and otherwise the maximum
cosine similarity of the per-article score vectors over shared articles.
The weight is directional: the denominator is the source's article count.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from typing import NoReturn

import numpy as np

from .bm25 import SimilarityProfile
from .files import claim, open_output, read_json_objects, read_rows, write_json_lines
from .text import TokenizerConfig, tokenize


class RelevanceError(ValueError):
    pass


@dataclass
class CaseDocument:
    """A case with its three text components and the articles it cites."""

    case_id: str
    facts: str
    holding: str = ""
    decision: str = ""
    articles: frozenset[str] = field(default_factory=frozenset)

    def validate(self) -> None:
        if not self.case_id:
            raise RelevanceError("case_id must be nonempty")
        if not self.facts:
            raise RelevanceError(f"case {self.case_id!r}: facts must be nonempty")


@dataclass(frozen=True)
class RelevanceWeight:
    source_id: str
    target_id: str
    value: float


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, defined as 0 when either vector is zero."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def rel(
    profile_i: SimilarityProfile,
    profile_j: SimilarityProfile,
    articles_i: frozenset[str],
    articles_j: frozenset[str],
) -> float:
    """Branch-level agreement between two cases over their shared articles.

    Returns 1.0 if any shared article has both score vectors nonzero and
    peaking on the same branch (ties resolved to the lowest branch index);
    otherwise the maximum cosine over shared articles, 0.0 with no shared
    article. A zero vector never triggers the argmax rule and has cosine 0.
    """
    shared = articles_i & articles_j
    if not shared:
        return 0.0
    best = 0.0
    for article_id in sorted(shared):
        try:
            vi = profile_i.vectors[article_id]
            vj = profile_j.vectors[article_id]
        except KeyError:
            raise RelevanceError(
                f"profile of {profile_i.case_id!r} or {profile_j.case_id!r}"
                f" does not cover shared article {article_id!r}"
            ) from None
        if vi.any() and vj.any() and int(np.argmax(vi)) == int(np.argmax(vj)):
            return 1.0
        best = max(best, _cosine(vi, vj))
    return best


def _profile(profiles: dict[str, SimilarityProfile], case_id: str) -> SimilarityProfile:
    try:
        return profiles[case_id]
    except KeyError:
        raise RelevanceError(f"profile of case {case_id!r} is missing") from None


def weight(
    case_i: CaseDocument,
    case_j: CaseDocument,
    profiles: dict[str, SimilarityProfile],
) -> RelevanceWeight:
    """Directional relevance weight from case_i to case_j."""
    if not case_i.articles:
        raise RelevanceError(f"case {case_i.case_id!r} has an empty article set")
    overlap = len(case_i.articles & case_j.articles) / len(case_i.articles)
    r = rel(_profile(profiles, case_i.case_id), _profile(profiles, case_j.case_id),
            case_i.articles, case_j.articles)
    return RelevanceWeight(case_i.case_id, case_j.case_id, overlap * r)


_WEIGHT_CSV_HEADER = ["source_id", "target_id", "value"]
_OVERLAP_CHUNK = 1 << 18  # table entries weighted at a time (2 MB), which bounds the scratch
_SAME_PEAK = 2.0  # marks rel = 1 from a shared peak while the weight table is built
_BLOCK_ROWS = 2048  # rows parsed at a time, which bounds the row objects alive at once
_CSV_CHUNK = 1 << 14  # table entries written at a time, which bounds the writer's strings
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))  # a row without them is ",,\n"


@dataclass(frozen=True, eq=False)
class PositiveIndex:
    """Every case's positives at one floor, over table positions: row i's
    positives are ``targets[indptr[i]:indptr[i + 1]]`` in table order, with
    their weights at the same slice of ``weights``; ``anchors`` are the rows
    that have one. Every array is read-only."""

    anchors: np.ndarray
    indptr: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The positions and weights of row ``i``'s positives, as views."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.targets[lo:hi], self.weights[lo:hi]


class WeightTable:
    """Relevance weights for all ordered case pairs, with CSV round-trip.
    Other modules read weights only through its methods, never the matrix.

    The matrix must hold weights in [0, 1]; the table makes it read-only,
    so the positive index it keeps per floor always matches it."""

    def __init__(self, ids: list[str], matrix: np.ndarray):
        if matrix.shape != (len(ids), len(ids)):
            raise RelevanceError("weight matrix shape does not match the id list")
        if matrix.size:
            lo, hi = float(matrix.min()), float(matrix.max())
            if not (0.0 <= lo and hi <= 1.0):  # NaN fails both comparisons
                raise RelevanceError(
                    f"weight matrix holds a value outside [0, 1] (min {lo!r}, max {hi!r})"
                )
        matrix.flags.writeable = False
        self.ids = list(ids)
        self.matrix = matrix
        self._pos = {cid: i for i, cid in enumerate(self.ids)}
        self._indexes: dict[float, PositiveIndex] = {}

    def get(self, source_id: str, target_id: str) -> float:
        return float(self.matrix[self._pos[source_id], self._pos[target_id]])

    def block(self, ids: list[str]) -> np.ndarray:
        """The B×B weights among ``ids``: entry (a, b) is ``get(ids[a], ids[b])``."""
        pos = [self._pos[cid] for cid in ids]
        return self.matrix[np.ix_(pos, pos)]

    def positive_index(self, floor: float) -> PositiveIndex:
        """The positives of every case at ``floor``: each other case whose
        weight from it is at least ``floor``. Built in one pass over the
        matrix on the floor's first use, then kept with the table."""
        index = self._indexes.get(floor)
        if index is None:
            n = len(self.ids)
            eligible = self.matrix >= floor
            np.fill_diagonal(eligible, False)
            counts = np.count_nonzero(eligible, axis=1)
            indptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(counts, out=indptr[1:])
            # flat positions are row-major, so each row's targets come in
            # table order; one flat pass is ~5× faster than np.nonzero's two
            targets = np.flatnonzero(eligible) % n
            index = PositiveIndex(np.flatnonzero(counts), indptr, targets, self.matrix[eligible])
            for array in (index.anchors, index.indptr, index.targets, index.weights):
                array.flags.writeable = False
            self._indexes[floor] = index
        return index

    def to_csv(self, path: str) -> None:
        """Write a header, then one ``source_id,target_id,value`` row per
        ordered pair, sources and targets in table order, each value the
        ``repr`` of its float: the bytes of ``csv.writer``, row by row. A
        chunk of rows is one join of row starts and target entries, each a
        shared ``<target>,0.0`` entry unless the weight has a nonzero bit."""
        fields = _csv_fields(self.ids)
        n = len(fields)
        starts = np.array([f"{src}," for src in fields], dtype=object)
        zeros = np.array([f"{tgt},0.0\n" for tgt in fields], dtype=object)
        step = max(1, _CSV_CHUNK // max(n, 1))
        with open_output(path, encoding="utf-8", newline="") as fh:
            fh.write(",".join(_WEIGHT_CSV_HEADER) + "\n")
            for lo in range(0, n, step):
                values = np.ravel(self.matrix[lo:lo + step]).astype(np.float64, copy=False)
                at = np.arange(values.size)
                pieces = np.empty(2 * values.size, dtype=object)
                pieces[0::2] = starts[lo + at // n]
                pieces[1::2] = zeros[at % n]
                nonzero = np.flatnonzero(values.view(np.int64))
                pieces[2 * nonzero + 1] = [f"{fields[t]},{w!r}\n" for t, w in
                                           zip((nonzero % n).tolist(), values[nonzero].tolist())]
                fh.write("".join(pieces.tolist()))

    @classmethod
    def from_csv(cls, path: str) -> "WeightTable":
        """Read a table in ``to_csv``'s format, in any row order; the ids
        take the order in which they first appear as a source.

        A file that is not one weight in [0, 1] for every ordered pair of
        its source ids raises the error a row-by-row reader meets first:
        a row that does not parse or whose value is out of range, a
        repeated pair, a line that ``csv.reader`` cannot read or that is
        not UTF-8, each with ``<path>:<line>:``; then a file without a
        row, a target that is never a source (at its first line) and a
        missing pair. Blocks of rows are split into id codes and values,
        without ``csv.reader`` where no line needs it, the pairs are
        checked on arrays, and the constructor checks the range; only a
        file that fails is read again, row by row, to find its first error.
        """
        try:
            table = _valid_table(path)
            if table is not None:
                return cls(*table)
        except (csv.Error, ValueError):  # an unreadable row, or a weight outside [0, 1]
            pass
        _raise_first_error(path)


def _csv_fields(ids: list[str]) -> list[str]:
    """Each id as ``csv.writer`` writes it among other fields: quoted or
    not by this Python's QUOTE_MINIMAL rules."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = []
    for cid in ids:
        buf.seek(0)
        buf.truncate()
        writer.writerow((cid, ""))
        fields.append(buf.getvalue()[:-2])  # without the empty field's "," and the "\n"
    return fields


def _valid_table(path: str) -> tuple[list[str], np.ndarray] | None:
    """The ids and matrix of a weight CSV read a block of rows at a time,
    or None if its rows do not fill one table. It leaves the range to
    ``WeightTable`` and never locates an error. After the exact header, a
    block of lines without ``"``, ``\\r``, NUL or a line over the field
    limit is split in one pass; from the first other block, or another
    header, the rest goes to ``csv.reader``, starting at a row boundary."""
    codes: defaultdict[str, int] = defaultdict(itertools.count().__next__)  # ids of either column
    sources: dict[str, None] = {}  # in order of first appearance as a source
    blocks = []
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        lines = [fh.readline()]
        plain = exact_header = lines[0] == (",".join(_WEIGHT_CSV_HEADER) + "\n").encode()
        while plain and (lines := list(itertools.islice(fh, _BLOCK_ROWS))):
            data = b"".join(lines)
            plain = not (b'"' in data or b"\r" in data or b"\0" in data
                         or len(data) > limit and max(map(len, lines)) > limit)
            if plain:
                blocks.append(_plain_columns(data, len(lines), codes, sources))
        if not plain:  # these lines and the rest of the file go through csv.reader
            text = io.StringIO(b"".join(lines).decode("utf-8"), newline="")
            rows = csv.reader(itertools.chain(text, io.TextIOWrapper(fh, "utf-8", newline="")))
            if not exact_header and next(rows, None) != _WEIGHT_CSV_HEADER:
                return None
            while columns := _block_columns(rows, codes, sources):
                blocks.append(columns)
    n = len(sources)
    if not n or len(codes) != n:
        return None
    # every id is a source: renumber the codes in source order
    position = np.empty(n, dtype=np.int64)
    position[np.fromiter(map(codes.__getitem__, sources), np.int64, n)] = np.arange(n)
    # a pair that no row fills stays NaN, which WeightTable's range check
    # rejects, so from_csv reads the file again row by row
    matrix = np.full(n * n, np.nan)
    rows = 0
    for k in range(len(blocks)):
        # each block is freed once placed and the columns are never joined,
        # so no copy of them is made (peak 3.13× the matrix at N=480)
        src, tgt, values = blocks[k]
        blocks[k] = None
        flat = position[src] * n + position[tgt]
        matrix[flat] = values
        rows += len(flat)
    if rows != n * n:  # some pair repeats or is missing
        return None
    return list(sources), matrix.reshape(n, n)


def _plain_columns(data: bytes, lines: int, codes, sources):
    """``_block_columns`` for ``lines`` plain lines, split at every comma
    and line break at once; a line without two commas raises ValueError."""
    data = data if data.endswith(b"\n") else data + b"\n"  # the file's last line may lack it
    if data.translate(None, _NOT_SEPARATORS) != b",,\n" * lines:
        raise ValueError("a row has not three fields")
    return _columns(data[:-1].decode("utf-8").replace("\n", ",").split(","), codes, sources)


def _block_columns(reader, codes, sources):
    """The next block of rows as source codes, target codes and values,
    None at the end of the file. A row that has not three fields or whose
    value ``float`` cannot read raises ValueError; the range is left to
    ``WeightTable``. The block's row objects are freed on return, before
    the next block is read."""
    block = list(itertools.islice(reader, _BLOCK_ROWS))
    if not block:
        return None
    if set(map(len, block)) != {3}:
        raise ValueError("a row has not three fields")
    return _columns(list(itertools.chain.from_iterable(block)), codes, sources)


def _columns(fields: list[str], codes, sources):
    """Id codes (int32, so a pair's columns take 16 bytes) and values of
    rows given as their fields in row order; ``float`` reads each distinct
    value text once."""
    srcs, tgts, vals = fields[0::3], fields[1::3], fields[2::3]
    floats = {text: float(text) for text in set(vals)}
    sources.update(dict.fromkeys(srcs))
    return (np.fromiter(map(codes.__getitem__, srcs), np.int32, len(srcs)),
            np.fromiter(map(codes.__getitem__, tgts), np.int32, len(tgts)),
            np.fromiter(map(floats.__getitem__, vals), np.float64, len(vals)))


def _raise_first_error(path: str) -> NoReturn:
    """Raise the first error of a weight CSV that ``_valid_table`` rejects,
    reading it one row at a time and checking each row as it is read."""
    codes: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    sources: dict[str, None] = {}  # in order of first appearance as a source
    pending: dict[str, int] = {}  # first line of each target read before it was a source
    pairs: set[int] = set()  # source code << 32 | target code: ints take less memory than tuples
    rows = read_rows(path, RelevanceError)
    header = next(rows, (0, None))[1]
    if header != _WEIGHT_CSV_HEADER:
        raise RelevanceError(f"{path}: unexpected weight CSV header {header!r}")
    for line, row in rows:
        try:
            src, tgt, val = row
            value = float(val)
        except ValueError as exc:
            raise RelevanceError(f"{path}:{line}: bad row {row!r}: {exc}") from None
        if not 0.0 <= value <= 1.0:
            raise RelevanceError(f"{path}:{line}: weight {val!r} is not in [0, 1]")
        sources.setdefault(src)
        if tgt not in sources:
            pending.setdefault(tgt, line)
        pair = codes[src] << 32 | codes[tgt]
        if pair in pairs:
            raise RelevanceError(f"{path}:{line}: duplicate pair ({src!r}, {tgt!r})")
        pairs.add(pair)
    if not pairs:
        raise RelevanceError(f"{path}: holds no weight")
    for tgt, line in pending.items():
        if tgt not in sources:
            raise RelevanceError(f"{path}:{line}: target {tgt!r} is not a source id")
    src, tgt = next((src, tgt) for src in sources for tgt in sources
                    if codes[src] << 32 | codes[tgt] not in pairs)
    raise RelevanceError(f"{path}: missing pair ({src!r}, {tgt!r})")


def pairwise_weights(
    cases: list[CaseDocument],
    profiles: dict[str, SimilarityProfile],
) -> WeightTable:
    """Weight table over all ordered pairs of the given cases.

    Every entry equals ``weight(case_i, case_j, profiles).value``, but the
    table is computed per article, not per pair. For each article the
    cosines of its citing cases' score vectors come from their Gram matrix
    and the peaks from a row argmax; they update those cases' block of the
    table in place, as a running max with a mark where two cases share a
    peak. ``rel`` is then 1 where two cases share a peak in some shared
    article, else the largest cosine over their shared articles. Last, the
    table is multiplied in place, a few rows at a time, by the overlap
    term, taken from a G×G table over the G distinct article sets. So the
    N×N result is the only N×N array; the scratch beside it is one
    article's blocks, that G×G table and one row chunk.

    The diagonal equals 1 whenever a case's holding has lexical contact
    with at least one branch of one of its articles; a case with all-zero
    score vectors scores 0 even against itself.
    """
    ids = [case.case_id for case in cases]
    seen: set[str] = set()
    for cid in ids:
        if cid in seen:
            raise RelevanceError(f"case id {cid!r} is not unique")
        seen.add(cid)
    citing: dict[str, list[int]] = {}  # article id -> positions of the cases citing it
    for i, case in enumerate(cases):
        if not case.articles:
            raise RelevanceError(f"case {case.case_id!r} has an empty article set")
        for article_id in sorted(case.articles):
            citing.setdefault(article_id, []).append(i)
    n = len(ids)
    # rel so far: the largest cosine over the articles seen, or _SAME_PEAK
    # once a pair shares a peak, which no cosine can reach or outgrow
    weights = np.zeros((n, n), dtype=np.float64)
    for article_id, rows in citing.items():
        vectors = []
        for i in rows:
            vector = _profile(profiles, ids[i]).vectors.get(article_id)
            if vector is None:
                raise RelevanceError(
                    f"profile of case {ids[i]!r} does not cover its article {article_id!r}"
                )
            vectors.append(vector)
        scores = np.array(vectors, dtype=np.float64)
        gram = scores @ scores.T
        # each norm comes from the Gram diagonal, not a second reduction, so
        # BLAS sums it in the same order as the dots it divides, as
        # _cosine's np.linalg.norm and np.dot do
        norms = np.sqrt(np.diagonal(gram))
        nonzero = norms != 0.0
        cos = np.divide(gram, np.outer(norms, norms), out=np.zeros_like(gram),
                        where=nonzero[:, None] & nonzero)
        peak = np.where(scores.any(axis=1), scores.argmax(axis=1), -1)
        block = np.ix_(rows, rows)
        rel_block = np.maximum(weights[block], cos, out=cos)
        np.copyto(rel_block, _SAME_PEAK, where=(peak[:, None] == peak) & (peak >= 0))
        weights[block] = rel_block
    # the overlap term depends only on the two article sets, so it comes
    # from the incidence of the G distinct sets, G×G, not from an N×N product
    set_of: dict[frozenset[str], int] = {}
    group = np.array([set_of.setdefault(case.articles, len(set_of)) for case in cases],
                     dtype=np.intp)
    column = {article_id: k for k, article_id in enumerate(citing)}
    incidence = np.zeros((len(set_of), len(column)), dtype=np.float64)
    for row, articles in zip(incidence, set_of):
        row[[column[article_id] for article_id in articles]] = 1.0
    # small integer counts, so |A_i ∩ A_j| and |A_i| are exact
    overlap = (incidence @ incidence.T) / incidence.sum(axis=1)[:, None]
    step = max(1, _OVERLAP_CHUNK // max(n, 1))
    for lo in range(0, n, step):
        chunk = weights[lo:lo + step]
        np.copyto(chunk, 1.0, where=chunk == _SAME_PEAK)
        chunk *= np.take(overlap[group[lo:lo + step]], group, axis=1)
    return WeightTable(ids, weights)


def load_cases(path: str) -> list[CaseDocument]:
    """Read cases from JSON lines with fields case_id, facts, holding,
    decision, articles[]. Text fields are strings, articles a list of
    distinct strings, and no case_id repeats or holds a ``\r`` that does
    not start a ``\r\n``, which a weight CSV could not hold."""
    return [case for _, case in _read_cases(path)]


def load_citing_cases(
    path: str, articles_path: str, known_articles: Iterable[str], tok_cfg: TokenizerConfig
) -> list[CaseDocument]:
    """:func:`load_cases` for a weight table: every case must cite at least
    one article, and only articles in ``known_articles``, the ones
    ``articles_path`` defines. Its holding, the BM25 query, must hold a
    token under ``tok_cfg``."""
    cases = []
    for where, case in _read_cases(path):
        if not case.articles:
            raise RelevanceError(f"{where}: case {case.case_id!r} cites no article")
        unknown = sorted(case.articles.difference(known_articles))
        if unknown:
            raise RelevanceError(
                f"{where}: case {case.case_id!r} cites article {unknown[0]!r},"
                f" which {articles_path} does not define"
            )
        if not tokenize(case.holding, tok_cfg):
            raise RelevanceError(
                f"{where}: case {case.case_id!r}: holding tokenizes to an empty query")
        cases.append(case)
    return cases


def _read_cases(path: str):
    """Yield ``("<path>:<line>", case)`` for each case of a JSON-lines file,
    checked as :func:`load_cases` says; a file without a case raises."""
    first_line: dict[str, int] = {}
    for lineno, obj in read_json_objects(path, RelevanceError):
        where = f"{path}:{lineno}"
        for name in ("case_id", "facts"):
            if name not in obj:
                raise RelevanceError(f"{where}: missing field {name!r}")
        texts = [obj["case_id"], obj["facts"], obj.get("holding", ""), obj.get("decision", "")]
        if not all(isinstance(t, str) for t in texts):
            raise RelevanceError(f"{where}: case_id, facts, holding and decision must be strings")
        articles = obj.get("articles", [])
        if not (isinstance(articles, list) and all(isinstance(a, str) for a in articles)):
            raise RelevanceError(f"{where}: articles must be a list of strings")
        case = CaseDocument(*texts, articles=frozenset(articles))
        try:
            case.validate()
        except RelevanceError as exc:
            raise RelevanceError(f"{where}: {exc}") from None
        if "\r" in case.case_id.replace("\r\n", ""):
            # csv.writer need not quote it, and unquoted it ends the CSV row
            raise RelevanceError(
                f"{where}: case_id {case.case_id!r} holds a carriage return without a line feed"
            )
        if len(case.articles) < len(articles):
            repeated = next(a for k, a in enumerate(articles) if a in articles[:k])
            raise RelevanceError(f"{where}: case {case.case_id!r} cites article {repeated!r} twice")
        claim(first_line, case.case_id, path, lineno, RelevanceError, "case_id")
        yield where, case
    if not first_line:
        raise RelevanceError(f"{path}: holds no case")


def save_cases(cases: list[CaseDocument], path: str) -> None:
    write_json_lines(path, (dict(asdict(case), articles=sorted(case.articles)) for case in cases))
