"""Mine parallel sentence pairs out of comparable document pairs.

Each document pair is scored sentence-by-sentence with a lexicon-coverage
similarity, globally aligned with a gap-penalized Needleman-Wunsch dynamic
program, and filtered by a similarity threshold. Each `mine_collection` or
`tune` call reads the lexicon once into a coverage index for its `min_prob`
and its documents' words, so a score matrix costs set lookups instead of
lexicon probes. Document pairs are independent work units: a collection
fans out over a process pool whose workers each get the documents, the
coverage index and the config once, at start-up, and return (i, j,
similarity) triples per document. The parent builds the mined pairs from
its own sentences in input order, so output is identical for any worker
count. A grid tuner picks the threshold and gap penalty that maximize F1
against gold alignments.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from corpusforge.errors import DataError
from corpusforge.text_pipeline import Document, ParallelCorpus, Sentence
from corpusforge.word_align import TranslationLexicon

DEFAULT_THRESHOLD_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
DEFAULT_PENALTY_GRID = (-0.05, -0.1, -0.2, -0.4, -0.8)


@dataclass
class MiningConfig:
    threshold: float = 0.5
    gap_penalty: float = -0.2
    min_prob: float = 0.1
    workers: int = 1

    def __post_init__(self):
        # Thresholds above 1.0 are tolerated as an explicit "mine nothing".
        if not self.threshold >= 0.0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if not self.gap_penalty <= 0:
            raise ValueError(f"gap penalty must be <= 0, got {self.gap_penalty}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class DocumentPair:
    source: Document
    target: Document


@dataclass(frozen=True)
class AlignmentStep:
    """One move of the alignment path: a match or a one-sided gap."""

    kind: str  # "match" | "gap_source" | "gap_target"
    source_index: int | None = None
    target_index: int | None = None

    @classmethod
    def match(cls, i: int, j: int) -> "AlignmentStep":
        return cls("match", i, j)

    @classmethod
    def gap_source(cls, i: int) -> "AlignmentStep":
        return cls("gap_source", source_index=i)

    @classmethod
    def gap_target(cls, j: int) -> "AlignmentStep":
        return cls("gap_target", target_index=j)


@dataclass
class AlignmentPath:
    steps: list[AlignmentStep]
    score: float

    def matches(self) -> list[tuple[int, int]]:
        return [
            (s.source_index, s.target_index) for s in self.steps if s.kind == "match"
        ]


@dataclass
class MinedPair:
    source: Sentence
    target: Sentence
    similarity: float
    source_doc: str
    target_doc: str


@dataclass
class MiningReport:
    document_pairs: int = 0
    pairs_emitted: int = 0
    wall_time_s: float = 0.0
    per_pair_yield: list[tuple[str, str, int]] = field(default_factory=list)

    def as_lines(self, include_timings: bool = True) -> list[str]:
        lines = [
            f"document_pairs={self.document_pairs}",
            f"pairs_emitted={self.pairs_emitted}",
        ]
        if include_timings:
            lines.append(f"wall_time_s={self.wall_time_s:.3f}")
        for src_id, tgt_id, n in self.per_pair_yield:
            lines.append(f"yield.{src_id}:{tgt_id}={n}")
        return lines


@dataclass
class TuningResult:
    best_threshold: float
    best_gap_penalty: float
    precision: float
    recall: float
    f1: float
    grid: list[tuple[float, float, float, float, float]]


def _similarity(covered_src: int, n_src: int, covered_tgt: int, n_tgt: int) -> float:
    """Harmonic mean of the covered-token fractions on each side, times the
    length ratio min/max; 0 when either side is empty. A token is covered
    when the other side has the same literal token or a lexicon translation
    of it with probability >= min_prob."""
    if n_src == 0 or n_tgt == 0:
        return 0.0
    a = covered_src / n_src
    b = covered_tgt / n_tgt
    if a + b == 0.0:
        return 0.0
    harmonic = 2.0 * a * b / (a + b)
    return harmonic * (min(n_src, n_tgt) / max(n_src, n_tgt))


_NO_WORDS: frozenset[str] = frozenset()


class _CoverageIndex:
    """The lexicon's word pairs that decide coverage, for one min_prob and
    the words of some document pairs.

    Scoring those documents with the index gives exactly the values of
    `tests/oracles.py::score_pair`, which probes the lexicon. A pair missing
    from the lexicon has probability 0.0. When 0.0
    fails min_prob (min_prob > 0, or nan), ``forward[e]`` holds the target
    words f whose pair (e, f) passes and ``reverse[f]`` the source words e.
    When 0.0 passes (min_prob <= 0), almost every pair passes, so the maps
    hold the listed pairs that fail instead. Words that occur in none of the
    documents are left out; the rest are held as the documents' own string
    objects, because pool workers reference every word they put in a cover
    set, and the lexicon's strings lie spread over the parent's memory, so
    referencing those would copy thousands of its pages into each worker.
    """

    def __init__(
        self, lexicon: TranslationLexicon, min_prob: float, pairs: list[DocumentPair]
    ):
        self.missing_covered = missing_covered = 0.0 >= min_prob
        source_words = {w: w for p in pairs for s in p.source.sentences for w in s.tokens}
        target_words = {w: w for p in pairs for s in p.target.sentences for w in s.tokens}
        forward: dict[str, set[str]] = defaultdict(set)
        reverse: dict[str, set[str]] = defaultdict(set)
        entries = lexicon.t.items()
        for e, f in [pair for pair, p in entries if (p >= min_prob) != missing_covered]:
            if e in source_words and f in target_words:
                e, f = source_words[e], target_words[f]
                forward[e].add(f)
                reverse[f].add(e)
        self.forward = {e: frozenset(fs) for e, fs in forward.items()}
        self.reverse = {f: frozenset(es) for f, es in reverse.items()}

    def cover(self, types: set[str], table: dict[str, frozenset[str]]) -> set[str]:
        """The words on the other side that a sentence with these types covers
        (``table`` is forward for a source sentence, reverse for a target one).
        When missing pairs are covered, the words it leaves uncovered instead:
        those listed as failing against every one of its types."""
        if not self.missing_covered:
            return types.union(*[table[w] for w in types if w in table])
        if not types:
            return set()
        return frozenset.intersection(*[table.get(w, _NO_WORDS) for w in types]) - types


def nw_align_matrix(
    scores: list[list[float]], gap_penalty: float, shape: tuple[int, int] | None = None
) -> AlignmentPath:
    """Needleman-Wunsch on a precomputed score matrix.

    Maximizes total match score plus gap_penalty per gap over all monotone
    global alignments. Backtrace ties prefer match, then gap-source, then
    gap-target. ``shape`` makes the dimensions explicit when either side is
    empty and the matrix alone cannot convey them.
    """
    if shape is not None:
        n, m = shape
    else:
        n = len(scores)
        m = len(scores[0]) if n else 0
    h = [[0.0] * (m + 1) for _ in range(n + 1)]
    # borders accumulate the same float additions the backtrace re-derives
    for i in range(1, n + 1):
        h[i][0] = h[i - 1][0] + gap_penalty
    for j in range(1, m + 1):
        h[0][j] = h[0][j - 1] + gap_penalty
    for i in range(1, n + 1):
        row, prev, score_row = h[i], h[i - 1], scores[i - 1]
        for j in range(1, m + 1):
            row[j] = max(
                prev[j - 1] + score_row[j - 1],
                prev[j] + gap_penalty,
                row[j - 1] + gap_penalty,
            )
    steps: list[AlignmentStep] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and h[i][j] == h[i - 1][j - 1] + scores[i - 1][j - 1]:
            steps.append(AlignmentStep.match(i - 1, j - 1))
            i -= 1
            j -= 1
        elif i > 0 and h[i][j] == h[i - 1][j] + gap_penalty:
            steps.append(AlignmentStep.gap_source(i - 1))
            i -= 1
        else:
            steps.append(AlignmentStep.gap_target(j - 1))
            j -= 1
    steps.reverse()
    return AlignmentPath(steps=steps, score=h[n][m])


def _score_matrix(pair: DocumentPair, index: _CoverageIndex) -> list[list[float]]:
    """The similarity of every sentence pair, with each sentence's token
    counts and cover set computed once."""

    def side(sentences, table):
        rows = []
        for sentence in sentences:
            counts = Counter(sentence.tokens)
            cover = index.cover(set(counts), table)
            rows.append((tuple(counts.items()), len(sentence.tokens), cover))
        return rows

    targets = side(pair.target.sentences, index.reverse)
    flip = index.missing_covered
    scores = []
    for src_items, n_src, src_cover in side(pair.source.sentences, index.forward):
        row = []
        for tgt_items, n_tgt, tgt_cover in targets:
            covered_src = sum(c for e, c in src_items if e in tgt_cover)
            covered_tgt = sum(c for f, c in tgt_items if f in src_cover)
            if flip:
                covered_src, covered_tgt = n_src - covered_src, n_tgt - covered_tgt
            row.append(_similarity(covered_src, n_src, covered_tgt, n_tgt))
        scores.append(row)
    return scores


def _matches(
    pair: DocumentPair, index: _CoverageIndex, config: MiningConfig
) -> list[tuple[int, int, float]]:
    """(i, j, similarity) of the aligned sentences scoring at or above threshold."""
    scores = _score_matrix(pair, index)
    path = nw_align_matrix(
        scores,
        config.gap_penalty,
        shape=(len(pair.source.sentences), len(pair.target.sentences)),
    )
    return [
        (i, j, scores[i][j]) for i, j in path.matches() if scores[i][j] >= config.threshold
    ]


def _mined_pairs(
    pair: DocumentPair, matches: list[tuple[int, int, float]]
) -> list[MinedPair]:
    return [
        MinedPair(
            source=pair.source.sentences[i],
            target=pair.target.sentences[j],
            similarity=similarity,
            source_doc=pair.source.id,
            target_doc=pair.target.id,
        )
        for i, j, similarity in matches
    ]


def mine_document_pair(
    pair: DocumentPair, lexicon: TranslationLexicon, config: MiningConfig
) -> list[MinedPair]:
    """Align one document pair and keep matches scoring at or above threshold.

    `mine_collection` passes the coverage index it built for
    config.min_prob and all its pairs in place of the lexicon, so that it
    builds it once.
    """
    if isinstance(lexicon, _CoverageIndex):
        index = lexicon
    else:
        index = _CoverageIndex(lexicon, config.min_prob, [pair])
    return _mined_pairs(pair, _matches(pair, index, config))


# (pairs, index, config) of the collection a pool worker serves, set once
# by the pool's initializer in each worker process.
_worker_inputs: tuple[list[DocumentPair], _CoverageIndex, MiningConfig] | None = None


def _init_worker(pairs, index, config) -> None:
    global _worker_inputs
    _worker_inputs = (pairs, index, config)


def _worker_matches(k: int) -> list[tuple[int, int, float]]:
    pairs, index, config = _worker_inputs
    return _matches(pairs[k], index, config)


def mine_collection(
    pairs: list[DocumentPair], lexicon: TranslationLexicon, config: MiningConfig
) -> tuple[list[MinedPair], MiningReport]:
    """Mine many document pairs, fanning out over min(config.workers, len(pairs)) processes.

    Each worker receives the document pairs, the coverage index and the
    config once and returns (i, j, similarity) triples per document index;
    the lexicon itself never reaches a worker. Results are merged in input
    order from the caller's own sentences, so output does not depend on the
    worker count or scheduling.
    """
    start = time.perf_counter()
    index = _CoverageIndex(lexicon, config.min_prob, pairs)
    workers = min(config.workers, len(pairs))
    if workers <= 1:
        per_doc = [mine_document_pair(p, index, config) for p in pairs]
    else:
        chunksize = max(1, len(pairs) // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(pairs, index, config),
        ) as pool:
            matches = list(
                pool.map(_worker_matches, range(len(pairs)), chunksize=chunksize)
            )
        per_doc = [_mined_pairs(p, m) for p, m in zip(pairs, matches)]
    mined = [mp for doc_result in per_doc for mp in doc_result]
    report = MiningReport(
        document_pairs=len(pairs),
        pairs_emitted=len(mined),
        wall_time_s=time.perf_counter() - start,
        per_pair_yield=[
            (pair.source.id, pair.target.id, len(doc_result))
            for pair, doc_result in zip(pairs, per_doc)
        ],
    )
    return mined, report


def as_parallel_corpus(mined: list[MinedPair]) -> ParallelCorpus:
    return ParallelCorpus(pairs=[(mp.source, mp.target) for mp in mined])


def gold_pairs(
    pairs: list[DocumentPair], gold_links: dict[str, set[tuple[int, int]]]
) -> list[tuple[DocumentPair, set[tuple[int, int]]]]:
    """Attach each gold document's links to its document pair, in id order.

    Raises DataError when a source document id repeats in `pairs` or a gold
    id names no document pair.
    """
    by_source_id = {}
    for pair in pairs:
        if pair.source.id in by_source_id:
            raise DataError(
                f"source document id {pair.source.id!r} appears more than once "
                "in the manifest"
            )
        by_source_id[pair.source.id] = pair
    gold = []
    for doc_id, links in sorted(gold_links.items()):
        if doc_id not in by_source_id:
            raise DataError(f"gold document {doc_id!r} not present in the manifest")
        gold.append((by_source_id[doc_id], links))
    return gold


def tune(
    gold: list[tuple[DocumentPair, set[tuple[int, int]]]],
    lexicon: TranslationLexicon,
    threshold_grid=DEFAULT_THRESHOLD_GRID,
    penalty_grid=DEFAULT_PENALTY_GRID,
    min_prob: float = 0.1,
) -> TuningResult:
    """Grid-search threshold and gap penalty against gold sentence alignments.

    Every grid cell mines all gold documents and scores the emitted (i, j)
    matches with micro-averaged precision/recall/F1 (precision is 0 when
    nothing is emitted). The best cell maximizes F1; ties prefer the lower
    threshold, then the less-negative penalty. The full grid is returned.
    """
    if not gold:
        raise DataError("tuning requires at least one gold document pair")
    if not threshold_grid or not penalty_grid:
        raise ValueError("tuning grids must be non-empty")

    index = _CoverageIndex(lexicon, min_prob, [pair for pair, _ in gold])
    prepared = []
    for pair, links in gold:
        n, m = len(pair.source.sentences), len(pair.target.sentences)
        for i, j in links:
            if not (0 <= i < n and 0 <= j < m):
                raise DataError(
                    f"gold link ({i}, {j}) outside document pair "
                    f"{pair.source.id}:{pair.target.id} ({n}x{m} sentences)"
                )
        prepared.append((_score_matrix(pair, index), set(links)))
    total_gold = sum(len(links) for _, links in prepared)

    cells: dict[tuple[float, float], tuple[float, float, float]] = {}
    for gamma in penalty_grid:
        doc_matches = [
            ([(i, j, scores[i][j]) for i, j in nw_align_matrix(scores, gamma).matches()], links)
            for scores, links in prepared
        ]
        for theta in threshold_grid:
            tp = 0
            n_pred = 0
            for matches, links in doc_matches:
                predicted = {(i, j) for i, j, sim in matches if sim >= theta}
                n_pred += len(predicted)
                tp += len(predicted & links)
            precision = tp / n_pred if n_pred else 0.0
            recall = tp / total_gold if total_gold else 0.0
            f1 = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )
            cells[(theta, gamma)] = (precision, recall, f1)

    grid = [
        (theta, gamma) + cells[(theta, gamma)]
        for theta in threshold_grid
        for gamma in penalty_grid
    ]
    best_theta, best_gamma = max(
        cells, key=lambda tg: (cells[tg][2], -tg[0], tg[1])
    )
    precision, recall, f1 = cells[(best_theta, best_gamma)]
    return TuningResult(
        best_threshold=best_theta,
        best_gap_penalty=best_gamma,
        precision=precision,
        recall=recall,
        f1=f1,
        grid=grid,
    )
