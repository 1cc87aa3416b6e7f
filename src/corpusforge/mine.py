"""Mine parallel sentence pairs out of comparable document pairs.

Each document pair is scored sentence-by-sentence with a lexicon-coverage
similarity, globally aligned with a gap-penalized Needleman-Wunsch dynamic
program, and filtered by a similarity threshold. A score matrix costs no
lexicon probes: it reads the lexicon's coverage index for `min_prob`, which
the lexicon builds once over all its rows and keeps, so `mine_collection`,
`tune` and `mine_document_pair` share one build per lexicon and `min_prob`
(> 0, so the index holds the passing pairs and a missing pair never covers).
It counts a sentence's coverage against every sentence of the other side
at once, one dict lookup per word, in the lanes of one int. Document pairs
are independent work units, mined one way for any worker count: a
collection is cut into contiguous shares of equal document counts, the
caller mines the first with `mine_document_pair`, and one plain process per
other share gets its documents, the coverage index and the config as its
arguments and sends back (i, j, similarity) triples per document over a
one-way pipe. `workers` is an upper bound: a collection gets at most one
share per `_MIN_SHARE_CELLS` score cells (sentence pairs), the measured size
at which a share pays for its helper's start-up, so a small one is mined by
the caller alone. The caller builds the mined pairs from its own sentences
in input order, so output is identical for any worker count; one share
starts no process and imports no `multiprocessing`. A grid tuner picks the
threshold and gap penalty that maximize F1 against gold alignments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from struct import Struct

from corpusforge.errors import DataError, SettingError, check_float, check_int
from corpusforge.text_pipeline import Document, Sentence
from corpusforge.word_align import Coverage, TranslationLexicon

DEFAULT_THRESHOLD_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
DEFAULT_PENALTY_GRID = (-0.05, -0.1, -0.2, -0.4, -0.8)


@dataclass
class MiningConfig:
    threshold: float = 0.5
    gap_penalty: float = -0.2
    min_prob: float = 0.1
    workers: int = 1

    def __post_init__(self):
        check_float("threshold", self.threshold)
        check_float("gap penalty", self.gap_penalty)
        check_float("min prob", self.min_prob)
        # Thresholds above 1.0 are tolerated as an explicit "mine nothing".
        if not self.threshold >= 0.0:
            raise SettingError(f"threshold must be >= 0, got {self.threshold}")
        if not self.gap_penalty <= 0:
            raise SettingError(f"gap penalty must be <= 0, got {self.gap_penalty}")
        check_int("workers", self.workers, 1)
        if not self.min_prob > 0:
            raise SettingError(f"min prob must be > 0, got {self.min_prob}")


@dataclass
class DocumentPair:
    source: Document
    target: Document


@dataclass
class MinedPair:
    source: Sentence
    target: Sentence
    similarity: float


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


def _cover(types: set[str], table: dict[str, frozenset[str]]) -> set[str]:
    """The words on the other side that a sentence with these types covers
    (``table`` is the index's forward map for a source sentence, its reverse
    map for a target one)."""
    return types.union(*[table[w] for w in types if w in table])


def nw_align_matrix(scores: list[list[float]], gap_penalty: float) -> list[tuple[int, int, float]]:
    """Needleman-Wunsch on a precomputed score matrix: the (i, j, scores[i][j])
    matches of the path maximizing total match score plus gap_penalty per gap
    over all monotone global alignments, in order.

    Backtrace ties prefer match, then gap-source, then gap-target. Once either
    side is used up only gaps remain, so the backtrace stops there.
    """
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
    matches = []
    i, j = n, m
    while i > 0 and j > 0:
        score = scores[i - 1][j - 1]
        if h[i][j] == h[i - 1][j - 1] + score:
            i -= 1
            j -= 1
            matches.append((i, j, score))
        elif h[i][j] == h[i - 1][j] + gap_penalty:
            i -= 1
        else:
            j -= 1
    matches.reverse()
    return matches


def _score_matrix(pair: DocumentPair, index: Coverage) -> list[list[float]]:
    """The similarity of every sentence pair, with each sentence's cover set
    computed once. Scoring with the lexicon's coverage index gives exactly
    the values of `tests/oracles.py::score_pair`, which probes the lexicon.

    The counts against all target sentences are packed into one int, as
    `text_pipeline.edit_distances` packs its columns: target sentence j has
    the 8 bytes from byte 8j, and no count, at most a sentence's length,
    carries into the next. A word's `covered` int has a 1 in the lane of
    each target cover that holds it, its `counts` int its count in each
    target sentence; a source sentence's row is then two sums, over its
    tokens in `covered` and over its cover's words in `counts`.
    """
    covered: dict[str, int] = {}
    counts: dict[str, int] = {}
    lengths = []
    lane = 1
    for sentence in pair.target.sentences:
        for word in _cover(set(sentence.tokens), index.reverse):
            covered[word] = covered.get(word, 0) | lane
        for word in sentence.tokens:
            counts[word] = counts.get(word, 0) + lane
        lengths.append(len(sentence.tokens))
        lane <<= 64
    size = 8 * len(lengths)
    # little-endian, as to_bytes writes below, whatever the host's order
    lanes = Struct(f"<{len(lengths)}Q").unpack
    scores = []
    for sentence in pair.source.sentences:
        n_src = len(sentence.tokens)
        covered_src = sum(map(covered.get, sentence.tokens, repeat(0)))
        cover = _cover(set(sentence.tokens), index.forward)
        covered_tgt = sum(map(counts.get, cover, repeat(0)))
        row = map(
            _similarity,
            lanes(covered_src.to_bytes(size, "little")),
            repeat(n_src),
            lanes(covered_tgt.to_bytes(size, "little")),
            lengths,
        )
        scores.append(list(row))
    return scores


def _matches(
    pair: DocumentPair, index: Coverage, config: MiningConfig
) -> list[tuple[int, int, float]]:
    """The (i, j, similarity) matches of the pair's alignment at or above threshold."""
    matches = nw_align_matrix(_score_matrix(pair, index), config.gap_penalty)
    return [(i, j, sim) for i, j, sim in matches if sim >= config.threshold]


def _mined_pairs(
    pair: DocumentPair, matches: list[tuple[int, int, float]]
) -> list[MinedPair]:
    return [
        MinedPair(pair.source.sentences[i], pair.target.sentences[j], similarity)
        for i, j, similarity in matches
    ]


def mine_document_pair(
    pair: DocumentPair, lexicon: TranslationLexicon, config: MiningConfig
) -> list[MinedPair]:
    """Mine one document pair: its `nw_align_matrix` matches at or above threshold."""
    return _mined_pairs(pair, _matches(pair, lexicon.coverage(config.min_prob), config))


# The fewest score cells (sentence pairs) a share must hold to be given a
# helper process: a helper pays when the cells it takes off the caller cost
# more than it adds. Measured in fresh processes on a 2-vCPU host (Python
# 3.11.7, fork start method) with the seed-0 `mine` benchmark collection:
# - serial mining costs c ~ 3.0 us per cell (20,520 cells in 63-70 ms);
# - a helper with no documents adds F ~ 25 ms (median of 12 pairs, quartiles
#   20-32 ms): importing `multiprocessing` ~12 ms, the fork until the helper
#   runs ~5 ms, ~2,400 copy-on-write faults in caller and helper at ~2.6 us
#   each, the reply and the join ~2 ms;
# - two processes mining at once each take s times as long per cell as one
#   alone: a helper mines 1.10 times slower from its cold caches, and two
#   loops on free cores ran 1.0-1.25 times slower.
# Two shares of S cells take F + s*S*c against 2*S*c serially, so a share
# pays from S = F / ((2 - s) * c): 9,300 cells at s = 1.1, 11,900 at 1.3,
# rounded up here. (When another tenant holds the second vCPU, s reads
# 1.7-2.6 and no share size pays; a size threshold cannot see that.)
_MIN_SHARE_CELLS = 12_000


def _shares(n: int, workers: int) -> list[range]:
    """Cut n document indexes into `workers` contiguous runs, in order,
    whose lengths differ by at most one; none is empty if workers <= n."""
    return [range(k * n // workers, (k + 1) * n // workers) for k in range(workers)]


def _mine_share(conn, pairs, index, config) -> None:
    """A helper process's work: mine a share's document pairs with the
    coverage index and the config, and send back the list of matches of
    each pair, or the exception that mining them raised and its traceback,
    as a tuple."""
    with conn:
        try:
            reply = [_matches(p, index, config) for p in pairs]
        except Exception as exc:
            import traceback  # only a failing helper pays for it

            reply = exc, traceback.format_exc()
        conn.send(reply)


def _fan_out(
    pairs: list[DocumentPair], lexicon: TranslationLexicon, config: MiningConfig, workers: int
) -> list[list[MinedPair]]:
    """The mined pairs of every document pair, in `workers` shares: the
    caller mines the first with `mine_document_pair` while one helper
    process per other share mines that one with the coverage index, so a
    single share starts no helper. The helpers are gone and every pipe end
    is closed on return, whether it returns or raises."""
    index = lexicon.coverage(config.min_prob)
    shares = _shares(len(pairs), workers)
    links, helpers = [], []
    try:
        for share in shares[1:]:
            import multiprocessing  # only a collection that fans out pays for it

            link, helper_end = multiprocessing.Pipe(duplex=False)
            links.append(link)
            with helper_end:
                helper = multiprocessing.Process(
                    target=_mine_share,
                    args=(helper_end, pairs[share.start : share.stop], index, config),
                )
                helper.start()
            helpers.append(helper)
        mined = [mine_document_pair(pairs[k], lexicon, config) for k in shares[0]]
        for share, helper, link in zip(shares[1:], helpers, links):
            try:
                reply = link.recv()
            except EOFError:
                helper.join()
                raise RuntimeError(
                    f"mining helper process exited with code {helper.exitcode} "
                    "before sending its matches"
                ) from None
            if isinstance(reply, tuple):
                exc, remote_traceback = reply
                raise exc from RuntimeError(f"in a mining helper process:\n{remote_traceback}")
            mined += map(_mined_pairs, pairs[share.start : share.stop], reply)
            helper.join()
        return mined
    finally:
        for helper in helpers:
            helper.terminate()  # a no-op for a helper already joined
            helper.join()
            helper.close()
        for link in links:
            link.close()


def mine_collection(
    pairs: list[DocumentPair], lexicon: TranslationLexicon, config: MiningConfig
) -> tuple[list[MinedPair], MiningReport]:
    """Mine many document pairs in min(config.workers, len(pairs), cells //
    _MIN_SHARE_CELLS) shares, at least one, where cells is the number of
    sentence pairs scored: config.workers is the most processes used, and a
    share must hold enough cells to outweigh a helper's start-up (see
    `_MIN_SHARE_CELLS`), so a small collection is mined serially.

    The lexicon's coverage index for config.min_prob is built first, so no
    document's time includes it. The pairs are cut into contiguous shares
    of equal document counts. The caller mines the first share, and each
    other share goes to a process of its own, with the index and the config
    as its arguments, and comes back as (i, j, similarity) triples per
    document. The lexicon itself never reaches a helper. Results are merged
    in input order from the caller's own sentences, so output does not
    depend on the worker count or the start method. A helper's exception is
    raised again in the caller, and no helper outlives the call.
    """
    start = time.perf_counter()
    cells = sum(len(p.source.sentences) * len(p.target.sentences) for p in pairs)
    workers = max(1, min(config.workers, len(pairs), cells // _MIN_SHARE_CELLS))
    per_doc = _fan_out(pairs, lexicon, config, workers)
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


def tuning_cells(thresholds, penalties, min_prob: float) -> list[MiningConfig]:
    """One MiningConfig per cell of a tuning grid, threshold-major, in the
    grids' own order, duplicate entries included; each cell checks its own
    threshold, penalty and min_prob as mining does."""
    if not thresholds or not penalties:
        raise SettingError("tuning grids must be non-empty")
    return [MiningConfig(theta, gamma, min_prob) for theta in thresholds for gamma in penalties]


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
    nothing is emitted); the alignments are computed once per distinct
    penalty. `grid` holds one (threshold, penalty, precision, recall, f1)
    row per cell, threshold-major, in the grids' own order, duplicate
    entries included. The best cell maximizes F1; ties prefer the lower
    threshold, then the less-negative penalty, then the row listed first.
    """
    if not gold:
        raise DataError("tuning requires at least one gold document pair")
    cells = tuning_cells(threshold_grid, penalty_grid, min_prob)

    index = lexicon.coverage(min_prob)
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

    by_penalty = {
        gamma: [(nw_align_matrix(scores, gamma), links) for scores, links in prepared]
        for gamma in dict.fromkeys(cell.gap_penalty for cell in cells)
    }
    grid = []
    for cell in cells:
        tp = 0
        n_pred = 0
        for matches, links in by_penalty[cell.gap_penalty]:
            predicted = {(i, j) for i, j, sim in matches if sim >= cell.threshold}
            n_pred += len(predicted)
            tp += len(predicted & links)
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / total_gold if total_gold else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        grid.append((cell.threshold, cell.gap_penalty, precision, recall, f1))
    best = max(grid, key=lambda row: (row[4], -row[0], row[1]))
    return TuningResult(*best, grid=grid)
