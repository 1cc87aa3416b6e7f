"""IBM Model 1 lexicon training and symmetrized word alignments.

The EM-trained lexicon t(target | source) is the lexical knowledge the
mining scorer runs on, through the coverage index the lexicon builds once
per `min_prob`. Viterbi decoding in both directions plus a symmetrization
heuristic yields word alignments when those are wanted directly.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, repeat
from operator import ge, not_
from typing import NamedTuple

from corpusforge.errors import DataError, ParseError, SettingError
from corpusforge.text_pipeline import ParallelCorpus, Sentence, float_sum, line_slices

NULL_WORD = "<null>"


class Coverage(NamedTuple):
    """The word pairs that decide coverage at one min_prob.

    A pair missing from the lexicon has probability 0.0. When 0.0 fails
    min_prob (min_prob > 0, or nan), ``forward[e]`` holds the target words f
    whose pair (e, f) passes and ``reverse[f]`` the source words e. When 0.0
    passes (``missing_covered``), almost every pair passes, so the maps hold
    the listed pairs that fail instead.
    """

    missing_covered: bool
    forward: dict[str, frozenset[str]]
    reverse: dict[str, frozenset[str]]


class TranslationLexicon:
    """The rows (sources[k], targets[k], probs[k]) of P(target | source), in
    row order; rows sum to one per source. `by_source[source][target]` is a
    pair's probability, built on first read with the last row of a repeated
    pair winning; `t[(source, target)]`, which no reader here builds, is the
    same view. A pair missing from them has probability 0.0."""

    def __init__(self, sources: list[str], targets: list[str], probs):
        self.sources = sources
        self.targets = targets
        self.probs = probs
        self._coverage: dict[float, Coverage] = {}

    @cached_property
    def t(self) -> dict[tuple[str, str], float]:
        return dict(zip(zip(self.sources, self.targets), self.probs))

    @cached_property
    def by_source(self) -> dict[str, dict[str, float]]:
        view: dict[str, dict[str, float]] = {}
        for e, f, p in zip(self.sources, self.targets, self.probs):
            view.setdefault(e, {})[f] = p
        return view

    def coverage(self, min_prob: float) -> Coverage:
        """The `Coverage` of every row at min_prob, built on first ask and
        then kept. It reads the rows, never `by_source` or `t`, in two scans:
        the pairs with a deciding row, then every row of those pairs, so that
        the last row of a pair decides it, as in the views."""
        if min_prob in self._coverage:
            return self._coverage[min_prob]
        missing_covered = 0.0 >= min_prob
        sources, targets, probs = self.sources, self.targets, self.probs

        def deciding(values):
            keep = map(ge, values, repeat(min_prob))
            return map(not_, keep) if missing_covered else keep

        kept = {(sources[k], targets[k]) for k in compress(count(), deciding(probs))}
        rows = compress(count(), map(kept.__contains__, zip(sources, targets)))
        last = {(sources[k], targets[k]): probs[k] for k in rows}
        forward: dict[str, set[str]] = defaultdict(set)
        reverse: dict[str, set[str]] = defaultdict(set)
        for e, f in compress(last, deciding(last.values())):
            forward[e].add(f)
            reverse[f].add(e)
        index = self._coverage[min_prob] = Coverage(
            missing_covered,
            {e: frozenset(fs) for e, fs in forward.items()},
            {f: frozenset(es) for f, es in reverse.items()},
        )
        return index

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.by_source == other.by_source

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}{(self.sources, self.targets, self.probs)!r}"


@dataclass(frozen=True)
class AlignmentLinks:
    """Word links for one sentence pair as (source_index, target_index)."""

    links: frozenset[tuple[int, int]]


def train_model1(
    corpus: ParallelCorpus, iterations: int = 10
) -> tuple[TranslationLexicon, list[float]]:
    """Run IBM Model 1 EM and return the lexicon plus per-iteration log-likelihoods.

    Initialization is uniform over the target vocabulary. Entry i of the
    likelihood list is the corpus log-likelihood (natural log, including the
    uniform alignment prior 1/(l+1) per target token) under the parameters in
    force during iteration i, so the list is non-decreasing.

    The (source, target) pairs are interned once, in first-seen order,
    through one target-to-id dict per source word, so EM runs over flat float
    lists indexed by pair id; the lexicon's rows are the pairs in that order.
    Every float is the result of the same operations in the same order as the
    dict-keyed formulation (`tests/oracles.py::reference_model1`), so
    lexicons and likelihoods are bit-identical to it.
    """
    if iterations < 1:
        raise SettingError(f"iterations must be >= 1, got {iterations}")
    if len(corpus) == 0:
        raise DataError("cannot train Model 1 on an empty corpus")

    pairs = [
        ([NULL_WORD] + list(src.tokens), list(tgt.tokens)) for src, tgt in corpus.pairs
    ]
    target_vocab = {f for _, tgt in pairs for f in tgt}
    if not target_vocab:
        raise DataError("corpus has no target tokens")
    uniform = 1.0 / len(target_vocab)

    # index[e][f] is pair k = (sources[k], targets[k]); key_src[k] is its
    # source-word id. Each sentence pair becomes (log l, source ids, one row of
    # pair ids per target token); duplicate words stay in, as in the E-step sum.
    index: dict[str, dict[str, int]] = {}
    key_src: list[int] = []
    sources: list[str] = []
    targets: list[str] = []
    src_ids: dict[str, int] = {}
    prepared = []
    for src, tgt in pairs:
        sids = [src_ids.setdefault(e, len(src_ids)) for e in src]
        pair_ids = [index.setdefault(e, {}) for e in src]
        for e, sid, ids in zip(src, sids, pair_ids):
            for f in tgt:
                if f not in ids:
                    ids[f] = len(sources)
                    key_src.append(sid)
                    sources.append(e)
                    targets.append(f)
        rows = [[ids[f] for ids in pair_ids] for f in tgt]
        prepared.append((math.log(len(src)), sids, rows))

    t = [uniform] * len(sources)
    log_likelihoods: list[float] = []
    for _ in range(iterations):
        counts = [0.0] * len(t)
        totals = [0.0] * len(src_ids)
        ll = 0.0
        for log_l, sids, rows in prepared:
            for row in rows:
                ps = [t[k] for k in row]
                denom = float_sum(ps)  # a row is never empty
                ll += math.log(denom) - log_l
                for k, e, p in zip(row, sids, ps):
                    share = p / denom
                    counts[k] += share
                    totals[e] += share
        t = [c / totals[e] for c, e in zip(counts, key_src)]
        log_likelihoods.append(ll)
    return TranslationLexicon(sources, targets, t), log_likelihoods


def viterbi_align(
    lexicon: TranslationLexicon, source: Sentence, target: Sentence
) -> AlignmentLinks:
    """Link each target token to its most likely source token.

    Ties between source positions go to the smallest index; NULL absorbs a
    target token (producing no link) only when it strictly beats every
    source position. Each source token's `by_source` dict is looked up once
    per sentence.
    """
    if len(source.tokens) == 0 or len(target.tokens) == 0:
        raise DataError("viterbi_align requires non-empty sentences")
    by_source = lexicon.by_source
    first, *rest = [by_source.get(e, {}).get for e in source.tokens]
    null = by_source.get(NULL_WORD, {}).get
    links = set()
    for j, f in enumerate(target.tokens):
        best_i = 0
        best_p = first(f, 0.0)
        for i, prob in enumerate(rest, start=1):
            p = prob(f, 0.0)
            if p > best_p:
                best_p = p
                best_i = i
        if null(f, 0.0) > best_p:
            continue
        links.add((best_i, j))
    return AlignmentLinks(links=frozenset(links))


def _check_bounds(links: AlignmentLinks, source_len: int, target_len: int, name: str):
    for i, j in links.links:
        if not (0 <= i < source_len and 0 <= j < target_len):
            raise DataError(
                f"{name} link ({i}, {j}) outside declared bounds "
                f"{source_len}x{target_len}"
            )


# the offsets of a link's 8 neighbours
_NEIGHBOURS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]


def symmetrize(
    forward: AlignmentLinks,
    backward: AlignmentLinks,
    heuristic: str,
    source_len: int,
    target_len: int,
) -> AlignmentLinks:
    """Merge two directional link sets; both must be in forward orientation.

    ``intersection`` and ``union`` are set operations. ``grow-diag`` starts
    from the intersection and keeps scanning the union in row-major order,
    adding any link 8-adjacent to one already present, until a full pass
    adds nothing. Each candidate looks up its 8 neighbours in the result,
    so a pass costs O(|union|).
    """
    _check_bounds(forward, source_len, target_len, "forward")
    _check_bounds(backward, source_len, target_len, "backward")
    inter = forward.links & backward.links
    union = forward.links | backward.links
    if heuristic == "intersection":
        return AlignmentLinks(links=inter)
    if heuristic == "union":
        return AlignmentLinks(links=union)
    if heuristic != "grow-diag":
        raise SettingError(f"unknown symmetrization heuristic: {heuristic!r}")

    result = set(inter)
    candidates = sorted(union - result)
    changed = True
    while changed:
        changed = False
        for i, j in candidates:
            if (i, j) not in result and any(
                (i + di, j + dj) in result for di, dj in _NEIGHBOURS
            ):
                result.add((i, j))
                changed = True
    return AlignmentLinks(links=frozenset(result))


def align_corpus(
    corpus: ParallelCorpus, forward: TranslationLexicon, reverse: TranslationLexicon, heuristic: str
) -> list[str]:
    """One line of sorted ``i-j`` symmetrized links per sentence pair. `reverse`
    is the target-to-source lexicon; its links are flipped before merging."""
    lines = []
    for src, tgt in corpus.pairs:
        fwd = viterbi_align(forward, src, tgt)
        rev = viterbi_align(reverse, tgt, src)
        back = AlignmentLinks(links=frozenset((i, j) for j, i in rev.links))
        merged = symmetrize(fwd, back, heuristic, len(src.tokens), len(tgt.tokens))
        lines.append(" ".join(f"{i}-{j}" for i, j in sorted(merged.links)))
    return lines


def write_lexicon(lexicon: TranslationLexicon) -> str:
    """TSV rows `source target prob`, sorted by source, then prob descending."""
    by_source = lexicon.by_source
    return "".join(
        f"{e}\t{f}\t{-q:.10g}\n"
        for e in sorted(by_source)
        for q, f in sorted([(-p, f) for f, p in by_source[e].items()])
    )


# Every byte but \t and \n, which UTF-8 puts inside no multibyte character.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b"\t\n")


def read_lexicon(text: str) -> TranslationLexicon:
    """Parse `source target prob` rows, skipping blank lines, into a lexicon
    of those rows; each word is one string object across all rows.

    Each slice of `line_slices` is checked and split in bulk: its UTF-8
    bytes ("surrogatepass" encodes any str) with all but tabs and newlines
    deleted must be b"\t\t\n" per line (the text's last line may lack its
    newline), and its fields, split at both, must have a float last in every
    row. Any other slice goes through `_lexicon_fields`, which drops its
    blank lines or raises the ParseError of its first bad line.
    """
    sources: list[str] = []
    targets: list[str] = []
    probs = array("d")
    words: dict[str, str] = {}
    lineno = 0
    for piece in line_slices(text):
        seps = piece.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
        if not piece.endswith("\n"):  # the text's last line
            seps += b"\n"
        lines = seps.count(b"\n")
        fields = None
        if seps == b"\t\t\n" * lines:
            fields = piece.replace("\n", "\t").split("\t")
            del fields[3 * lines :]  # the empty field after a last \n
            try:
                chunk = array("d", map(float, fields[2::3]))
            except ValueError:  # a bad probability, or a blank "\t\t" line
                fields = None
        if fields is None:
            fields = _lexicon_fields(piece.removesuffix("\n").split("\n"), lineno)
            chunk = array("d", map(float, fields[2::3]))
        probs += chunk
        sources += map(words.setdefault, fields[0::3], fields[0::3])
        targets += map(words.setdefault, fields[1::3], fields[1::3])
        lineno += lines
    return TranslationLexicon(sources, targets, probs)


def _lexicon_fields(lines: list[str], before: int) -> list[str]:
    """The fields of the non-blank lines, which follow line number `before`;
    raises the ParseError of the first that is not a lexicon row."""
    fields = []
    for lineno, line in enumerate(lines, start=before + 1):
        if not line.strip():
            continue
        row = line.split("\t")
        if len(row) != 3:
            raise ParseError("expected 3 tab-separated fields", line=lineno)
        try:
            float(row[2])
        except ValueError as exc:
            raise ParseError(f"bad probability: {row[2]!r}", line=lineno) from exc
        fields += row
    return fields
