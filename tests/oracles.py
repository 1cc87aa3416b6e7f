"""Independent reference implementations the tests check against.

These deliberately use different formulations than the package code:
exhaustive recursion instead of iterative dynamic programs, explicit
alignment enumeration instead of factorized updates.
"""

import math
import random
from collections import defaultdict

from corpusforge.errors import DataError
from corpusforge.word_align import NULL_WORD, TranslationLexicon


def brute_force_nw_score(scores, gap_penalty, n, m):
    """Max score over all monotone global alignments, by plain recursion
    (every path is explored; no memoization)."""

    def best_from(i, j):
        if i == n and j == m:
            return 0.0
        candidates = []
        if i < n and j < m:
            candidates.append(scores[i][j] + best_from(i + 1, j + 1))
        if i < n:
            candidates.append(gap_penalty + best_from(i + 1, j))
        if j < m:
            candidates.append(gap_penalty + best_from(i, j + 1))
        return max(candidates)

    return best_from(0, 0)


def textbook_edit_distance(a, b):
    """Full-matrix word Levenshtein."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[n][m]


def legal_shifts(hyp, ref):
    """Block shifts whose block matches the reference at the destination."""
    out = []
    for start in range(len(hyp)):
        for length in range(1, len(hyp) - start + 1):
            block = hyp[start : start + length]
            rest = hyp[:start] + hyp[start + length :]
            for k in range(len(ref) - length + 1):
                if ref[k : k + length] == block:
                    insert_at = min(k, len(rest))
                    candidate = rest[:insert_at] + block + rest[insert_at:]
                    if candidate != hyp:
                        out.append(candidate)
    return out


def brute_force_ter_edits(hyp, ref, max_shifts=None):
    """Minimum shifts + edit distance over all shift sequences.

    Every shift costs one edit, so no minimal solution uses more shifts
    than the plain edit distance; searching to that depth (with visited
    states explored once) certifies the true minimum on small pairs.
    """
    base = textbook_edit_distance(hyp, ref)
    if max_shifts is None:
        max_shifts = base
    best = base
    visited = {tuple(hyp)}
    frontier = {tuple(hyp)}
    for depth in range(1, max_shifts + 1):
        if depth >= best:
            break  # deeper sequences cannot beat the current minimum
        next_frontier = set()
        for state in frontier:
            for candidate in legal_shifts(list(state), ref):
                key = tuple(candidate)
                if key in visited:
                    continue
                visited.add(key)
                best = min(best, depth + textbook_edit_distance(candidate, ref))
                next_frontier.add(key)
        frontier = next_frontier
    return best


def random_score_matrix(rng: random.Random, n, m, lo=-1.0, hi=1.0):
    return [[rng.uniform(lo, hi) for _ in range(m)] for _ in range(n)]


def reference_model1(corpus, iterations=10):
    """IBM Model 1 EM keyed by (source, target) tuples in plain dicts.

    The dict-based formulation `word_align.train_model1` had before it moved
    to interned pair ids; the package must reproduce its lexicon (values and
    key order) and likelihoods bit for bit.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if len(corpus) == 0:
        raise DataError("cannot train Model 1 on an empty corpus")

    pairs = [
        ([NULL_WORD] + list(src.tokens), list(tgt.tokens)) for src, tgt in corpus.pairs
    ]
    target_vocab = {f for _, tgt in pairs for f in tgt}
    if not target_vocab:
        raise DataError("corpus has no target tokens")
    uniform = 1.0 / len(target_vocab)

    t: dict[tuple[str, str], float] = {}
    for src, tgt in pairs:
        for e in src:
            for f in tgt:
                t[(e, f)] = uniform

    log_likelihoods: list[float] = []
    for _ in range(iterations):
        counts: dict[tuple[str, str], float] = defaultdict(float)
        totals: dict[str, float] = defaultdict(float)
        ll = 0.0
        for src, tgt in pairs:
            for f in tgt:
                denom = sum(t[(e, f)] for e in src)
                ll += math.log(denom) - math.log(len(src))
                for e in src:
                    share = t[(e, f)] / denom
                    counts[(e, f)] += share
                    totals[e] += share
        for (e, f), c in counts.items():
            t[(e, f)] = c / totals[e]
        log_likelihoods.append(ll)
    return TranslationLexicon(t=dict(t)), log_likelihoods
