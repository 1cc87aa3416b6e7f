"""Independent reference implementations the tests check against, and the
small helpers only tests need.

The references deliberately use different formulations than the package
code: exhaustive recursion instead of iterative dynamic programs, explicit
alignment enumeration instead of factorized updates, lexicon probes instead
of a coverage index. Where an oracle must give the package's float to the
bit, it adds left to right with ``reduce(add, ...)``: from Python 3.12,
``sum()`` compensates float additions and can round differently.
"""

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import add

from corpusforge.errors import DataError, ParseError
from corpusforge.eval_mt import TerResult
from corpusforge.lm import BOS, EOS, UNK, NGramModel
from corpusforge.mine import DocumentPair, TuningResult
from corpusforge.selection import combine_and_resample
from corpusforge.text_pipeline import Sentence, split_lines
from corpusforge.word_align import (
    NULL_WORD,
    AlignmentLinks,
    TranslationLexicon,
    symmetrize,
    viterbi_align,
)


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


def lexicon_of(t: dict[tuple[str, str], float]) -> TranslationLexicon:
    """The lexicon with one row per key of t, in t's order."""
    return TranslationLexicon([e for e, _ in t], [f for _, f in t], list(t.values()))


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
                denom = reduce(add, (t[(e, f)] for e in src), 0.0)
                ll += math.log(denom) - math.log(len(src))
                for e in src:
                    share = t[(e, f)] / denom
                    counts[(e, f)] += share
                    totals[e] += share
        for (e, f), c in counts.items():
            t[(e, f)] = c / totals[e]
        log_likelihoods.append(ll)
    return lexicon_of(t), log_likelihoods


def _count_ngrams(streams: list[list[str]], order: int) -> Counter:
    counts: Counter = Counter()
    for stream in streams:
        for i in range(len(stream) - order + 1):
            counts[tuple(stream[i : i + order])] += 1
    return counts


def _continuation_counts(higher: Counter) -> Counter:
    """Distinct left-extensions per suffix gram (the keys of `higher` are distinct)."""
    return Counter(gram[1:] for gram in higher)


def reference_discount(counts: Counter) -> float:
    """One order's Kneser-Ney discount from its adjusted counts, by its
    definition (Chen & Goodman 1998): D = n1 / (n1 + 2 n2), where n_r is the
    number of grams counted exactly r times; 0.5 when no gram is counted
    once or twice. It is clamped to [0.1, 0.9], as `lm` clamps it."""
    n1 = sum(1 for c in counts.values() if c == 1)
    n2 = sum(1 for c in counts.values() if c == 2)
    d = n1 / (n1 + 2 * n2) if n1 + n2 else 0.5
    return min(0.9, max(0.1, d))


# `lm.train_lm` as it was when it counted every order from the streams and
# rebuilt each lower level, grouping each order's grams by context: the
# package must give equal probs, backoffs and vocabulary (key order aside),
# estimate equal discounts, and write the same ARPA bytes. It shares no
# counting or discount code with `lm`.
def reference_kn(corpus: list[Sentence], order: int = 6, min_count: int = 1) -> NGramModel:
    """Train an interpolated Kneser-Ney model of the given order.

    Tokens seen fewer than ``min_count`` times are replaced by ``<unk>``
    before counting. With the default ``min_count=1`` nothing is replaced,
    but ``<unk>`` still gets a share of the interpolation mass.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if len(corpus) == 0:
        raise DataError("cannot train a language model on an empty corpus")

    token_counts: Counter = Counter()
    for sent in corpus:
        token_counts.update(sent.tokens)
    keep = {tok for tok, c in token_counts.items() if c >= min_count}
    vocab = frozenset(keep | {BOS, EOS, UNK})

    def mapped(tokens):
        return [t if t in keep else UNK for t in tokens]

    if order == 1:
        streams = [mapped(s.tokens) + [EOS] for s in corpus]
    else:
        streams = [[BOS] + mapped(s.tokens) + [EOS] for s in corpus]

    raw = {k: _count_ngrams(streams, k) for k in range(1, order + 1)}

    # Adjusted counts: raw at the top, continuation counts below, except
    # that grams starting with <s> keep raw counts (nothing precedes <s>).
    adjusted: dict[int, Counter] = {order: raw[order]}
    for k in range(order - 1, 0, -1):
        cont = _continuation_counts(raw[k + 1])
        for gram, c in raw[k].items():
            if gram[0] == BOS:
                cont[gram] = c
        cont = Counter({g: c for g, c in cont.items() if c > 0 and g != (BOS,)})
        adjusted[k] = cont
    discounts = {k: reference_discount(adjusted[k]) for k in range(1, order + 1)}

    probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}

    # Unigram level, interpolated with the uniform distribution over vocab.
    d1 = discounts[1]
    uni = adjusted[1]
    total = sum(uni.values())
    n_types = len(uni)
    base = 1.0 / len(vocab)
    interpolated: dict[tuple[str, ...], float] = {}
    for w in vocab:
        p = max(uni.get((w,), 0) - d1, 0.0) / total + d1 * n_types / total * base
        interpolated[(w,)] = p
        probs[(w,)] = math.log10(p)

    for k in range(2, order + 1):
        dk = discounts[k]
        by_context: dict[tuple[str, ...], list[tuple[str, int]]] = defaultdict(list)
        for gram, c in adjusted[k].items():
            by_context[gram[:-1]].append((gram[-1], c))
        level: dict[tuple[str, ...], float] = {}
        for context, items in by_context.items():
            s = sum(c for _, c in items)
            gamma = dk * len(items) / s
            backoffs[context] = math.log10(gamma)
            for w, c in items:
                gram = context + (w,)
                p = max(c - dk, 0.0) / s + gamma * interpolated[gram[1:]]
                level[gram] = p
                probs[gram] = math.log10(p)
        interpolated = level

    return NGramModel(order=order, vocab=vocab, probs=probs, backoffs=backoffs)


# `lm.read_arpa` as it was when it buffered every entry before building the
# model and accepted sections in any order, a repeated one replacing the
# earlier.
def reference_read_arpa(text: str) -> NGramModel:
    """Parse an ARPA file back into a model.

    Raises ParseError (with a line number) on malformed headers, count
    mismatches, or grams using tokens absent from the unigram section.
    """
    lines = text.splitlines()
    declared: dict[int, int] = {}
    entries: dict[int, list[tuple[tuple[str, ...], float, float | None]]] = {}
    i = 0
    n_lines = len(lines)

    while i < n_lines and lines[i].strip() != "\\data\\":
        if lines[i].strip():
            raise ParseError("expected \\data\\ header", line=i + 1)
        i += 1
    if i == n_lines:
        raise ParseError("missing \\data\\ header", line=n_lines)
    i += 1
    while i < n_lines:
        stripped = lines[i].strip()
        if not stripped:
            i += 1
            continue
        if stripped.startswith("\\"):
            break
        if not stripped.startswith("ngram "):
            raise ParseError(f"bad \\data\\ entry: {stripped!r}", line=i + 1)
        try:
            k_part, count_part = stripped[len("ngram ") :].split("=")
            declared[int(k_part)] = int(count_part)
        except ValueError as exc:
            raise ParseError(f"bad \\data\\ entry: {stripped!r}", line=i + 1) from exc
        i += 1
    if not declared:
        raise ParseError("\\data\\ section declares no n-gram orders", line=i)

    current_order: int | None = None
    saw_end = False
    while i < n_lines:
        stripped = lines[i].strip()
        if not stripped:
            i += 1
            continue
        if stripped == "\\end\\":
            saw_end = True
            break
        if stripped.startswith("\\") and stripped.endswith("-grams:"):
            try:
                current_order = int(stripped[1 : -len("-grams:")])
            except ValueError as exc:
                raise ParseError(f"bad section header: {stripped!r}", line=i + 1) from exc
            if current_order not in declared:
                raise ParseError(
                    f"section \\{current_order}-grams: not declared in \\data\\",
                    line=i + 1,
                )
            entries[current_order] = []
            i += 1
            continue
        if current_order is None:
            raise ParseError(f"unexpected content: {stripped!r}", line=i + 1)
        fields = lines[i].rstrip("\n").split("\t")
        if len(fields) not in (2, 3):
            raise ParseError("expected 2 or 3 tab-separated fields", line=i + 1)
        try:
            prob = float(fields[0])
            backoff = float(fields[2]) if len(fields) == 3 else None
        except ValueError as exc:
            raise ParseError(f"bad numeric field: {lines[i]!r}", line=i + 1) from exc
        gram = tuple(fields[1].split())
        if len(gram) != current_order:
            raise ParseError(
                f"gram {fields[1]!r} has {len(gram)} tokens in a "
                f"\\{current_order}-grams: section",
                line=i + 1,
            )
        entries[current_order].append((gram, prob, backoff))
        i += 1
    if not saw_end:
        raise ParseError("missing \\end\\ marker", line=n_lines)

    for k, count in declared.items():
        found = len(entries.get(k, []))
        if found != count:
            raise ParseError(
                f"\\data\\ declares {count} {k}-grams but {found} were listed",
                line=n_lines,
            )

    order = max(declared)
    vocab = frozenset(gram[0] for gram, _, _ in entries.get(1, []))
    probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    for k in sorted(entries):
        for gram, prob, backoff in entries[k]:
            for tok in gram:
                if tok not in vocab:
                    raise ParseError(f"token {tok!r} missing from unigram section")
            probs[gram] = prob
            if backoff is not None:
                backoffs[gram] = backoff
    return NGramModel(order=order, vocab=vocab, probs=probs, backoffs=backoffs)


def reference_log_prob(model, context, word):
    """log10 P(word | context) by recursion over the order.

    Maps the whole history to the vocabulary, then drops its first token
    while the gram would be longer than the model's order; an unseen gram
    costs its context's backoff (0 when none is stored) plus the score one
    order down.
    """
    w = word if word in model.vocab else UNK

    def score(ctx):
        if len(ctx) >= model.order:
            return score(ctx[1:])
        if ctx + (w,) in model.probs:
            return model.probs[ctx + (w,)]
        if not ctx:
            raise DataError(f"model has no unigram {w!r}")
        return model.backoffs.get(ctx, 0.0) + score(ctx[1:])

    return score(tuple(t if t in model.vocab else UNK for t in context))


def score_pair(lexicon, source, target, min_prob=0.1):
    """Lexicon-coverage similarity in [0, 1], probing the lexicon directly.

    Harmonic mean of the covered-token fractions on each side, times the
    length ratio min/max. A source token is covered when some target token
    is a lexicon translation listed with probability >= min_prob, or when
    the same literal token appears on the other side (numbers, names,
    punctuation). A pair missing from the lexicon never covers, whatever
    min_prob. Mining's coverage index must give exactly these values.
    """
    n_src, n_tgt = len(source.tokens), len(target.tokens)
    if n_src == 0 or n_tgt == 0:
        return 0.0
    src_counts = Counter(source.tokens)
    tgt_counts = Counter(target.tokens)
    src_types = set(src_counts)
    tgt_types = set(tgt_counts)

    t = lexicon.t
    covered_src = sum(
        c
        for e, c in src_counts.items()
        if e in tgt_types or any(t[e, f] >= min_prob for f in tgt_types if (e, f) in t)
    )
    covered_tgt = sum(
        c
        for f, c in tgt_counts.items()
        if f in src_types or any(t[e, f] >= min_prob for e in src_types if (e, f) in t)
    )
    a, b = covered_src / n_src, covered_tgt / n_tgt
    if a + b == 0.0:
        return 0.0
    return 2.0 * a * b / (a + b) * (min(n_src, n_tgt) / max(n_src, n_tgt))


def nw_align(source, target, scorer, gap_penalty):
    """Globally align two sentence sequences under a pairwise scorer: the
    (i, j, score) matches of `reference_nw_matches`."""
    scores = [[scorer(s, t) for t in target] for s in source]
    return reference_nw_matches(scores, gap_penalty, len(source), len(target))


def gap_count(matches, n, m):
    """The number of one-sided gaps on an n x m alignment path."""
    return n + m - 2 * len(matches)


def path_score(matches, gap_penalty, n, m):
    """The score of an n x m alignment path given its (i, j, score) matches."""
    return sum(score for _, _, score in matches) + gap_penalty * gap_count(matches, n, m)


def reference_nw_matches(scores, gap_penalty, n, m):
    """The (i, j, score) matches of the Needleman-Wunsch path, by the full
    step-by-step backtrace from (n, m) to (0, 0): ties prefer match, then
    gap-source, then gap-target."""
    h = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        h[i][0] = h[i - 1][0] + gap_penalty
    for j in range(1, m + 1):
        h[0][j] = h[0][j - 1] + gap_penalty
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            h[i][j] = max(
                h[i - 1][j - 1] + scores[i - 1][j - 1],
                h[i - 1][j] + gap_penalty,
                h[i][j - 1] + gap_penalty,
            )
    matches = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and h[i][j] == h[i - 1][j - 1] + scores[i - 1][j - 1]:
            matches.append((i - 1, j - 1, scores[i - 1][j - 1]))
            i -= 1
            j -= 1
        elif i > 0 and h[i][j] == h[i - 1][j] + gap_penalty:
            i -= 1
        else:
            j -= 1
    matches.reverse()
    return matches


def reference_tune(
    gold: list[tuple[DocumentPair, set[tuple[int, int]]]],
    lexicon: TranslationLexicon,
    threshold_grid,
    penalty_grid,
    min_prob: float = 0.1,
) -> TuningResult:
    """Mining's grid search as a map from (threshold, penalty) to
    (precision, recall, f1), filled penalty-major; the returned grid is read
    back from the map threshold-major, and the best cell is the map key
    maximizing (f1, -threshold, penalty). Duplicate or equal grid entries
    (0.0 and -0.0) share one key, holding the first key written."""
    if not gold:
        raise DataError("tuning requires at least one gold document pair")
    if not threshold_grid or not penalty_grid:
        raise ValueError("tuning grids must be non-empty")

    prepared = []
    for pair, links in gold:
        sources, targets = pair.source.sentences, pair.target.sentences
        n, m = len(sources), len(targets)
        for i, j in links:
            if not (0 <= i < n and 0 <= j < m):
                raise DataError(
                    f"gold link ({i}, {j}) outside document pair "
                    f"{pair.source.id}:{pair.target.id} ({n}x{m} sentences)"
                )
        scores = [[score_pair(lexicon, s, t, min_prob) for t in targets] for s in sources]
        prepared.append((scores, n, m, set(links)))
    total_gold = sum(len(links) for *_, links in prepared)

    cells: dict[tuple[float, float], tuple[float, float, float]] = {}
    for gamma in penalty_grid:
        doc_matches = [
            (reference_nw_matches(scores, gamma, n, m), links)
            for scores, n, m, links in prepared
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


def select_for_lm(monolingual, profile, config=None):
    """Select in-domain-looking sentences for language-model training."""
    selected, _ = combine_and_resample(list(monolingual), profile, config)
    return selected


def corpus_ter(inp, allow_shifts=True):
    """The segments' summed `reference_ter` edits over their summed reference length."""
    edits = sum(
        reference_ter(hyp, ref, allow_shifts=allow_shifts).edits for hyp, ref in inp.segments()
    )
    return edits / max(sum(len(ref.tokens) for ref in inp.references), 1)


def reference_shift_candidates(hyp: list, ref: list):
    """Each distinct legal block shift once, in the order first found: the
    block must match the reference somewhere, and it is moved so that it
    starts where that reference match sits. ``hyp`` itself is never yielded."""
    seen = {tuple(hyp)}
    n = len(hyp)
    for start in range(n):
        for length in range(1, n - start + 1):
            block = hyp[start : start + length]
            rest = hyp[:start] + hyp[start + length :]
            for k in range(len(ref) - length + 1):
                if ref[k : k + length] != block:
                    continue
                insert_at = min(k, len(rest))
                candidate = rest[:insert_at] + block + rest[insert_at:]
                key = tuple(candidate)
                if key not in seen:
                    seen.add(key)
                    yield candidate


def _reference_pick_shift(hyp: list, ref: list, base: int):
    """The legal shift that most reduces edit distance, or None.

    Ties on the immediate reduction are broken by the best follow-up
    reduction a second shift could achieve (one-step lookahead), keeping
    the procedure deterministic and as strong as an exhaustive two-shift
    search on short segments.
    """
    scored = [
        (base - textbook_edit_distance(c, ref), c) for c in reference_shift_candidates(hyp, ref)
    ]
    if not scored:
        return None
    max_gain = max(gain for gain, _ in scored)
    if max_gain < 1:
        return None
    tied = [candidate for gain, candidate in scored if gain == max_gain]
    if len(tied) == 1:
        return tied[0]
    remaining = base - max_gain
    best_candidate = tied[0]
    best_followup = -1
    for candidate in tied:
        followup = 0
        for nxt in reference_shift_candidates(candidate, ref):
            followup = max(followup, remaining - textbook_edit_distance(nxt, ref))
        if followup > best_followup:
            best_followup = followup
            best_candidate = candidate
    return best_candidate


def reference_ter(
    hypothesis: Sentence, reference: Sentence, allow_shifts: bool = True
) -> TerResult:
    """Translation Error Rate for one segment.

    Greedy shift search: repeatedly apply the single legal block shift that
    most reduces the word-level edit distance (each shift costs one edit),
    then add the remaining edit distance. With ``allow_shifts=False`` this
    is plain word-level edit distance over the reference length.
    """
    hyp = list(hypothesis.tokens)
    ref = list(reference.tokens)
    shifts = 0
    if allow_shifts:
        while True:
            base = textbook_edit_distance(hyp, ref)
            if base == 0:
                break
            chosen = _reference_pick_shift(hyp, ref, base)
            if chosen is None:
                break
            hyp = chosen
            shifts += 1
    edits = shifts + textbook_edit_distance(hyp, ref)
    return TerResult(edits=edits, shifts=shifts)


def ngram_counts(tokens, n: int) -> Counter:
    """The n-grams of ``tokens`` of one order n, with their counts."""
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


# NIST's brevity coefficient: the factor is 0.5 when the hypothesis is two
# thirds of the reference length.
NIST_BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2


@dataclass
class BleuResult:
    score: float  # in [0, 1]
    precisions: list[float]
    brevity_penalty: float


def reference_bleu(inp, max_n: int = 4, smooth: bool = False) -> BleuResult:
    """Corpus BLEU in its own pass over the segments, one segment and one
    order at a time; `eval_mt.bleu` must return this score exactly.
    """
    if len(inp) == 0:
        raise DataError("empty hypothesis set")
    correct = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in inp.segments():
        hyp_len += len(hyp.tokens)
        ref_len += len(ref.tokens)
        for n in range(1, max_n + 1):
            hyp_grams = ngram_counts(hyp.tokens, n)
            ref_grams = ngram_counts(ref.tokens, n)
            for gram, count in hyp_grams.items():
                correct[n - 1] += min(count, ref_grams.get(gram, 0))
            total[n - 1] += sum(hyp_grams.values())

    precisions = []
    for n in range(1, max_n + 1):
        num, den = correct[n - 1], total[n - 1]
        if smooth and n >= 2:
            num, den = num + 1, den + 1
        precisions.append(num / den if den else 0.0)

    if hyp_len == 0:
        return BleuResult(score=0.0, precisions=precisions, brevity_penalty=0.0)
    bp = math.exp(1.0 - ref_len / hyp_len) if hyp_len < ref_len else 1.0
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(reduce(add, map(math.log, precisions), 0.0) / max_n)
    return BleuResult(score=score, precisions=precisions, brevity_penalty=bp)


def reference_nist(inp, max_n: int = 5) -> float:
    """Corpus NIST in its own pass over the segments, one n-gram order at a
    time, as `eval_mt.nist` had it; the package must reproduce this float
    exactly.

    info(w1..wn) = log2(count(w1..wn-1) / count(w1..wn)) over the reference
    corpus (total reference tokens for n=1); matched hypothesis n-grams are
    clipped per segment like BLEU.
    """
    if len(inp) == 0:
        raise DataError("empty hypothesis set")
    ref_counts: list[Counter] = [Counter() for _ in range(max_n + 1)]
    total_ref_tokens = 0
    for ref in inp.references:
        total_ref_tokens += len(ref.tokens)
        for n in range(1, max_n + 1):
            ref_counts[n].update(ngram_counts(ref.tokens, n))

    def info(gram) -> float:
        n = len(gram)
        prefix = total_ref_tokens if n == 1 else ref_counts[n - 1][gram[:-1]]
        return math.log2(prefix / ref_counts[n][gram])

    score = 0.0
    hyp_len = 0
    ref_len = 0
    for n in range(1, max_n + 1):
        weighted = 0.0
        denom = 0
        for hyp, ref in inp.segments():
            hyp_grams = ngram_counts(hyp.tokens, n)
            ref_grams = ngram_counts(ref.tokens, n)
            for gram, count in hyp_grams.items():
                matched = min(count, ref_grams.get(gram, 0))
                if matched:
                    weighted += matched * info(gram)
            denom += sum(hyp_grams.values())
        if denom:
            score += weighted / denom
    for hyp, ref in inp.segments():
        hyp_len += len(hyp.tokens)
        ref_len += len(ref.tokens)

    if hyp_len == 0:
        return 0.0
    ratio = 1.0 if ref_len == 0 else min(hyp_len / ref_len, 1.0)
    brevity = math.exp(NIST_BETA * math.log(ratio) ** 2)
    return score * brevity


# `word_align.read_lexicon` as it was when it parsed one line at a time into
# the dict it returned.
def reference_read_lexicon(text: str) -> TranslationLexicon:
    """Parse `source target prob` rows; each word is one string object across all keys."""
    t: dict[tuple[str, str], float] = {}
    words: dict[str, str] = {}
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError("expected 3 tab-separated fields", line=lineno)
        try:
            p = float(fields[2])
        except ValueError as exc:
            raise ParseError(f"bad probability: {fields[2]!r}", line=lineno) from exc
        t[(words.setdefault(fields[0], fields[0]), words.setdefault(fields[1], fields[1]))] = p
    return lexicon_of(t)


# `word_align.viterbi_align` and `write_lexicon` as they were when they read
# the lexicon's (source, target)-keyed dict `t`.
def reference_viterbi_align(lexicon, source, target) -> AlignmentLinks:
    """Link each target token to its most likely source token: ties go to the
    smallest source index, and NULL absorbs a token only when it strictly
    beats every source position."""
    if len(source.tokens) == 0 or len(target.tokens) == 0:
        raise DataError("viterbi_align requires non-empty sentences")
    prob = lexicon.t.get
    links = set()
    for j, f in enumerate(target.tokens):
        best_i = 0
        best_p = prob((source.tokens[0], f), 0.0)
        for i, e in enumerate(source.tokens[1:], start=1):
            p = prob((e, f), 0.0)
            if p > best_p:
                best_p = p
                best_i = i
        if prob((NULL_WORD, f), 0.0) > best_p:
            continue
        links.add((best_i, j))
    return AlignmentLinks(links=frozenset(links))


def reference_write_lexicon(lexicon) -> str:
    """TSV rows `source target prob`, sorted by source, then prob descending."""
    rows = sorted(
        lexicon.t.items(), key=lambda item: (item[0][0], -item[1], item[0][1])
    )
    return "".join(f"{e}\t{f}\t{p:.10g}\n" for (e, f), p in rows)


def translations(lexicon, source):
    """t(f | source) for every target word f listed with this source word."""
    return {f: p for (e, f), p in lexicon.t.items() if e == source}


def contexts(model):
    """All contexts that have at least one stored continuation."""
    return {gram[:-1] for gram in model.probs if len(gram) > 1}


def reference_grow_diag(forward: AlignmentLinks, backward: AlignmentLinks) -> AlignmentLinks:
    """grow-diag by scanning the whole result for each candidate: starting
    from the intersection, repeated row-major passes over the union add any
    link at Chebyshev distance 1 from a link already present, until a pass
    adds nothing."""
    result = set(forward.links & backward.links)
    candidates = sorted((forward.links | backward.links) - result)
    changed = True
    while changed:
        changed = False
        for link in candidates:
            if link in result:
                continue
            i, j = link
            if any(max(abs(i - i2), abs(j - j2)) == 1 for i2, j2 in result):
                result.add(link)
                changed = True
    return AlignmentLinks(links=frozenset(result))


# The loop `cli align` ran before `word_align.align_corpus` held it.
def reference_align_lines(corpus, forward_lex, reverse_lex, heuristic) -> list[str]:
    """Viterbi links both ways, the reverse ones flipped into forward
    orientation, merged by `heuristic`: one line of sorted `i-j` links per pair."""
    lines = []
    for src, tgt in corpus.pairs:
        forward = viterbi_align(forward_lex, src, tgt)
        backward_rev = viterbi_align(reverse_lex, tgt, src)
        backward = AlignmentLinks(links=frozenset((i, j) for j, i in backward_rev.links))
        merged = symmetrize(forward, backward, heuristic, len(src.tokens), len(tgt.tokens))
        lines.append(" ".join(f"{i}-{j}" for i, j in sorted(merged.links)))
    return lines


def links_of(*pairs):
    """Alignment links from (source_index, target_index) pairs."""
    return AlignmentLinks(links=frozenset(pairs))


def compensated_sum(iterable, /, start=0):
    """Python 3.12's built-in ``sum`` in Python: ints as before, but floats
    added with Neumaier's compensation (gh-100425)."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is not int and type(item) is not bool:
                result = result + item
                break
            result += item
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif isinstance(item, int):
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result
