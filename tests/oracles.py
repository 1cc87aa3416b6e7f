"""Independent reference implementations the tests check against, and the
small helpers only tests need.

The references deliberately use different formulations than the package
code: exhaustive recursion instead of iterative dynamic programs, explicit
alignment enumeration instead of factorized updates, lexicon probes instead
of a coverage index.
"""

import math
import random
from collections import Counter, defaultdict

from corpusforge.errors import DataError, ParseError
from corpusforge.eval_mt import _NIST_BETA, BleuResult, _ngram_counts, ter
from corpusforge.lm import (
    BOS,
    EOS,
    UNK,
    NGramModel,
    _continuation_counts,
    _count_ngrams,
    _estimate_discount,
)
from corpusforge.mine import _similarity, nw_align_matrix
from corpusforge.selection import combine_and_resample
from corpusforge.text_pipeline import Sentence
from corpusforge.word_align import NULL_WORD, AlignmentLinks, TranslationLexicon


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


# `lm.train_lm` as it was when it counted every order from the streams and
# rebuilt each lower level: the package must give equal probs, backoffs,
# discounts and vocabulary (key order aside) and the same ARPA bytes.
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
    discounts = {k: _estimate_discount(adjusted[k]) for k in range(1, order + 1)}

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

    return NGramModel(
        order=order, vocab=vocab, probs=probs, backoffs=backoffs, discounts=discounts
    )


# `lm.read_arpa` as it was when it buffered every entry before building the
# model and accepted sections in any order, a repeated one replacing the
# earlier.
def reference_read_arpa(text: str) -> NGramModel:
    """Parse an ARPA file back into a model.

    Raises ParseError (with a line number) on malformed headers, count
    mismatches, or grams using tokens absent from the unigram section.
    The per-order discounts are not part of the format and come back empty.
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
    is a lexicon translation with probability >= min_prob, or when the same
    literal token appears on the other side (numbers, names, punctuation).
    Mining's coverage index must give exactly these values.
    """
    src_counts = Counter(source.tokens)
    tgt_counts = Counter(target.tokens)
    src_types = set(src_counts)
    tgt_types = set(tgt_counts)

    covered_src = sum(
        c
        for e, c in src_counts.items()
        if e in tgt_types or any(lexicon.prob(e, f) >= min_prob for f in tgt_types)
    )
    covered_tgt = sum(
        c
        for f, c in tgt_counts.items()
        if f in src_types or any(lexicon.prob(e, f) >= min_prob for e in src_types)
    )
    return _similarity(covered_src, len(source.tokens), covered_tgt, len(target.tokens))


def nw_align(source, target, scorer, gap_penalty):
    """Globally align two sentence sequences under a pairwise scorer."""
    scores = [[scorer(s, t) for t in target] for s in source]
    return nw_align_matrix(scores, gap_penalty, shape=(len(source), len(target)))


def gap_count(path):
    """The number of one-sided gaps on an alignment path."""
    return sum(1 for s in path.steps if s.kind != "match")


def select_for_lm(monolingual, profile, config=None):
    """Select in-domain-looking sentences for language-model training."""
    selected, _ = combine_and_resample(list(monolingual), profile, config)
    return selected


def corpus_ter(inp, allow_shifts=True):
    """The segments' summed TER edits over their summed reference length."""
    edits = sum(ter(hyp, ref, allow_shifts=allow_shifts).edits for hyp, ref in inp.segments())
    return edits / max(sum(len(ref.tokens) for ref in inp.references), 1)


def reference_bleu(inp, max_n: int = 4, smooth: bool = False) -> BleuResult:
    """Corpus BLEU in its own pass over the segments.

    The formulation `eval_mt.bleu` had before BLEU and NIST shared one n-gram
    count per segment; the package must reproduce this `BleuResult`
    (precisions, brevity penalty and score) exactly.
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
            hyp_grams = _ngram_counts(hyp.tokens, n)
            ref_grams = _ngram_counts(ref.tokens, n)
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
        score = bp * math.exp(sum(math.log(p) for p in precisions) / max_n)
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
            ref_counts[n].update(_ngram_counts(ref.tokens, n))

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
            hyp_grams = _ngram_counts(hyp.tokens, n)
            ref_grams = _ngram_counts(ref.tokens, n)
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
    brevity = math.exp(_NIST_BETA * math.log(ratio) ** 2)
    return score * brevity


def translations(lexicon, source):
    """t(f | source) for every target word f listed with this source word."""
    return {f: p for (e, f), p in lexicon.t.items() if e == source}


def contexts(model):
    """All contexts that have at least one stored continuation."""
    return {gram[:-1] for gram in model.probs if len(gram) > 1}


def links_of(*pairs):
    """Alignment links from (source_index, target_index) pairs."""
    return AlignmentLinks(links=frozenset(pairs))
