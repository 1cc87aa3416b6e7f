"""Interpolated Kneser-Ney n-gram language models with ARPA serialization.

The model uses one absolute discount per order, estimated from the
count-of-counts of that order's (adjusted) counts, and interpolates each
order with the next lower one. Lower orders are built from continuation
counts (how many distinct words precede a gram) rather than raw counts,
with the usual exception that grams starting with ``<s>`` keep raw counts
since nothing can precede a sentence start. ``<unk>`` is always in the
vocabulary and receives interpolation mass, so every query is finite.

All probabilities are base-10 logs, matching the ARPA convention.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from corpusforge.errors import DataError, ParseError
from corpusforge.text_pipeline import Sentence

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

_DISCOUNT_FLOOR = 0.1
_DISCOUNT_CEIL = 0.9


@dataclass
class NGramModel:
    """A trained back-off model: log10 probs per gram, log10 backoff per context."""

    order: int
    vocab: frozenset[str]
    probs: dict[tuple[str, ...], float]
    backoffs: dict[tuple[str, ...], float] = field(default_factory=dict)
    discounts: dict[int, float] = field(default_factory=dict)


@dataclass
class PerplexityResult:
    log10_prob_sum: float
    token_count: int
    perplexity: float
    oov_count: int


def _count_ngrams(streams: list[list[str]], order: int) -> Counter:
    counts: Counter = Counter()
    for stream in streams:
        for i in range(len(stream) - order + 1):
            counts[tuple(stream[i : i + order])] += 1
    return counts


def _continuation_counts(higher: Counter) -> Counter:
    """Distinct left-extensions per suffix gram (the keys of `higher` are distinct)."""
    return Counter(gram[1:] for gram in higher)


def _estimate_discount(counts: Counter) -> float:
    n1 = sum(1 for c in counts.values() if c == 1)
    n2 = sum(1 for c in counts.values() if c == 2)
    if n1 + 2 * n2 == 0:
        d = 0.5
    else:
        d = n1 / (n1 + 2 * n2)
    return min(_DISCOUNT_CEIL, max(_DISCOUNT_FLOOR, d))


def train_lm(corpus: list[Sentence], order: int = 6, min_count: int = 1) -> NGramModel:
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

    # Adjusted counts: raw at the top, continuation counts below, except
    # that grams starting with <s> keep raw counts (nothing precedes <s>).
    # Only the top order is counted: below it, a gram not at a stream start
    # ends a gram one order up, so each level has its raw count's keys;
    # <s> grams are the stream starts (the tokenizer never emits <s>). Dict
    # key order follows this count; nothing reads it, as write_arpa sorts.
    adjusted: dict[int, Counter] = {order: _count_ngrams(streams, order)}
    for k in range(order - 1, 0, -1):
        adjusted[k] = _continuation_counts(adjusted[k + 1])
        if k > 1:
            adjusted[k].update(tuple(s[:k]) for s in streams if len(s) >= k)
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


def log_prob(model: NGramModel, context, word: str) -> float:
    """log10 P(word | context) with longest-suffix back-off.

    Unknown words (in the context or the predicted position) are mapped to
    ``<unk>``; the context is truncated to the model's order minus one.
    Raises DataError when the predicted word falls back to a unigram the
    model lacks (an unknown word under a model read without ``<unk>``).
    """
    w = word if word in model.vocab else UNK
    start = max(0, len(context) + 1 - model.order)
    ctx = tuple(t if t in model.vocab else UNK for t in context[start:])
    backoff_sum = 0.0
    while ctx:
        gram = ctx + (w,)
        if gram in model.probs:
            return backoff_sum + model.probs[gram]
        backoff_sum += model.backoffs.get(ctx, 0.0)
        ctx = ctx[1:]
    try:
        return backoff_sum + model.probs[(w,)]
    except KeyError:
        raise DataError(f"model has no unigram {w!r} to score {word!r} with") from None


def perplexity(model: NGramModel, sentence: Sentence) -> PerplexityResult:
    """Score ``<s> tokens </s>``; the token count includes </s> but not <s>."""
    tokens = list(sentence.tokens)
    oov = sum(1 for t in tokens if t not in model.vocab)
    history: list[str] = [BOS]
    lp = 0.0
    for w in tokens + [EOS]:
        lp += log_prob(model, history, w)
        history.append(w)
    n = len(tokens) + 1
    return PerplexityResult(
        log10_prob_sum=lp,
        token_count=n,
        perplexity=10.0 ** (-lp / n),
        oov_count=oov,
    )


def pooled_perplexity(results: list[PerplexityResult]) -> float:
    """Corpus perplexity from summed log-probs and token counts; 1.0 for no tokens."""
    total_lp = 0.0
    total_tokens = 0
    for result in results:
        total_lp += result.log10_prob_sum
        total_tokens += result.token_count
    return 10.0 ** (-total_lp / total_tokens) if total_tokens else 1.0


def cross_entropy(model: NGramModel, sentence: Sentence) -> float:
    """Per-token log10 cross-entropy of a sentence under the model."""
    result = perplexity(model, sentence)
    return -result.log10_prob_sum / result.token_count


def write_arpa(model: NGramModel) -> str:
    """Serialize to the standard ARPA text format (log10, 6 decimals)."""
    grams_by_order: dict[int, list[tuple[str, ...]]] = defaultdict(list)
    for gram in model.probs:
        grams_by_order[len(gram)].append(gram)
    lines = ["\\data\\"]
    for k in range(1, model.order + 1):
        lines.append(f"ngram {k}={len(grams_by_order.get(k, []))}")
    for k in range(1, model.order + 1):
        grams = sorted(grams_by_order.get(k, []))
        if not grams:
            continue
        lines.append("")
        lines.append(f"\\{k}-grams:")
        for gram in grams:
            entry = f"{model.probs[gram]:.6f}\t{' '.join(gram)}"
            if gram in model.backoffs:
                entry += f"\t{model.backoffs[gram]:.6f}"
            lines.append(entry)
    lines.append("")
    lines.append("\\end\\")
    lines.append("")
    return "\n".join(lines)


def read_arpa(text: str) -> NGramModel:
    """Parse an ARPA file into a model in one pass over its lines.

    Sections must ascend, as KenLM writes and requires. Raises ParseError
    (with a line number) at the first fault: a malformed header, an order
    below 1, a repeated or out-of-order section, a count mismatch, or a
    token absent from the unigram section. Discounts come back empty.
    """
    lines = text.splitlines()
    declared: dict[int, int] = {}
    listed: Counter = Counter()
    vocab: set[str] = set()
    probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    section = None  # None before \data\, 0 in its header, then the current order
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if section is None:
            if stripped != "\\data\\":
                raise ParseError("expected \\data\\ header", line=lineno)
            section = 0
            continue
        if section == 0 and not stripped.startswith("\\"):
            if not stripped.startswith("ngram "):
                raise ParseError(f"bad \\data\\ entry: {stripped!r}", line=lineno)
            try:
                k, count = map(int, stripped[len("ngram ") :].split("="))
            except ValueError as exc:
                raise ParseError(f"bad \\data\\ entry: {stripped!r}", line=lineno) from exc
            if k < 1:
                raise ParseError(f"n-gram order must be >= 1: {stripped!r}", line=lineno)
            declared[k] = count
            continue
        if not declared:
            raise ParseError("\\data\\ section declares no n-gram orders", line=lineno - 1)
        if stripped == "\\end\\":
            break
        if stripped.startswith("\\") and stripped.endswith("-grams:"):
            try:
                k = int(stripped[1 : -len("-grams:")])
            except ValueError as exc:
                raise ParseError(f"bad section header: {stripped!r}", line=lineno) from exc
            if k not in declared:
                raise ParseError(f"section \\{k}-grams: not declared in \\data\\", line=lineno)
            if k <= section:
                raise ParseError(f"section \\{k}-grams: repeated or out of order", line=lineno)
            section = k
            continue
        if section == 0:
            raise ParseError(f"unexpected content: {stripped!r}", line=lineno)
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise ParseError("expected 2 or 3 tab-separated fields", line=lineno)
        try:
            prob = float(fields[0])
            backoff = float(fields[2]) if len(fields) == 3 else None
        except ValueError as exc:
            raise ParseError(f"bad numeric field: {line!r}", line=lineno) from exc
        gram = tuple(fields[1].split())
        if len(gram) != section:
            raise ParseError(
                f"gram {fields[1]!r} has {len(gram)} tokens in a \\{section}-grams: section",
                line=lineno,
            )
        if section == 1:
            vocab.add(gram[0])
        for tok in gram:
            if tok not in vocab:
                raise ParseError(f"token {tok!r} missing from unigram section", line=lineno)
        probs[gram] = prob
        if backoff is not None:
            backoffs[gram] = backoff
        listed[section] += 1
    else:
        if section is None:
            raise ParseError("missing \\data\\ header", line=len(lines))
        if not declared:
            raise ParseError("\\data\\ section declares no n-gram orders", line=len(lines))
        raise ParseError("missing \\end\\ marker", line=len(lines))

    for k, count in declared.items():
        if listed[k] != count:
            raise ParseError(
                f"\\data\\ declares {count} {k}-grams but {listed[k]} were listed",
                line=len(lines),
            )
    return NGramModel(order=max(declared), vocab=frozenset(vocab), probs=probs, backoffs=backoffs)
