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


def log_prob(model: NGramModel, context, word: str) -> float:
    """log10 P(word | context) with longest-suffix back-off.

    Unknown words (in the context or the predicted position) are mapped to
    ``<unk>``; the context is truncated to the model's order minus one.
    Raises DataError when the predicted word falls back to a unigram the
    model lacks (an unknown word under a model read without ``<unk>``).
    """
    w = word if word in model.vocab else UNK
    ctx = tuple(t if t in model.vocab else UNK for t in context)
    if model.order > 1:
        ctx = ctx[-(model.order - 1) :]
    else:
        ctx = ()
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
