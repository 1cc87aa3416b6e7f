"""Interpolated Kneser-Ney n-gram language models with ARPA serialization.

The model uses one absolute discount per order, estimated from the
count-of-counts of that order's (adjusted) counts, and interpolates each
order with the next lower one. Lower orders are built from continuation
counts (how many distinct words precede a gram) rather than raw counts,
with the usual exception that grams starting with ``<s>`` keep raw counts
since nothing can precede a sentence start. ``<unk>`` is always in the
vocabulary and receives interpolation mass, so every query is finite.

All probabilities are base-10 logs, matching the ARPA convention.

A model stores each gram's key tuple once: a back-off is keyed by the very
tuple that keys the same gram's probability. Repeated numbers are shared
too: a trained model's equal back-offs within one order are one float
object, and so are a read model's numeric fields with equal text within one
ARPA section. Neither changes a value or a written byte.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from corpusforge.errors import DataError, ParseError, SettingError
from corpusforge.text_pipeline import Sentence, float_sum, split_lines

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

_DISCOUNT_FLOOR = 0.1
_DISCOUNT_CEIL = 0.9


@dataclass
class NGramModel:
    """A trained back-off model: log10 probs per gram, log10 backoff per context.

    Every key of `backoffs` is the `probs` key of the same gram. Equal
    back-offs of one order (or, read from ARPA, equal field texts of one
    section) are one float object.
    """

    order: int
    vocab: frozenset[str]
    probs: dict[tuple[str, ...], float]
    backoffs: dict[tuple[str, ...], float] = field(default_factory=dict)


@dataclass
class PerplexityResult:
    log10_prob_sum: float
    token_count: int
    oov_count: int

    @property
    def perplexity(self) -> float:
        return _perplexity(self.log10_prob_sum, self.token_count)


def _continuation_counts(higher: Counter) -> Counter:
    """Distinct left-extensions per suffix gram (the keys of `higher` are distinct)."""
    return Counter(gram[1:] for gram in higher)


def _estimate_discount(counts: Counter) -> float:
    counts_of_counts = Counter(counts.values())
    n1, n2 = counts_of_counts[1], counts_of_counts[2]
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
        raise SettingError(f"order must be >= 1, got {order}")
    if len(corpus) == 0:
        raise DataError("cannot train a language model on an empty corpus")

    token_counts: Counter = Counter()
    for sent in corpus:
        token_counts.update(sent.tokens)
    # each kept word maps to one string object, so a key holds one per word
    keep = {tok: tok for tok, c in token_counts.items() if c >= min_count}
    vocab = frozenset(keep.keys() | {BOS, EOS, UNK})

    def mapped(tokens):
        return [keep.get(t, UNK) for t in tokens]

    if order == 1:
        streams = [mapped(s.tokens) + [EOS] for s in corpus]
    else:
        streams = [[BOS] + mapped(s.tokens) + [EOS] for s in corpus]

    # Adjusted counts: raw at the top, continuation counts below, except
    # that grams starting with <s> keep raw counts (nothing precedes <s>).
    # Only the top order is counted: below it, a gram not at a stream start
    # ends a gram one order up, so each level has its raw count's keys;
    # <s> grams are the stream starts (the tokenizer never emits <s>).
    # Nothing reads the key order of probs or backoffs: write_arpa sorts.
    adjusted: dict[int, Counter] = {order: Counter()}
    for s in streams:
        adjusted[order].update(zip(*[s[i:] for i in range(order)]))
    for k in range(order - 1, 0, -1):
        adjusted[k] = _continuation_counts(adjusted[k + 1])
        if k > 1:
            adjusted[k].update(tuple(s[:k]) for s in streams if len(s) >= k)
    discounts = {k: _estimate_discount(adjusted[k]) for k in range(1, order + 1)}

    probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}

    # Unigram level, interpolated with the uniform distribution over vocab.
    d1 = discounts[1]
    uni = adjusted.pop(1)
    total = sum(uni.values())
    n_types = len(uni)
    base = 1.0 / len(vocab)
    interpolated: dict[tuple[str, ...], float] = {}
    for w in vocab:
        gram = (w,)
        p = max(uni.get(gram, 0) - d1, 0.0) / total + d1 * n_types / total * base
        interpolated[gram] = p
        probs[gram] = math.log10(p)

    # Each higher order in whole-order passes: a context's count sum, type
    # count and gamma once per context, then every gram's probability. A
    # context is the lower order's own key (every context is a gram one
    # order down), so a back-off and its gram's probability share one tuple.
    # Each order's counts are dropped as soon as they are read.
    for k in range(2, order + 1):
        dk = discounts[k]
        grams = list(adjusted[k])
        counts = list(adjusted.pop(k).values())
        lower = {gram: gram for gram in interpolated}
        contexts = [lower[gram[:-1]] for gram in grams]
        del lower  # freed before this order's sums and gammas are built
        sums: dict[tuple[str, ...], int] = {}
        for context, c in zip(contexts, counts):
            sums[context] = sums.get(context, 0) + c
        gammas = {context: dk * n / sums[context] for context, n in Counter(contexts).items()}
        # One log10 per distinct gamma, and one float per distinct log10:
        # gammas an ulp apart (equal ratios n / sum, rounded apart) can share
        # one. Gammas are positive and finite, so no -0.0 or NaN is merged.
        shared: dict[float, float] = {}
        logs: dict[float, float] = {}
        for gamma in set(gammas.values()):
            value = math.log10(gamma)
            logs[gamma] = shared.setdefault(value, value)
        backoffs.update(zip(gammas, map(logs.__getitem__, gammas.values())))
        # Every count here is an int >= 1 and dk <= _DISCOUNT_CEIL < 1, so
        # c - dk is positive and needs no max(..., 0.0) as the unigrams do.
        level = [
            (c - dk) / sums[context] + gammas[context] * interpolated[gram[1:]]
            for gram, c, context in zip(grams, counts, contexts)
        ]
        probs.update(zip(grams, map(math.log10, level)))
        interpolated = dict(zip(grams, level))

    return NGramModel(order=order, vocab=vocab, probs=probs, backoffs=backoffs)


def log_prob(model: NGramModel, context, word: str) -> float:
    """log10 P(word | context) with longest-suffix back-off.

    Unknown words (in the context or the predicted position) are mapped to
    ``<unk>``; the context is truncated to the model's order minus one, and
    is mapped only when it holds an out-of-vocabulary token. Raises
    DataError when the predicted word falls back to a unigram the model
    lacks (an unknown word under a model read without ``<unk>``).
    """
    vocab, probs = model.vocab, model.probs
    w = word if word in vocab else UNK
    ctx = tuple(context[max(0, len(context) + 1 - model.order) :])
    if not vocab.issuperset(ctx):
        ctx = tuple(t if t in vocab else UNK for t in ctx)
    backoff_sum = 0.0
    while ctx:
        p = probs.get(ctx + (w,))
        if p is not None:
            return backoff_sum + p
        backoff_sum += model.backoffs.get(ctx, 0.0)
        ctx = ctx[1:]
    p = probs.get((w,))
    if p is None:
        raise DataError(f"model has no unigram {w!r} to score {word!r} with")
    return backoff_sum + p


def _perplexity(lp: float, n: int) -> float:
    """10 ** (-lp / n), or inf where that power overflows a float."""
    try:
        return 10.0 ** (-lp / n)
    except OverflowError:
        return math.inf


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
    return PerplexityResult(log10_prob_sum=lp, token_count=n, oov_count=oov)


def pooled_perplexity(results: list[PerplexityResult]) -> float:
    """Corpus perplexity from the log-probs' `float_sum` and the token count; 1.0 for none."""
    total_lp = float_sum((result.log10_prob_sum for result in results), 0.0)
    total_tokens = sum(result.token_count for result in results)
    return _perplexity(total_lp, total_tokens) if total_tokens else 1.0


def cross_entropy(model: NGramModel, sentence: Sentence) -> float:
    """Per-token log10 cross-entropy of a sentence under the model."""
    result = perplexity(model, sentence)
    return -result.log10_prob_sum / result.token_count


def write_arpa(model: NGramModel) -> str:
    """Serialize to the standard ARPA text format (log10, 6 decimals)."""
    # Grams of one order joined with NUL, which sorts below every other
    # character, sort as their tuples do, and faster. Only a token that holds
    # a NUL breaks that, and every gram's tokens are in the vocabulary.
    key = None if any("\0" in word for word in model.vocab) else "\0".join
    grams_by_order: dict[int, list[tuple[str, ...]]] = defaultdict(list)
    for gram in model.probs:
        grams_by_order[len(gram)].append(gram)
    lines = ["\\data\\"]
    for k in range(1, model.order + 1):
        lines.append(f"ngram {k}={len(grams_by_order.get(k, []))}")
    for k in range(1, model.order + 1):
        grams = sorted(grams_by_order.get(k, []), key=key)
        if not grams:
            continue
        lines.append("")
        lines.append(f"\\{k}-grams:")
        for gram in grams:
            entry = f"{model.probs[gram]:.6f}\t{' '.join(gram)}"
            backoff = model.backoffs.get(gram)
            if backoff is not None:
                entry += f"\t{backoff:.6f}"
            lines.append(entry)
    lines.append("")
    lines.append("\\end\\")
    lines.append("")
    return "\n".join(lines)


def read_arpa(text: str) -> NGramModel:
    """Parse an ARPA file into a model in one pass over its lines.

    Sections must ascend, as KenLM writes and requires. Raises ParseError
    (with a line number) at the first fault: a malformed header, an order
    below 1 or declared twice, a repeated or out-of-order section, a gram
    listed twice, a count mismatch, or a token absent from the unigram
    section. Discounts come back empty.
    """
    numbered = enumerate(split_lines(text), start=1)
    lineno = 0  # the last line read; once the loop ends, the line count
    declared: dict[int, int] = {}
    vocab: dict[str, str] = {}  # each word to the one string object every gram shares
    probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    section = None  # None before \data\, 0 in its header, then the current order
    for lineno, line in numbered:
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
            if k in declared:
                raise ParseError(f"order {k} declared twice in \\data\\", line=lineno)
            declared[k] = count
            continue
        if not declared:
            raise ParseError("\\data\\ section declares no n-gram orders", line=lineno - 1)
        if stripped == "\\end\\":
            for lineno, _ in numbered:  # count the lines after \end\
                pass
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
            # One float per distinct field text, in a cache that lives as long
            # as the section. It is keyed by the text, not the value:
            # `-0.000000` and `0.000000` are equal but must read back as
            # themselves.
            numbers = functools.cache(float)
            continue
        if section == 0:
            raise ParseError(f"unexpected content: {stripped!r}", line=lineno)
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise ParseError("expected 2 or 3 tab-separated fields", line=lineno)
        try:
            prob = numbers(fields[0])
            backoff = numbers(fields[2]) if len(fields) == 3 else None
        except ValueError as exc:
            raise ParseError(f"bad numeric field: {line!r}", line=lineno) from exc
        words = fields[1].split()
        if len(words) != section:
            raise ParseError(
                f"gram {fields[1]!r} has {len(words)} tokens in a \\{section}-grams: section",
                line=lineno,
            )
        if section == 1:
            vocab.setdefault(words[0], words[0])
        try:
            gram = tuple(map(vocab.__getitem__, words))
        except KeyError as exc:
            raise ParseError(
                f"token {exc.args[0]!r} missing from unigram section", line=lineno
            ) from None
        if gram in probs:
            raise ParseError(f"gram {fields[1]!r} listed twice in \\{section}-grams:", line=lineno)
        probs[gram] = prob
        if backoff is not None:
            backoffs[gram] = backoff
    else:
        if section is None:
            raise ParseError("missing \\data\\ header", line=lineno)
        if not declared:
            raise ParseError("\\data\\ section declares no n-gram orders", line=lineno)
        raise ParseError("missing \\end\\ marker", line=lineno)

    listed = Counter(map(len, probs))  # a section's grams are its order long
    for k, count in declared.items():
        if listed[k] != count:
            raise ParseError(
                f"\\data\\ declares {count} {k}-grams but {listed[k]} were listed",
                line=lineno,
            )
    return NGramModel(order=max(declared), vocab=frozenset(vocab), probs=probs, backoffs=backoffs)
