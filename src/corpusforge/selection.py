"""Pseudo in-domain data selection.

General-domain sentences (or pairs) are scored against an in-domain profile
with three criteria: cosine tf-idf overlap, cross-entropy difference between
an in-domain and a general language model, and word-level edit-distance
similarity to in-domain sentences. Per-criterion ranks (average rank for
ties) are combined by weighted mean and the top fraction of candidates is
kept.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from corpusforge.errors import DataError, SettingError, check_float, check_int
from corpusforge.lm import NGramModel, cross_entropy, train_lm
from corpusforge.text_pipeline import (
    Sentence,
    edit_masks,
    float_sum,
    word_edit_distance,
)

# The positions in a (source, target) pair that each pair mode scores.
_PAIR_SIDES = {"source-side": (0,), "target-side": (1,), "both-sides-averaged": (0, 1)}
PAIR_MODES = tuple(_PAIR_SIDES)


@dataclass(frozen=True)
class DomainProfile:
    """Everything needed to score a candidate for domain relevance."""

    tfidf_centroid: dict[str, float]
    idf: dict[str, float]
    in_lm: NGramModel
    gen_lm: NGramModel
    edit_reference: list[tuple[str, ...]]
    # Derived once; frozen, so they cannot go stale (dataclasses.replace derives anew).
    # token -> [(reference index, count in that reference)]
    edit_postings: dict[str, list[tuple[int, int]]] = field(
        init=False, repr=False, compare=False
    )
    # each reference's edit_masks, by index: the reference is the pattern
    edit_reference_masks: list[dict] = field(init=False, repr=False, compare=False)
    # L2 norm of tfidf_centroid
    tfidf_centroid_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        norm = math.sqrt(float_sum((w * w for w in self.tfidf_centroid.values()), 0.0))
        postings: dict[str, list[tuple[int, int]]] = {}
        for k, ref in enumerate(self.edit_reference):
            for tok, count in Counter(ref).items():
                postings.setdefault(tok, []).append((k, count))
        object.__setattr__(self, "tfidf_centroid_norm", norm)
        object.__setattr__(self, "edit_postings", postings)
        object.__setattr__(self, "edit_reference_masks", list(map(edit_masks, self.edit_reference)))


@dataclass
class SelectionConfig:
    acceptance_rate: float = 0.20
    pair_mode: str = "target-side"
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        check_float("acceptance rate", self.acceptance_rate)
        if not 0.0 < self.acceptance_rate <= 1.0:
            raise SettingError(
                f"acceptance rate must be in (0, 1], got {self.acceptance_rate}"
            )
        if self.pair_mode not in PAIR_MODES:
            raise SettingError(f"pair_mode must be one of {PAIR_MODES}")
        if len(self.weights) != 3:
            raise SettingError(f"weights needs exactly three numbers, got {len(self.weights)}")
        for weight in self.weights:
            check_float("weight", weight)
        if min(self.weights) < 0 or not 0 < sum(self.weights) < math.inf:
            raise SettingError(
                f"weights must be >= 0 with a positive finite sum, got {self.weights}"
            )


@dataclass(frozen=True)
class ScoredCandidate:
    tfidf_sim: float
    ced: float
    edit_sim: float
    combined_rank: int
    selected: bool


def _idf_table(corpus: list[Sentence]) -> dict[str, float]:
    # Each sentence counts as one document; +1 keeps terms present in every
    # sentence from vanishing (a one-sentence profile must still have support).
    df: dict[str, int] = {}
    for sent in corpus:
        for term in set(sent.tokens):
            df[term] = df.get(term, 0) + 1
    n = len(corpus)
    return {term: math.log(n / d) + 1.0 for term, d in df.items()}


def _tfidf_vector(tokens, idf: dict[str, float]) -> dict[str, float]:
    vec: dict[str, float] = {}
    for tok in tokens:
        w = idf.get(tok)
        if w is not None:
            vec[tok] = vec.get(tok, 0.0) + w
    return vec


def build_profile(
    in_domain: list[Sentence],
    general: list[Sentence],
    lm_order: int = 3,
    edit_sample_size: int = 2000,
    seed: int = 0,
) -> DomainProfile:
    """Build the scoring profile from an in-domain and a general corpus.

    The general LM is trained on a seeded sample of general sentences whose
    token count matches the in-domain corpus, so the cross-entropy
    difference is not biased by corpus size.
    """
    check_int("edit sample size", edit_sample_size, 0)
    if len(in_domain) == 0:
        raise DataError("in-domain corpus is empty")
    if len(general) == 0:
        raise DataError("general corpus is empty")

    idf = _idf_table(in_domain)
    centroid: dict[str, float] = {}
    for sent in in_domain:
        for term, w in _tfidf_vector(sent.tokens, idf).items():
            centroid[term] = centroid.get(term, 0.0) + w
    if not centroid:
        raise DataError("in-domain corpus has no tokens")
    # every idf, log(n / d) + 1 with d <= n, is >= 1, so the norm is positive
    norm = math.sqrt(float_sum((w * w for w in centroid.values()), 0.0))
    centroid = {t: w / norm for t, w in centroid.items()}

    rng = random.Random(seed)
    target_tokens = sum(len(s.tokens) for s in in_domain)
    indices = list(range(len(general)))
    rng.shuffle(indices)
    chosen: list[int] = []
    token_budget = 0
    for k in indices:
        if token_budget >= target_tokens and chosen:
            break
        chosen.append(k)
        token_budget += len(general[k].tokens)
    gen_sample = [general[k] for k in sorted(chosen)]

    reference = [s.tokens for s in in_domain]
    if len(reference) > edit_sample_size:
        keep = sorted(rng.sample(range(len(reference)), edit_sample_size))
        reference = [reference[k] for k in keep]

    return DomainProfile(
        tfidf_centroid=centroid,
        idf=idf,
        in_lm=train_lm(in_domain, order=lm_order),
        gen_lm=train_lm(gen_sample, order=lm_order),
        edit_reference=reference,
    )


def tfidf_score(profile: DomainProfile, candidate: Sentence) -> float:
    """Cosine between the candidate's tf-idf vector and the in-domain centroid.

    Terms unseen in-domain contribute nothing; a candidate with no in-domain
    terms scores 0.
    """
    vec = _tfidf_vector(candidate.tokens, profile.idf)
    norm = math.sqrt(float_sum((w * w for w in vec.values()), 0.0))
    centroid_norm = profile.tfidf_centroid_norm
    if norm == 0.0 or centroid_norm == 0.0:
        return 0.0
    dot = float_sum((w * profile.tfidf_centroid.get(t, 0.0) for t, w in vec.items()), 0.0)
    return dot / (norm * centroid_norm)


def ced_score(profile: DomainProfile, candidate: Sentence) -> float:
    """Cross-entropy difference H_in - H_gen; lower means more in-domain."""
    return cross_entropy(profile.in_lm, candidate) - cross_entropy(
        profile.gen_lm, candidate
    )


def edit_score(profile: DomainProfile, candidate: Sentence) -> float:
    """Best normalized edit similarity against the in-domain reference set.

    Exact, but most references never reach the edit distance: n tokens and
    a reference of length r sharing s tokens (multiset intersection) are at
    least max(n, r) - s edits apart, so references are visited by that
    similarity bound, best first, until the bound cannot beat the best
    score found. The bound is the score's own float expression evaluated at
    the lower distance, so pruning is exact in floating point too. A
    reference sharing no token has bound 0.0 and is never visited. A visited
    reference is the distance's pattern, with the masks its profile holds.
    """
    tokens = candidate.tokens
    n = len(tokens)
    refs, masks = profile.edit_reference, profile.edit_reference_masks
    if n == 0:
        # 1.0 against an empty reference (denominator 0), 0.0 against any other
        return 1.0 if any(len(ref) == 0 for ref in refs) else 0.0
    shared: dict[int, int] = {}
    for tok, count in Counter(tokens).items():
        for k, ref_count in profile.edit_postings.get(tok, ()):
            shared[k] = shared.get(k, 0) + (count if count < ref_count else ref_count)
    bounds = []
    for k, s in shared.items():
        denom = max(n, len(refs[k]))
        bounds.append((1.0 - (denom - s) / denom, k))
    bounds.sort(reverse=True)
    best = 0.0
    for bound, k in bounds:
        if bound <= best:
            break
        ref = refs[k]
        sim = 1.0 - word_edit_distance(tokens, ref, masks[k]) / max(n, len(ref))
        if sim > best:
            best = sim
    return best


def _average_ranks(values: list[float], reverse: bool) -> list[float]:
    """Rank 1 is best; tied values share the average of their positions."""
    order = sorted(range(len(values)), key=lambda k: values[k], reverse=reverse)
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and values[order[end + 1]] == values[order[pos]]:
            end += 1
        shared = (pos + end) / 2 + 1
        for k in range(pos, end + 1):
            ranks[order[k]] = shared
        pos = end + 1
    return ranks


def combine_ranks(
    scores: list[tuple[float, float, float]],
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[list[float], list[int]]:
    """Combine (tfidf, ced, edit) triples into a selection order.

    tf-idf and edit similarity rank descending, cross-entropy difference
    ascending. Returns the weighted mean rank per candidate and candidate
    indices sorted by that mean (input index breaks exact ties).
    """
    tf_ranks = _average_ranks([s[0] for s in scores], reverse=True)
    ced_ranks = _average_ranks([s[1] for s in scores], reverse=False)
    edit_ranks = _average_ranks([s[2] for s in scores], reverse=True)
    w_tf, w_ced, w_edit = weights
    total = w_tf + w_ced + w_edit
    mean = [
        (w_tf * tf_ranks[k] + w_ced * ced_ranks[k] + w_edit * edit_ranks[k]) / total
        for k in range(len(scores))
    ]
    order = sorted(range(len(scores)), key=lambda k: (mean[k], k))
    return mean, order


def _score_item(profile: DomainProfile, item, pair_mode: str):
    sides = [item[p] for p in _PAIR_SIDES[pair_mode]] if isinstance(item, tuple) else [item]
    triples = [
        (tfidf_score(profile, s), ced_score(profile, s), edit_score(profile, s))
        for s in sides
    ]
    k = len(triples)
    return tuple(float_sum((t[c] for t in triples), 0.0) / k for c in range(3))


def combine_and_resample(
    candidates: list,
    profile: DomainProfile,
    config: SelectionConfig | None = None,
) -> tuple[list, list[ScoredCandidate]]:
    """Score, rank, and keep the top acceptance_rate fraction of candidates.

    Returns the selected items (in combined-rank order) and the full score
    table in input order, whose rows are frozen. Exactly
    ceil(acceptance_rate * N) items are kept.
    """
    config = config or SelectionConfig()
    if not candidates:
        raise DataError("no candidates to select from")
    scores = [_score_item(profile, item, config.pair_mode) for item in candidates]
    _, order = combine_ranks(scores, config.weights)
    n_keep = math.ceil(config.acceptance_rate * len(candidates))
    rank = {k: position for position, k in enumerate(order, start=1)}
    table = [
        ScoredCandidate(*scores[k], combined_rank=rank[k], selected=rank[k] <= n_keep)
        for k in range(len(candidates))
    ]
    return [candidates[k] for k in order[:n_keep]], table


def score_table_tsv(table: list[ScoredCandidate]) -> str:
    """`index tfidf ced edit combined_rank selected` rows, input order."""
    lines = ["index\ttfidf\tced\tedit\tcombined_rank\tselected"]
    for idx, row in enumerate(table):
        lines.append(
            f"{idx}\t{row.tfidf_sim:.6f}\t{row.ced:.6f}\t{row.edit_sim:.6f}"
            f"\t{row.combined_rank}\t{int(row.selected)}"
        )
    return "\n".join(lines) + "\n"
