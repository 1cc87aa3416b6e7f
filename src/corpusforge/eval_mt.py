"""BLEU, NIST, and TER scoring with per-document breakdowns.

All three metrics work on the pipeline's token sequences and a single
reference per segment. Corpus scores pool sufficient statistics over
segments (never averaging per-segment scores); per-document scores restrict
the pooled counts to that document's segments.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from corpusforge.errors import DataError
from corpusforge.text_pipeline import (
    Sentence,
    edit_distances,
    edit_masks,
    float_sum,
    word_edit_distance,
)

# NIST brevity coefficient, fixed so the factor is 0.5 when the hypothesis
# is two thirds of the reference length.
_NIST_BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2

_BLEU_MAX_N = 4
_NIST_MAX_N = 5


@dataclass
class EvalInput:
    """Hypotheses with one reference each, optionally mapped to documents."""

    hypotheses: list[Sentence]
    references: list[Sentence]
    doc_map: dict[int, str] | None = None

    def __post_init__(self):
        if len(self.hypotheses) != len(self.references):
            raise DataError(
                f"{len(self.hypotheses)} hypotheses but "
                f"{len(self.references)} references"
            )

    def __len__(self) -> int:
        return len(self.hypotheses)

    def segments(self):
        return zip(self.hypotheses, self.references)


@dataclass
class TerResult:
    edits: int
    shifts: int


@dataclass
class EvalReport:
    bleu: float
    nist: float
    ter: float
    per_document: dict[str, tuple[float, float, float]] = field(default_factory=dict)


def _ngrams(tokens):
    """Every n-gram of ``tokens`` up to 5-grams: order by order, each order's
    grams in token order."""
    return chain.from_iterable(
        zip(*[tokens[i:] for i in range(n)]) for n in range(1, _NIST_MAX_N + 1)
    )


def _count_segment(hyp: Sentence, ref: Sentence) -> dict:
    """The segment's clipped matches over orders 1-5 (``hyp_grams & ref_grams``
    as a plain dict): orders in sequence, each order's grams in hypothesis
    order. Each hypothesis n-gram is looked up in the reference's counts once."""
    in_ref = Counter(_ngrams(ref.tokens)).get
    return {
        gram: count if count < r else r
        for gram, count in Counter(_ngrams(hyp.tokens)).items()
        if (r := in_ref(gram))
    }


def _scores(segments: list, smooth: bool) -> tuple[float, float, float]:
    """BLEU, NIST and TER of one group (the corpus, or one document) from its
    segments, each a ``(hyp, ref, clipped, edits)`` tuple: `_count_segment`'s
    clipped matches and `ter`'s edits. The segments are taken in order, and
    each one's matches in its dict's order, which fixes the order in which
    each n-gram order's NIST info is added up.

    BLEU: clipped n-gram precisions up to 4-grams, geometric mean, brevity
    penalty. Unsmoothed by default, so any order with zero matches zeroes the
    score; ``smooth`` adds one to numerator and denominator for orders >= 2.

    NIST: information-weighted n-gram precision up to 5-grams with its own
    brevity factor. info(w1..wn) = log2(count(w1..wn-1) / count(w1..wn)) over
    the group's references, all orders in one `Counter`, where the empty
    prefix of a unigram counts the reference tokens; matched hypothesis
    n-grams are clipped per segment like BLEU.

    TER: the group's edits over its reference length.
    """
    if not segments:
        raise DataError("empty hypothesis set")
    hyp_lens = [len(hyp.tokens) for hyp, _, _, _ in segments]
    refs = [ref.tokens for _, ref, _, _ in segments]
    hyp_len, ref_len = sum(hyp_lens), sum(map(len, refs))
    group_ter = sum(edits for _, _, _, edits in segments) / max(ref_len, 1)
    if hyp_len == 0:
        return 0.0, 0.0, group_ter

    ref_counts = Counter(chain.from_iterable(map(_ngrams, refs)))
    ref_counts[()] = ref_len  # the prefix of every unigram
    # per order (index 0 unused): hypothesis n-grams, matches and NIST info
    total = [sum(max(h - n + 1, 0) for h in hyp_lens) for n in range(_NIST_MAX_N + 1)]
    matches = [0] * (_NIST_MAX_N + 1)
    info = [0.0] * (_NIST_MAX_N + 1)
    for _, _, clipped, _ in segments:
        for gram, matched in clipped.items():
            matches[len(gram)] += matched
            info[len(gram)] += matched * math.log2(ref_counts[gram[:-1]] / ref_counts[gram])

    precisions = []
    for n in range(1, _BLEU_MAX_N + 1):
        num, den = matches[n], total[n]
        if smooth and n >= 2:
            num, den = num + 1, den + 1
        precisions.append(num / den if den else 0.0)
    bp = math.exp(1.0 - ref_len / hyp_len) if hyp_len < ref_len else 1.0
    if any(p == 0.0 for p in precisions):
        group_bleu = 0.0
    else:
        group_bleu = bp * math.exp(float_sum(map(math.log, precisions), 0.0) / _BLEU_MAX_N)

    nist_score = float_sum((info[n] / total[n] for n in range(1, _NIST_MAX_N + 1) if total[n]), 0.0)
    ratio = 1.0 if ref_len == 0 else min(hyp_len / ref_len, 1.0)
    brevity = math.exp(_NIST_BETA * math.log(ratio) ** 2)
    return group_bleu, nist_score * brevity, group_ter


def bleu(inp: EvalInput, smooth: bool = False) -> float:
    """Corpus BLEU up to 4-grams (see `_scores`)."""
    return _scores([(h, r, _count_segment(h, r), 0) for h, r in inp.segments()], smooth)[0]


def nist(inp: EvalInput) -> float:
    """Corpus NIST up to 5-grams (see `_scores`)."""
    return _scores([(h, r, _count_segment(h, r), 0) for h, r in inp.segments()], False)[1]


def shift_candidates(hyp, masks: dict):
    """Each distinct legal block shift of ``hyp`` once, as a tuple, in the
    order first found.

    The block must match the reference somewhere, and it is moved so that it
    starts where that reference match sits; ``hyp`` itself is never yielded.
    ``masks`` is the reference's ``edit_masks``, each token's positions as a
    bitmask: a block from ``start`` can sit only where ``hyp[start]`` does,
    and each token it grows by keeps the positions where it matches too, so
    it stops growing at the first length that matches nowhere.
    """
    hyp = tuple(hyp)
    seen = {hyp}
    n = len(hyp)
    for start in range(n):
        at = masks.get(hyp[start], 0)  # bit k: hyp[start:end] sits at ref[k:]
        end = start + 1
        while at:
            last = n - (end - start)  # len(rest): the block's last place
            rest = None
            ks = at
            while ks:
                k = (ks & -ks).bit_length() - 1
                ks &= ks - 1
                insert_at = k if k < last else last
                if insert_at == start:
                    continue  # the block stays where it is: that is hyp
                if rest is None:  # copied only for a block that moves
                    block = hyp[start:end]
                    rest = hyp[:start] + hyp[end:]
                candidate = rest[:insert_at] + block + rest[insert_at:]
                if candidate not in seen:
                    seen.add(candidate)
                    yield candidate
            if end == n:
                break
            at &= masks.get(hyp[end], 0) >> (end - start)
            end += 1


def ter(
    hypothesis: Sentence, reference: Sentence, allow_shifts: bool = True
) -> TerResult:
    """Translation Error Rate for one segment.

    Greedy shift search: repeatedly apply the single legal block shift that
    most reduces the word-level edit distance (each shift costs one edit),
    then add the remaining edit distance. Ties on that distance are broken
    by the best distance a second shift could reach (one-step lookahead,
    first found wins); the winner's scored shifts are the next round's, so
    each hypothesis's shifts are scored once. With ``allow_shifts=False``
    this is plain word-level edit distance over the reference length.

    The reference is the bit-parallel pattern, built once per segment. A
    hypothesis's shifts all have its length, so one `edit_distances` call
    scores them together.

    The search stops at the bag distance, max(n, m) minus the multiset
    overlap of hypothesis and reference: an alignment matches each token at
    most once, and shifts only permute the hypothesis, so no shift sequence
    goes below it. A tie at that floor takes its first shift without the
    lookahead, and the lookahead stops at the first tie that reaches it,
    since first found wins and no later tie can be lower. So the result is
    exact; only batches that cannot change it are skipped.
    """
    hyp = hypothesis.tokens
    ref = reference.tokens
    m = len(ref)
    masks = edit_masks(ref)
    dist = word_edit_distance(hyp, ref, masks)

    def scored_shifts(h) -> list:
        candidates = list(shift_candidates(h, masks))
        return list(zip(edit_distances(candidates, masks, m), candidates))

    # the bag distance: no shift sequence can go below it
    floor = max(len(hyp), m) - sum(
        min(c, masks.get(t, 0).bit_count()) for t, c in Counter(hyp).items()
    )
    shifts = 0
    scored = None
    while allow_shifts and dist > floor:
        if scored is None:
            scored = scored_shifts(hyp)
        best = min((d for d, _ in scored), default=dist)
        if best >= dist:
            break
        tied = [c for d, c in scored if d == best]
        hyp, scored = tied[0], None
        if len(tied) > 1 and best > floor:
            lowest = dist
            for candidate in tied:
                followups = scored_shifts(candidate)
                reach = min([best] + [d for d, _ in followups])
                if reach < lowest:
                    lowest, hyp, scored = reach, candidate, followups
                    if reach == floor:
                        break
        dist = best
        shifts += 1
    edits = shifts + dist
    return TerResult(edits=edits, shifts=shifts)


def report(inp: EvalInput, smooth: bool = False, allow_shifts: bool = True) -> EvalReport:
    """Corpus metrics plus a per-document breakdown when a map is present.

    Each segment's TER is computed and its n-grams are counted once, and the
    corpus and each document are scored from their own lists of those
    segments (see `_scores`), so a document's NIST info weights come from its
    own references. Each group counts its reference n-grams in bulk when it
    is scored.
    """
    if len(inp) == 0:
        raise DataError("empty hypothesis set")  # before any fault of the map
    docs: dict[str, list[int]] = {}  # each document's segments, in order
    if inp.doc_map is not None:
        for idx in range(len(inp)):
            if idx not in inp.doc_map:
                raise DataError(f"segment {idx} is missing from the document map")
            docs.setdefault(inp.doc_map[idx], []).append(idx)
        outside = inp.doc_map.keys() - range(len(inp))
        if outside:
            raise DataError(f"document map lists segment {min(outside)}, outside 0..{len(inp) - 1}")
        if "ALL" in docs:  # the id of the corpus row in `_table`
            raise DataError("document id 'ALL' is the corpus row's id")
        for doc_id in docs:
            if not doc_id.strip():
                raise DataError(f"document id {doc_id!r} is blank")
            if doc_id != doc_id.strip():  # 'd1 ' would render as a second d1
                raise DataError(f"document id {doc_id!r} has leading or trailing whitespace")

    segments = [
        (hyp, ref, _count_segment(hyp, ref), ter(hyp, ref, allow_shifts=allow_shifts).edits)
        for hyp, ref in inp.segments()
    ]
    per_document = {
        doc_id: _scores([segments[idx] for idx in idxs], smooth)
        for doc_id, idxs in sorted(docs.items())
    }
    return EvalReport(*_scores(segments, smooth), per_document=per_document)


def _table(rep: EvalReport, system: str) -> list[tuple[str, ...]]:
    """The rows both score tables share: per-document rows in id order, then
    ALL for the corpus. BLEU and TER are x100; every number has two decimals."""
    totals = sorted(rep.per_document.items()) + [("ALL", (rep.bleu, rep.nist, rep.ter))]
    return [
        (doc_id, system, f"{100 * b:.2f}", f"{n:.2f}", f"{100 * t:.2f}")
        for doc_id, (b, n, t) in totals
    ]


def render_report(rep: EvalReport, system: str = "SYSTEM") -> str:
    """Aligned text table, per-document rows first, corpus total last."""
    rows = [("TALK ID", "SYSTEM", "BLEU", "NIST", "TER"), *_table(rep, system)]
    widths = [max(len(row[c]) for row in rows) for c in range(5)]
    lines = [
        " | ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def report_tsv(rep: EvalReport, system: str = "SYSTEM") -> str:
    rows = [("doc_id", "system", "bleu", "nist", "ter"), *_table(rep, system)]
    return "".join("\t".join(row) + "\n" for row in rows)
