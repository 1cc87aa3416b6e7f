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

from corpusforge.errors import DataError
from corpusforge.text_pipeline import Sentence, word_edit_distance

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
class BleuResult:
    score: float  # in [0, 1]
    precisions: list[float]
    brevity_penalty: float


@dataclass
class TerResult:
    edits: int
    ter: float
    shifts: int = 0


@dataclass
class EvalReport:
    bleu: float
    nist: float
    ter: float
    per_document: dict[str, tuple[float, float, float]] = field(default_factory=dict)


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _ngram_scores(segments, smooth: bool = False) -> tuple[BleuResult, float]:
    """Corpus BLEU and NIST from one count of each segment's n-grams.

    BLEU: clipped n-gram precisions up to 4-grams, geometric mean, brevity
    penalty. Unsmoothed by default, so any order with zero matches zeroes
    the score; ``smooth`` adds one to numerator and denominator for orders
    >= 2.

    NIST: information-weighted n-gram precision up to 5-grams with its own
    brevity factor. info(w1..wn) = log2(count(w1..wn-1) / count(w1..wn))
    over these segments' references (total reference tokens for n=1);
    matched hypothesis n-grams are clipped per segment like BLEU.
    """
    # per order: each segment's clipped matches (kept in hypothesis order, which fixes
    # NIST's float summation order), hypothesis n-gram totals, pooled reference counts
    clipped: list[list[Counter]] = [[] for _ in range(_NIST_MAX_N + 1)]
    total = [0] * (_NIST_MAX_N + 1)
    ref_counts: list[Counter] = [Counter() for _ in range(_NIST_MAX_N + 1)]
    hyp_len = ref_len = 0
    for hyp, ref in segments:
        hyp_len += len(hyp.tokens)
        ref_len += len(ref.tokens)
        for n in range(1, _NIST_MAX_N + 1):
            hyp_grams = _ngram_counts(hyp.tokens, n)
            ref_grams = _ngram_counts(ref.tokens, n)
            clipped[n].append(hyp_grams & ref_grams)
            total[n] += sum(hyp_grams.values())
            ref_counts[n].update(ref_grams)
    if not clipped[1]:
        raise DataError("empty hypothesis set")

    precisions = []
    for n in range(1, _BLEU_MAX_N + 1):
        num, den = sum(sum(matches.values()) for matches in clipped[n]), total[n]
        if smooth and n >= 2:
            num, den = num + 1, den + 1
        precisions.append(num / den if den else 0.0)

    if hyp_len == 0:
        return BleuResult(score=0.0, precisions=precisions, brevity_penalty=0.0), 0.0
    bp = math.exp(1.0 - ref_len / hyp_len) if hyp_len < ref_len else 1.0
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / _BLEU_MAX_N)

    nist_score = 0.0
    for n in range(1, _NIST_MAX_N + 1):
        weighted = 0.0
        for matches in clipped[n]:
            for gram, matched in matches.items():
                prefix = ref_len if n == 1 else ref_counts[n - 1][gram[:-1]]
                weighted += matched * math.log2(prefix / ref_counts[n][gram])
        if total[n]:
            nist_score += weighted / total[n]
    ratio = 1.0 if ref_len == 0 else min(hyp_len / ref_len, 1.0)
    brevity = math.exp(_NIST_BETA * math.log(ratio) ** 2)
    result = BleuResult(score=score, precisions=precisions, brevity_penalty=bp)
    return result, nist_score * brevity


def bleu(inp: EvalInput, smooth: bool = False) -> BleuResult:
    """Corpus BLEU up to 4-grams (see `_ngram_scores`)."""
    return _ngram_scores(inp.segments(), smooth)[0]


def nist(inp: EvalInput) -> float:
    """Corpus NIST up to 5-grams (see `_ngram_scores`)."""
    return _ngram_scores(inp.segments())[1]


def shift_candidates(hyp: list, ref: list):
    """Each distinct legal block shift once, in the order first found: the
    block must match the reference somewhere, and it is moved so that it
    starts where that reference match sits. ``hyp`` itself is never yielded.
    A block grows from each start only while it matches somewhere."""
    seen = {tuple(hyp)}
    n = len(hyp)
    for start in range(n):
        matches = range(len(ref))  # where hyp[start:end] sits in ref
        for end in range(start + 1, n + 1):
            last = end - start - 1
            matches = [k for k in matches if k + last < len(ref) and ref[k + last] == hyp[end - 1]]
            if not matches:
                break  # no longer block from this start can match either
            block = hyp[start:end]
            rest = hyp[:start] + hyp[end:]
            for k in matches:
                insert_at = min(k, len(rest))
                candidate = rest[:insert_at] + block + rest[insert_at:]
                key = tuple(candidate)
                if key not in seen:
                    seen.add(key)
                    yield candidate


def _scored_shifts(hyp: list, ref: list) -> list:
    return [(word_edit_distance(c, ref), c) for c in shift_candidates(hyp, ref)]


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
    """
    hyp = list(hypothesis.tokens)
    ref = list(reference.tokens)
    dist = word_edit_distance(hyp, ref)
    shifts = 0
    scored = None
    while allow_shifts and dist > 0:
        if scored is None:
            scored = _scored_shifts(hyp, ref)
        best = min((d for d, _ in scored), default=dist)
        if best >= dist:
            break
        tied = [c for d, c in scored if d == best]
        hyp, scored = tied[0], None
        if len(tied) > 1:
            lowest = dist
            for candidate in tied:
                followups = _scored_shifts(candidate, ref)
                reach = min([best] + [d for d, _ in followups])
                if reach < lowest:
                    lowest, hyp, scored = reach, candidate, followups
        dist = best
        shifts += 1
    edits = shifts + dist
    return TerResult(edits=edits, ter=edits / max(len(ref), 1), shifts=shifts)


def report(inp: EvalInput, smooth: bool = False, allow_shifts: bool = True) -> EvalReport:
    """Corpus metrics plus a per-document breakdown when a map is present.

    Each segment's TER is computed once and pooled for every group (the
    corpus, or one document); BLEU and NIST count its n-grams once per group,
    so a document's NIST info weights come from its own references.
    """
    segments = list(inp.segments())
    ters = [ter(hyp, ref, allow_shifts=allow_shifts) for hyp, ref in segments]

    def scores(indices) -> tuple[float, float, float]:
        group_bleu, group_nist = _ngram_scores([segments[k] for k in indices], smooth)
        edits = sum(ters[k].edits for k in indices)
        ref_len = sum(len(segments[k][1].tokens) for k in indices)
        return group_bleu.score, group_nist, edits / max(ref_len, 1)

    result = EvalReport(*scores(range(len(inp))))
    if inp.doc_map is None:
        return result
    by_doc: dict[str, list[int]] = {}
    for idx in range(len(inp)):
        if idx not in inp.doc_map:
            raise DataError(f"segment {idx} is missing from the document map")
        by_doc.setdefault(inp.doc_map[idx], []).append(idx)
    outside = inp.doc_map.keys() - range(len(inp))
    if outside:
        raise DataError(f"document map lists segment {min(outside)}, outside 0..{len(inp) - 1}")
    for doc_id in sorted(by_doc):
        result.per_document[doc_id] = scores(by_doc[doc_id])
    return result


def render_report(rep: EvalReport, system: str = "SYSTEM") -> str:
    """Aligned text table, per-document rows first, corpus total last.

    BLEU and TER are reported x100 with two decimals.
    """
    rows = [("TALK ID", "SYSTEM", "BLEU", "NIST", "TER")]
    for doc_id, (b, n, t) in sorted(rep.per_document.items()):
        rows.append((doc_id, system, f"{100 * b:.2f}", f"{n:.2f}", f"{100 * t:.2f}"))
    rows.append(
        (
            "ALL",
            system,
            f"{100 * rep.bleu:.2f}",
            f"{rep.nist:.2f}",
            f"{100 * rep.ter:.2f}",
        )
    )
    widths = [max(len(row[c]) for row in rows) for c in range(5)]
    lines = [
        " | ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def report_tsv(rep: EvalReport, system: str = "SYSTEM") -> str:
    lines = ["doc_id\tsystem\tbleu\tnist\tter"]
    for doc_id, (b, n, t) in sorted(rep.per_document.items()):
        lines.append(f"{doc_id}\t{system}\t{100 * b:.2f}\t{n:.2f}\t{100 * t:.2f}")
    lines.append(
        f"ALL\t{system}\t{100 * rep.bleu:.2f}\t{rep.nist:.2f}\t{100 * rep.ter:.2f}"
    )
    return "\n".join(lines) + "\n"
