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
    precisions: list[float]
    brevity_penalty: float
    per_document: dict[str, tuple[float, float, float]] = field(default_factory=dict)


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(inp: EvalInput, max_n: int = 4, smooth: bool = False) -> BleuResult:
    """Corpus BLEU: clipped n-gram precisions, geometric mean, brevity penalty.

    Unsmoothed by default, so any order with zero matches zeroes the score;
    ``smooth`` adds one to numerator and denominator for orders >= 2.
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


def nist(inp: EvalInput, max_n: int = 5) -> float:
    """NIST: information-weighted n-gram precision with its own brevity factor.

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


def shift_candidates(hyp: list, ref: list):
    """All legal block shifts: the block must match the reference somewhere,
    and it is moved so that it starts where that reference match sits."""
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
                if candidate != hyp:
                    yield candidate


def _pick_shift(hyp: list, ref: list, base: int):
    """The legal shift that most reduces edit distance, or None.

    Ties on the immediate reduction are broken by the best follow-up
    reduction a second shift could achieve (one-step lookahead), keeping
    the procedure deterministic and as strong as an exhaustive two-shift
    search on short segments.
    """
    seen = set()
    scored = []
    for candidate in shift_candidates(hyp, ref):
        key = tuple(candidate)
        if key in seen:
            continue
        seen.add(key)
        scored.append((base - word_edit_distance(candidate, ref), candidate))
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
        inner_seen = set()
        for nxt in shift_candidates(candidate, ref):
            key = tuple(nxt)
            if key in inner_seen:
                continue
            inner_seen.add(key)
            followup = max(followup, remaining - word_edit_distance(nxt, ref))
        if followup > best_followup:
            best_followup = followup
            best_candidate = candidate
    return best_candidate


def ter(
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
            base = word_edit_distance(hyp, ref)
            if base == 0:
                break
            chosen = _pick_shift(hyp, ref, base)
            if chosen is None:
                break
            hyp = chosen
            shifts += 1
    edits = shifts + word_edit_distance(hyp, ref)
    return TerResult(edits=edits, ter=edits / max(len(ref), 1), shifts=shifts)


def _pooled_ter(results: list[TerResult], references: list[Sentence]) -> float:
    """The segments' summed edits over their summed reference length."""
    edits = sum(r.edits for r in results)
    return edits / max(sum(len(ref.tokens) for ref in references), 1)


def report(
    inp: EvalInput,
    max_n: int = 4,
    smooth: bool = False,
    allow_shifts: bool = True,
) -> EvalReport:
    """Corpus metrics plus a per-document breakdown when a map is present.

    Each segment's TER is computed once and pooled for the corpus and for
    every document.
    """
    corpus_bleu = bleu(inp, max_n=max_n, smooth=smooth)
    ters = [ter(hyp, ref, allow_shifts=allow_shifts) for hyp, ref in inp.segments()]
    result = EvalReport(
        bleu=corpus_bleu.score,
        nist=nist(inp),
        ter=_pooled_ter(ters, inp.references),
        precisions=corpus_bleu.precisions,
        brevity_penalty=corpus_bleu.brevity_penalty,
    )
    if inp.doc_map is None:
        return result
    by_doc: dict[str, list[int]] = {}
    for idx in range(len(inp)):
        if idx not in inp.doc_map:
            raise DataError(f"segment {idx} is missing from the document map")
        by_doc.setdefault(inp.doc_map[idx], []).append(idx)
    for doc_id in sorted(by_doc):
        indices = by_doc[doc_id]
        sub = EvalInput(
            hypotheses=[inp.hypotheses[k] for k in indices],
            references=[inp.references[k] for k in indices],
        )
        result.per_document[doc_id] = (
            bleu(sub, max_n=max_n, smooth=smooth).score,
            nist(sub),
            _pooled_ter([ters[k] for k in indices], sub.references),
        )
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
