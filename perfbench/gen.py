"""Seeded synthetic inputs for the four benchmark workloads.

Every generator takes a ``random.Random`` and an output directory, writes
the workload's input files there, and returns the number of items the job
will process. The same seed always writes the same bytes. Sizes and
sentence lengths are fixed, so the work per job does not depend on the
seed. For mine, score and train the seed only renames the words of an
input whose shape is fixed, because their kernels' cost depends on which
tokens repeat; for select it also draws the sentences.
"""

from __future__ import annotations

import bisect
import itertools
import random
from pathlib import Path

# mine: comparable document pairs plus a Model-1-shaped lexicon.
MINE_DOC_PAIRS = 60
MINE_SOURCE_SENTENCES = 18
MINE_PLANTED = 0.6  # share of source sentences with a noisy translation
MINE_UNRELATED = 8  # unrelated target sentences per document
MINE_GOLD_DOCS = 12
MINE_SOURCE_VOCAB = 2000
MINE_TARGET_VOCAB = 3000
MINE_LEXICON_ROW = 100  # entries per source word, so 200k lexicon rows

# select: in-domain references against a general candidate pool.
SELECT_IN_DOMAIN = 150
SELECT_CANDIDATES = 160
SELECT_PLANTED = 0.15
SELECT_RATE = 0.2  # share of candidates the select job keeps
SELECT_VOCAB = 3000
SELECT_SHIFT = 400  # general-domain ranks start this far down the vocabulary

# score: hypothesis/reference segments grouped into documents.
SCORE_SEGMENTS = 240
SCORE_DOCS = 6
SCORE_MIN_LEN = 5
SCORE_MAX_LEN = 20
SCORE_VOCAB = 2000  # content words; function words come on top

# train: a TED-like XML pair plus monolingual target-side text.
TRAIN_TALKS = 8
TRAIN_SEGMENTS_PER_TALK = 50
TRAIN_MONOLINGUAL = 2000
TRAIN_HELDOUT = 200
TRAIN_VOCAB = 4000

FUNCTION_WORDS = (
    "the", "of", "and", "a", "to", "in", "is", "that", "it", "for",
    "on", "with", "as", "was", "at", "by", "this", "we", "you", "be",
)
_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _word(index: int, vowel_first: bool) -> str:
    """A pronounceable, unique word for a vocabulary index.

    Source-side words start with a consonant and target-side words with a
    vowel, so the two vocabularies never share a token by accident.
    """
    syllables = []
    k = index
    while True:
        k, r = divmod(k, len(_ONSETS) * len(_VOWELS))
        c, v = _ONSETS[r // len(_VOWELS)], _VOWELS[r % len(_VOWELS)]
        syllables.append(v + c if vowel_first else c + v)
        if k == 0:
            break
        k -= 1
    return "".join(syllables)


def vocabulary(size: int, vowel_first: bool) -> list[str]:
    return [_word(i, vowel_first) for i in range(size)]


class Zipf:
    """Draws vocabulary entries with probability proportional to 1 / rank."""

    def __init__(self, words: list[str], exponent: float = 1.0):
        self.words = words
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** exponent for r in range(len(words))))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        total = self.cum[-1]
        return [
            self.words[bisect.bisect_right(self.cum, rng.random() * total)] for _ in range(k)
        ]


def lengths(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` lengths spread evenly over [lo, hi], in seeded order.

    A fixed schedule keeps the work per job, which grows with sentence
    length, the same for every seed.
    """
    span = hi - lo + 1
    result = [lo + (k * span) // count for k in range(count)]
    rng.shuffle(result)
    return result


def _write(path: Path, lines) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def gen_mine(rng: random.Random, out: Path) -> int:
    """Manifest, document files, gold links for tuning, and a lexicon TSV.

    The seed shuffles the vocabularies; everything else comes from a fixed
    seed, so every seed gives other words and the same mining work.
    """
    src_vocab = vocabulary(MINE_SOURCE_VOCAB, vowel_first=False)
    tgt_vocab = vocabulary(MINE_TARGET_VOCAB, vowel_first=True)
    rng.shuffle(src_vocab)
    rng.shuffle(tgt_vocab)
    shape = random.Random("mine-shape")
    # Each source word has 2-4 translations at or above min_prob = 0.1 and a
    # long tail of low-probability entries, as an EM-trained lexicon has.
    translations: dict[str, list[str]] = {}
    rows_of: dict[str, list[str]] = {}
    for e in src_vocab:
        targets = [tgt_vocab[t] for t in shape.sample(range(MINE_TARGET_VOCAB), MINE_LEXICON_ROW)]
        n_main = shape.randint(2, 4)
        main = sorted((shape.uniform(0.1, 1.0) for _ in range(n_main)), reverse=True)
        tail = [shape.random() for _ in range(MINE_LEXICON_ROW - n_main)]
        main_total = sum(main)
        # main entries take 70-90% of the mass; the tail shares the rest
        main_mass = shape.uniform(0.7, 0.9)
        tail_mass = 1.0 - main_mass
        tail_total = sum(tail)
        probs = [p * main_mass / main_total for p in main]
        probs += [p * tail_mass / tail_total for p in tail]
        translations[e] = targets[:n_main]
        entries = sorted(zip(targets, probs), key=lambda tp: (-tp[1], tp[0]))
        rows_of[e] = [f"{e}\t{f}\t{p:.10g}" for f, p in entries]
    # rows sorted by source, then probability descending, as write_lexicon does
    _write(out / "lexicon.tsv", (row for e in sorted(rows_of) for row in rows_of[e]))

    src_zipf = Zipf(src_vocab)
    tgt_zipf = Zipf(tgt_vocab)

    def translate(tokens):
        result = []
        for e in tokens:
            roll = shape.random()
            if roll < 0.1:
                continue  # dropped word
            if roll < 0.8:
                result.append(translations[e][0])
            elif roll < 0.93:
                result.append(shape.choice(translations[e]))
            else:
                result.append(shape.choice(tgt_vocab))
            if shape.random() < 0.05:
                result.append(shape.choice(tgt_vocab))
        return result or [translations[tokens[0]][0]]

    docs = out / "docs"
    docs.mkdir()
    manifest = []
    gold = []
    n_planted = round(MINE_PLANTED * MINE_SOURCE_SENTENCES)
    for d in range(MINE_DOC_PAIRS):
        source = [src_zipf.draw(shape, n) for n in lengths(shape, MINE_SOURCE_SENTENCES, 5, 25)]
        planted = set(shape.sample(range(MINE_SOURCE_SENTENCES), n_planted))
        # unrelated target sentences go before source sentence i when i is drawn
        unrelated = sorted(shape.choices(range(MINE_SOURCE_SENTENCES + 1), k=MINE_UNRELATED))
        unrelated_lengths = iter(lengths(shape, MINE_UNRELATED, 5, 25))
        target = []
        for i in range(MINE_SOURCE_SENTENCES + 1):
            for _ in range(unrelated.count(i)):
                target.append(tgt_zipf.draw(shape, next(unrelated_lengths)))
            if i in planted:
                if d < MINE_GOLD_DOCS:
                    gold.append(f"d{d:04d}.src\t{i}\t{len(target)}")
                target.append(translate(source[i]))
        _write(docs / f"d{d:04d}.src.txt", (" ".join(s) + " ." for s in source))
        _write(docs / f"d{d:04d}.tgt.txt", (" ".join(t) + " ." for t in target))
        manifest.append(f"docs/d{d:04d}.src.txt\tdocs/d{d:04d}.tgt.txt")
    _write(out / "manifest.tsv", manifest)
    _write(out / "gold.tsv", gold)
    return MINE_DOC_PAIRS


def gen_select(rng: random.Random, out: Path) -> int:
    """In-domain sentences and a general pool of candidate pairs."""
    vocab = vocabulary(SELECT_VOCAB + SELECT_SHIFT, vowel_first=True)
    src_vocab = vocabulary(SELECT_VOCAB, vowel_first=False)
    in_domain = Zipf(vocab[:SELECT_VOCAB])
    general = Zipf(vocab[SELECT_SHIFT:])
    src_zipf = Zipf(src_vocab)
    _write(
        out / "in_domain.txt",
        (" ".join(in_domain.draw(rng, n)) for n in lengths(rng, SELECT_IN_DOMAIN, 5, 25)),
    )
    planted = set(rng.sample(range(SELECT_CANDIDATES), round(SELECT_PLANTED * SELECT_CANDIDATES)))
    rows = []
    for k, n in enumerate(lengths(rng, SELECT_CANDIDATES, 5, 25)):
        side = in_domain if k in planted else general
        source = " ".join(src_zipf.draw(rng, n))
        rows.append(f"{source}\t{' '.join(side.draw(rng, n))}")
    _write(out / "general.tsv", rows)
    return SELECT_CANDIDATES


def gen_score(rng: random.Random, out: Path) -> int:
    """References with frequent function words and hypotheses that carry
    substitutions, deletions, insertions and one block move each.

    TER's work depends only on which tokens are equal, not on the words, and
    between inputs of one size it varies by more than the benchmark may
    spread. So the segments' shape (lengths on a fixed schedule, which
    positions hold equal tokens, where the edits and the block move fall)
    comes from a generator with a fixed seed, and the run's seed renames the
    tokens: every seed gives other text and the same TER work.
    """
    shape = random.Random("score-shape")
    n_function = len(FUNCTION_WORDS)
    function_ids = Zipf(list(range(n_function)))

    def ids(n):
        result = [n_function + shape.randrange(SCORE_VOCAB) for _ in range(n)]
        for k in shape.sample(range(n), 2 * n // 5):
            result[k] = function_ids.draw(shape, 1)[0]
        return result

    content = [w for w in vocabulary(3 * SCORE_VOCAB, vowel_first=False) if w not in FUNCTION_WORDS]
    names = rng.sample(FUNCTION_WORDS, n_function) + rng.sample(content, SCORE_VOCAB)
    hyps, refs = [], []
    for n in lengths(shape, SCORE_SEGMENTS, SCORE_MIN_LEN, SCORE_MAX_LEN):
        ref = ids(n)
        hyp = list(ref)
        for k in shape.sample(range(n), max(1, n // 6)):
            hyp[k] = ids(1)[0]
        for _ in range(n // 10):
            del hyp[shape.randrange(len(hyp))]
        for _ in range(n // 12):
            hyp.insert(shape.randrange(len(hyp) + 1), ids(1)[0])
        length = 3 if len(hyp) >= 12 else 2
        start = shape.randrange(len(hyp) - length + 1)
        block = hyp[start : start + length]
        rest = hyp[:start] + hyp[start + length :]
        at = shape.randrange(len(rest) + 1)
        hyp = rest[:at] + block + rest[at:]
        hyps.append(" ".join(names[i] for i in hyp))
        refs.append(" ".join(names[i] for i in ref))
    _write(out / "hyp.txt", hyps)
    _write(out / "ref.txt", refs)
    per_doc = SCORE_SEGMENTS // SCORE_DOCS
    _write(
        out / "docmap.tsv",
        (f"{k}\ttalk{min(k // per_doc, SCORE_DOCS - 1) + 1:02d}" for k in range(SCORE_SEGMENTS)),
    )
    return SCORE_SEGMENTS


def gen_train(rng: random.Random, out: Path) -> int:
    """TED-like source/target XML talks plus monolingual target sentences.

    A few segment pairs are exact duplicates or have a wild length ratio, so
    cleaning has something to drop. As for mine, the seed only shuffles the
    vocabularies, so every seed gives the same EM and n-gram work.
    """
    src_vocab = vocabulary(TRAIN_VOCAB, vowel_first=False)
    tgt_vocab = vocabulary(TRAIN_VOCAB, vowel_first=True)
    rng.shuffle(src_vocab)
    rng.shuffle(tgt_vocab)
    shape = random.Random("train-shape")
    src_zipf = Zipf(src_vocab)
    tgt_zipf = Zipf(tgt_vocab)
    # a fixed one-to-one word mapping with a little lexical ambiguity
    mapping = {e: tgt_vocab[t] for e, t in zip(src_vocab, shape.sample(range(TRAIN_VOCAB), TRAIN_VOCAB))}

    def translate(tokens):
        result = [mapping[e] if shape.random() < 0.9 else shape.choice(tgt_vocab) for e in tokens]
        for k in range(len(result) - 1):
            if shape.random() < 0.1:
                result[k], result[k + 1] = result[k + 1], result[k]
        return result

    n_segments = TRAIN_TALKS * TRAIN_SEGMENTS_PER_TALK
    # cleaning drops these: exact repeats of the previous pair, and pairs
    # whose target side is six times as long as the source side
    special = shape.sample(range(1, n_segments), round(0.06 * n_segments))
    duplicates = set(special[: round(0.04 * n_segments)])
    stretched = set(special[round(0.04 * n_segments) :])
    segment_lengths = lengths(shape, n_segments, 4, 20)
    src_xml = ['<?xml version="1.0" encoding="UTF-8"?>', "<corpus>"]
    tgt_xml = list(src_xml)
    for k in range(n_segments):
        if k % TRAIN_SEGMENTS_PER_TALK == 0:
            if k:
                src_xml.append("  </talk>")
                tgt_xml.append("  </talk>")
            talk_id = 1000 + 37 * (k // TRAIN_SEGMENTS_PER_TALK)
            src_xml.append(f'  <talk id="{talk_id}">')
            tgt_xml.append(f'  <talk id="{talk_id}">')
        if k not in duplicates:
            source = src_zipf.draw(shape, segment_lengths[k])
            target = translate(source)
            if k in stretched:
                target = target + tgt_zipf.draw(shape, 5 * len(target))
        src_xml.append(f"    <seg>{' '.join(source).capitalize()} .</seg>")
        tgt_xml.append(f"    <seg>{' '.join(target).capitalize()} .</seg>")
    src_xml.append("  </talk>")
    tgt_xml.append("  </talk>")
    src_xml.append("</corpus>")
    tgt_xml.append("</corpus>")
    _write(out / "ted_source.xml", src_xml)
    _write(out / "ted_target.xml", tgt_xml)

    mono = [
        " ".join(translate(src_zipf.draw(shape, n))) + " ."
        for n in lengths(shape, TRAIN_MONOLINGUAL + TRAIN_HELDOUT, 4, 20)
    ]
    _write(out / "mono.txt", mono[:TRAIN_MONOLINGUAL])
    _write(out / "heldout.txt", mono[TRAIN_MONOLINGUAL:])
    return n_segments + TRAIN_MONOLINGUAL


GENERATORS = {"mine": gen_mine, "select": gen_select, "score": gen_score, "train": gen_train}


def generate(workload: str, seed: int, out: Path) -> int:
    """Write one workload's inputs for ``seed`` into the empty directory ``out``."""
    out.mkdir(parents=True)
    # str seeds hash the same way in every process, unlike tuple seeds
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, out)
