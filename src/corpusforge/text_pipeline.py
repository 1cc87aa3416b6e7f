"""Corpus ingestion, tokenization, structural cleaning, statistics, and
word-level edit distance.

Everything downstream (alignment, language models, mining, selection,
evaluation) consumes the token streams produced here, so tokenization is
rule-based and deterministic: re-tokenizing the joined token stream always
reproduces it.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain, repeat
from operator import add

from corpusforge.errors import DataError, ParseError, SettingError, check_float

# Characters line_slices cuts at a time: large enough that the per-slice
# cost vanishes, small enough that no slice's lines weigh much.
_LINE_CHUNK = 1 << 16

# Floats are added left to right with float_sum, never with sum(): since
# Python 3.12, sum() over floats is compensated and can round differently,
# and output bytes must not depend on the Python version. Give it a start of
# 0.0 where the values can be empty.
float_sum = partial(reduce, add)

# A token is either a word (letters/digits, possibly glued by word-internal
# apostrophes or hyphens) or a single non-word, non-space character.
_TOKEN_RE = re.compile(r"[\w]+(?:['’\-][\w]+)*|[^\w\s]")

# Unicode category Cc (U+0000-U+001F, U+007F-U+009F) but tab, LF and CR.
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]")


def tokenize(raw: str, lowercase: bool = True) -> list[str]:
    """Split raw text into tokens.

    Rules: optionally lowercase, split punctuation off words, keep
    word-internal apostrophes and hyphens intact, collapse whitespace.
    Empty input yields an empty list.
    """
    if lowercase:
        raw = raw.lower()
    return _TOKEN_RE.findall(raw)


@dataclass(frozen=True)
class Sentence:
    """One sentence: the raw string plus its token sequence."""

    raw: str
    tokens: tuple[str, ...]

    @classmethod
    def from_raw(cls, raw: str, lowercase: bool = True) -> "Sentence":
        return cls(raw=raw, tokens=tuple(tokenize(raw, lowercase)))


@dataclass
class Document:
    """An ordered group of sentences with a non-empty identifier."""

    id: str
    sentences: list[Sentence]


@dataclass
class ParallelCorpus:
    """Sentence-aligned bilingual text as (source, target) pairs."""

    pairs: list[tuple[Sentence, Sentence]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def source_sentences(self) -> list[Sentence]:
        return [s for s, _ in self.pairs]

    @property
    def target_sentences(self) -> list[Sentence]:
        return [t for _, t in self.pairs]


@dataclass
class CleaningRules:
    """Structural cleaning thresholds."""

    max_ratio: float = 4.0

    def __post_init__(self):
        check_float("max ratio", self.max_ratio)
        # A length ratio is never below 1, so a smaller bound drops every pair.
        if not self.max_ratio >= 1.0:
            raise SettingError(f"max ratio must be >= 1, got {self.max_ratio}")


@dataclass
class CleaningReport:
    """Where every input pair went; categories are mutually exclusive."""

    input_pairs: int = 0
    kept_pairs: int = 0
    dropped_duplicates: int = 0
    dropped_length_ratio: int = 0
    dropped_empty_or_control: int = 0

    def as_lines(self) -> list[str]:
        return [
            f"input_pairs={self.input_pairs}",
            f"kept_pairs={self.kept_pairs}",
            f"dropped_duplicates={self.dropped_duplicates}",
            f"dropped_length_ratio={self.dropped_length_ratio}",
            f"dropped_empty_or_control={self.dropped_empty_or_control}",
        ]


def clean_parallel(
    corpus: ParallelCorpus, rules: CleaningRules | None = None
) -> tuple[ParallelCorpus, CleaningReport]:
    """Drop duplicate, badly length-ratioed, and empty/control-character pairs.

    Each pair is dropped for exactly one reason, checked in this order:
    exact duplicate (token-level, against all previously seen pairs), then
    token-length ratio above ``rules.max_ratio`` (only when both sides are
    non-empty), then empty side or control characters (Unicode category Cc
    but tab, LF and CR). Relative order of kept pairs is preserved; the
    operation is idempotent.
    """
    rules = rules or CleaningRules()
    report = CleaningReport(input_pairs=len(corpus.pairs))
    seen: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    kept: list[tuple[Sentence, Sentence]] = []
    for src, tgt in corpus.pairs:
        key = (src.tokens, tgt.tokens)
        if key in seen:
            report.dropped_duplicates += 1
            continue
        seen.add(key)
        n_src, n_tgt = len(src.tokens), len(tgt.tokens)
        if n_src > 0 and n_tgt > 0 and max(n_src, n_tgt) / min(n_src, n_tgt) > rules.max_ratio:
            report.dropped_length_ratio += 1
            continue
        if (
            n_src == 0
            or n_tgt == 0
            or _CONTROL_RE.search(src.raw)
            or _CONTROL_RE.search(tgt.raw)
        ):
            report.dropped_empty_or_control += 1
            continue
        report.kept_pairs += 1
        kept.append((src, tgt))
    return ParallelCorpus(pairs=kept), report


class _TalkCollector:
    """Expat handlers that pick talk/seg elements out of TED-like XML."""

    def __init__(self, lowercase: bool, parser):
        self.lowercase = lowercase
        self.documents: dict[str, Document] = {}
        self._parser = parser
        self._current: Document | None = None
        self._talk_index = 0
        self._seg_chars: list[str] | None = None

    def start(self, name, attrs):
        # a talk in a talk, or a seg in a seg, would drop the outer one's
        # text, a seg outside every talk has no document to go to, and a
        # repeated talk id would name two documents
        talk_id = attrs.get("id", "").strip()
        open_element = {"talk": self._current, "seg": self._seg_chars}.get(name)
        stray = name == "seg" and self._current is None
        repeated = name == "talk" and talk_id in self.documents
        if open_element is not None or stray or repeated:
            raise ParseError(
                f"<{name}> nested in <{name}>" if open_element is not None
                else "<seg> outside every <talk>" if stray
                else f"talk id {talk_id!r} is repeated",
                line=self._parser.CurrentLineNumber,
                byte_offset=self._parser.CurrentByteIndex,
            )
        if name == "talk":
            self._talk_index += 1
            self._current = Document(id=talk_id, sentences=[])
            if not talk_id:
                import logging  # only a talk without an id pays for it

                logging.getLogger(__name__).warning(
                    "talk #%d has no id attribute; document rejected", self._talk_index
                )
        elif name == "seg":
            self._seg_chars = []

    def end(self, name):
        if name == "seg":
            text = " ".join("".join(self._seg_chars).split())
            self._current.sentences.append(Sentence.from_raw(text, self.lowercase))
            self._seg_chars = None
        elif name == "talk":
            if self._current.id:
                self.documents[self._current.id] = self._current
            self._current = None

    def chars(self, data):
        if self._seg_chars is not None:
            self._seg_chars.append(data)


def ingest_ted_xml(data: bytes, lowercase: bool = True) -> list[Document]:
    """Parse TED-like XML into one Document per ``<talk id=...>`` element.

    Each ``<seg>`` becomes one Sentence. Malformed XML, an unsupported
    encoding, a talk nested in a talk, a seg nested in a seg, a seg outside
    every talk and a repeated talk id raise ParseError naming the line and
    byte offset; a talk without an id is skipped with a logged diagnostic.
    """
    import xml.parsers.expat  # only a job that reads XML pays for it

    parser = xml.parsers.expat.ParserCreate()
    collector = _TalkCollector(lowercase, parser)
    declared = []  # the encoding the XML declaration names
    parser.XmlDeclHandler = lambda version, encoding, standalone: declared.append(encoding)
    parser.buffer_text = True
    parser.StartElementHandler = collector.start
    parser.EndElementHandler = collector.end
    parser.CharacterDataHandler = collector.chars
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise ParseError(
            f"malformed XML: {xml.parsers.expat.errors.messages[exc.code]}",
            line=exc.lineno,
            byte_offset=parser.ErrorByteIndex,
        ) from exc
    except (LookupError, ValueError) as exc:
        # expat leaves an encoding it lacks to a Python codec, which may be missing or multi-byte
        raise ParseError(
            f"unsupported encoding {declared[-1]!r} in the XML declaration",
            line=parser.ErrorLineNumber,
            byte_offset=parser.ErrorByteIndex,
        ) from exc
    return list(collector.documents.values())


def pair_talks(source: list[Document], target: list[Document]) -> ParallelCorpus:
    """Pair the sentences of the talks that share an id, in source order. A talk
    without a partner, or with another sentence count than its partner, is a DataError."""
    by_id = {doc.id: doc for doc in target}
    pairs = []
    for doc in source:
        partner = by_id.pop(doc.id, None)
        if partner is None or len(partner.sentences) != len(doc.sentences):
            raise DataError(f"talk {doc.id} is not paired across the two XML files")
        pairs.extend(zip(doc.sentences, partner.sentences))
    if by_id:
        raise DataError(f"talk {next(iter(by_id))} is not paired across the two XML files")
    return ParallelCorpus(pairs=pairs)


@dataclass
class CorpusStats:
    """Sentence, token, and distinct-token-form counts for one side."""

    sentences: int = 0
    tokens: int = 0
    unique_tokens: int = 0


def corpus_stats(sentences) -> CorpusStats:
    """Count sentences, tokens, and unique token forms."""
    forms: set[str] = set()
    n_tokens = 0
    n_sentences = 0
    for sent in sentences:
        n_sentences += 1
        n_tokens += len(sent.tokens)
        forms.update(sent.tokens)
    return CorpusStats(sentences=n_sentences, tokens=n_tokens, unique_tokens=len(forms))


def split_lines(text: str) -> Iterator[str]:
    """The lines of ``text``, streamed: split on universal newlines (\\n,
    \\r\\n, \\r) only, without terminators and with no trailing empty line.
    Unlike ``str.splitlines``, form feeds, \\x85, \\u2028 and the like stay
    inside their line, and every reader numbers lines alike. Only one slice
    of `line_slices` is split at a time, so a reader never holds a list of
    every line beside what it builds."""
    return chain.from_iterable(
        piece.removesuffix("\n").split("\n") for piece in line_slices(text)
    )


def line_slices(text: str) -> Iterator[str]:
    """``text`` cut after the first \\n once a slice holds ``_LINE_CHUNK``
    characters, so a \\r\\n is never cut apart, with every \\r\\n and lone
    \\r made a \\n: each slice is whole lines, each ended by a \\n but
    perhaps the text's last. For readers that parse a slice in bulk."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start + _LINE_CHUNK - 1) + 1 or end
        piece = text[start:stop]
        start = stop
        yield piece.replace("\r\n", "\n").replace("\r", "\n") if "\r" in piece else piece


def edit_masks(pattern) -> dict:
    """The bit-parallel form of ``pattern``: each of its tokens mapped to the
    bitmask of the positions where it occurs (bit i for position i)."""
    masks: dict = {}
    bit = 1
    for tok in pattern:
        masks[tok] = masks.get(tok, 0) | bit
        bit <<= 1
    return masks


def edit_distances(texts, masks: dict, m: int) -> list[int]:
    """The Levenshtein distances from a length-``m`` pattern, given as its
    `edit_masks`, to each of the equal-length token sequences ``texts``, all
    advanced at once.

    Bit-parallel (Myers 1999, in Hyyrö's 2001 form for global distance):
    the DP column after j tokens is a pair of bit vectors of its vertical
    +1/-1 deltas, and each token advances the whole column in a few integer
    operations. The columns of all texts share one Python int (Hyyrö,
    Fredriksson & Navarro 2005): text k has lane k, the m // 8 + 1 bytes
    from byte k times that size, and the spare bit above the lane's m
    pattern bits takes the carry of the addition, so no lane spills into the
    next. Each text position's match bits put every text's token mask in its
    lane. A lane's distance is its last cell D[m][n]: its top cell, n, plus
    its deltas.
    """
    lanes = len(texts)
    if not lanes:
        return []
    n = len(texts[0])
    size = m // 8 + 1
    if lanes == 1:
        eqs = map(masks.get, texts[0], repeat(0))
    else:
        lane_masks = {tok: bits.to_bytes(size, "little") for tok, bits in masks.items()}
        zero = bytes(size)
        eqs = (
            int.from_bytes(b"".join(map(lane_masks.get, column, repeat(zero))), "little")
            for column in zip(*texts)
        )
    # bit 0 of each lane: the sum of 2**(8 * size * k) for k < lanes
    ones = (1 << (8 * size * lanes)) // ((1 << (8 * size)) - 1)
    mask = ((1 << m) - 1) * ones  # the pattern bits of every lane
    pv, mv = mask, 0
    for eq in eqs:
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        # the top row D[0][j] = j grows by one per column: carry in a +1 at
        # bit 0 of every lane, over the bit shifted in from the lane below
        ph = (ph << 1) | ones
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    if lanes == 1:  # the whole int is the lane: no bytes to cut it out of
        return [n + pv.bit_count() - mv.bit_count()]
    pvs, mvs = pv.to_bytes(size * lanes, "little"), mv.to_bytes(size * lanes, "little")
    return [
        n
        + int.from_bytes(pvs[i : i + size], "little").bit_count()
        - int.from_bytes(mvs[i : i + size], "little").bit_count()
        for i in range(0, size * lanes, size)
    ]


def word_edit_distance(a, b, b_masks: dict) -> int:
    """Word-level Levenshtein distance (used by selection and TER), with one
    lane advancing over ``a``. ``b`` is the pattern whatever its length (the
    distance is symmetric) and comes with its `edit_masks` as ``b_masks``, so
    a caller that scores many texts against ``b`` builds its masks once."""
    return edit_distances([a], b_masks, len(b))[0]
