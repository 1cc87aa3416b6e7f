import logging
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from corpusforge import text_pipeline
from corpusforge.errors import DataError, ParseError
from corpusforge.text_pipeline import (
    CleaningRules,
    Document,
    clean_parallel,
    corpus_stats,
    edit_distances,
    edit_masks,
    ingest_ted_xml,
    pair_talks,
    split_lines,
    tokenize,
    word_edit_distance,
)
from conftest import make_parallel, make_corpus
from oracles import textbook_edit_distance


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_split_and_lowercase(self):
        assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]

    def test_internal_apostrophes_kept_dashes_split(self):
        assert tokenize("L'état—c'est moi.") == ["l'état", "—", "c'est", "moi", "."]

    def test_internal_hyphen_kept(self):
        assert tokenize("state-of-the-art") == ["state-of-the-art"]

    def test_edge_apostrophes_split(self):
        assert tokenize("'quoted'") == ["'", "quoted", "'"]

    def test_no_lowercase_profile(self):
        assert tokenize("Hello There", lowercase=False) == ["Hello", "There"]

    def test_whitespace_collapsed(self):
        assert tokenize("  a\t b \n c ") == ["a", "b", "c"]

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_idempotent_on_joined_output(self, raw):
        tokens = tokenize(raw)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_tokens_nonempty_and_whitespace_free(self, raw):
        for tok in tokenize(raw):
            assert tok
            assert not any(c.isspace() for c in tok)


def _reference_lines(text: str) -> list[str]:
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


_LINE_PIECES = st.lists(
    st.sampled_from(["a", "bc", "\n", "\r", "\r\n", "\x85", "\u2028", "\x0c"]), max_size=40
).map("".join)


class TestSplitLines:
    @settings(max_examples=500, deadline=None)
    @given(text=_LINE_PIECES, chunk=st.integers(1, 5))
    @example(text="a\r\nb\r", chunk=2)
    def test_equals_one_split_wherever_the_slices_are_cut(self, text, chunk):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(text_pipeline, "_LINE_CHUNK", chunk)
            assert list(split_lines(text)) == _reference_lines(text)

    @given(text=_LINE_PIECES)
    def test_equals_one_split_at_the_default_chunk(self, text):
        assert list(split_lines(text * 3000)) == _reference_lines(text * 3000)


class TestCleanParallel:
    def test_exact_duplicate_dropped(self):
        corpus = make_parallel([("a b", "x y"), ("a b", "x y")])
        cleaned, report = clean_parallel(corpus)
        assert report.kept_pairs == 1
        assert report.dropped_duplicates == 1
        assert len(cleaned.pairs) == 1

    def test_length_ratio_dropped(self):
        corpus = make_parallel([("a", "x x x x x x x x x")])
        cleaned, report = clean_parallel(corpus, CleaningRules(max_ratio=4.0))
        assert report.kept_pairs == 0
        assert report.dropped_length_ratio == 1

    def test_ratio_exactly_at_limit_kept(self):
        corpus = make_parallel([("a", "x x x x")])
        _, report = clean_parallel(corpus, CleaningRules(max_ratio=4.0))
        assert report.kept_pairs == 1

    def test_empty_side_dropped(self):
        corpus = make_parallel([("a b", "")])
        cleaned, report = clean_parallel(corpus)
        assert report.kept_pairs == 0
        assert report.dropped_empty_or_control == 1

    def test_control_characters_dropped(self):
        corpus = make_parallel([("a \x01 b", "x y")])
        _, report = clean_parallel(corpus)
        assert report.dropped_empty_or_control == 1

    def test_control_pattern_is_category_cc_but_tab_lf_cr(self):
        # Every code point, so that a Unicode version which moves one into or
        # out of category Cc cannot go unseen.
        wrong = [
            hex(c)
            for c in range(0x110000)
            if bool(text_pipeline._CONTROL_RE.match(chr(c)))
            != (unicodedata.category(chr(c)) == "Cc" and chr(c) not in "\t\n\r")
        ]
        assert wrong == []

    def test_duplicate_checked_before_other_reasons(self):
        # The second empty pair is a duplicate of the first, so it counts
        # as a duplicate, not as another empty.
        corpus = make_parallel([("a b", ""), ("a b", "")])
        _, report = clean_parallel(corpus)
        assert report.dropped_empty_or_control == 1
        assert report.dropped_duplicates == 1

    def test_order_preserved(self):
        corpus = make_parallel([("a", "x"), ("b", "y"), ("c", "z")])
        cleaned, _ = clean_parallel(corpus)
        assert [s.raw for s, _ in cleaned.pairs] == ["a", "b", "c"]

    def test_idempotent(self):
        corpus = make_parallel(
            [("a b", "x y"), ("a b", "x y"), ("c", ""), ("d e", "w v")]
        )
        once, _ = clean_parallel(corpus)
        twice, report = clean_parallel(once)
        assert twice.pairs == once.pairs
        assert report.kept_pairs == report.input_pairs

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="ab \x01", max_size=6),
                st.text(alphabet="xy \x01", max_size=6),
            ),
            max_size=12,
        ),
        st.floats(min_value=1.0, max_value=8.0),
    )
    @settings(max_examples=1000, deadline=None)
    def test_report_counts_always_sum(self, raw_pairs, max_ratio):
        corpus = make_parallel(raw_pairs)
        cleaned, report = clean_parallel(corpus, CleaningRules(max_ratio=max_ratio))
        dropped = (
            report.dropped_duplicates
            + report.dropped_length_ratio
            + report.dropped_empty_or_control
        )
        assert report.input_pairs == len(raw_pairs)
        assert report.kept_pairs + dropped == report.input_pairs
        assert report.kept_pairs == len(cleaned.pairs)


TED_XML = b"""<?xml version="1.0" encoding="UTF-8"?>
<corpus>
  <talk id="2183">
    <seg>First segment.</seg>
    <seg>Second one!</seg>
  </talk>
</corpus>
"""


class TestIngestTedXml:
    def test_single_talk(self):
        docs = ingest_ted_xml(TED_XML)
        assert len(docs) == 1
        assert docs[0].id == "2183"
        assert len(docs[0].sentences) == 2
        assert docs[0].sentences[0].tokens == ("first", "segment", ".")

    def test_empty_talk_element(self):
        docs = ingest_ted_xml(b'<corpus><talk id="7"></talk></corpus>')
        assert len(docs) == 1
        assert docs[0].sentences == []

    def test_truncated_xml_raises_with_byte_offset(self):
        with pytest.raises(ParseError) as err:
            ingest_ted_xml(TED_XML[:40])
        assert "byte" in str(err.value)

    def test_missing_talk_id_rejected_with_diagnostic(self, caplog):
        xml = b'<corpus><talk><seg>x</seg></talk><talk id="9"><seg>y</seg></talk></corpus>'
        with caplog.at_level(logging.WARNING):
            docs = ingest_ted_xml(xml)
        assert [d.id for d in docs] == ["9"]
        assert any("no id attribute" in rec.message for rec in caplog.records)

    def test_entities_and_split_character_data(self):
        docs = ingest_ted_xml(b'<talk id="1"><seg>a &amp; b</seg></talk>')
        assert docs[0].sentences[0].tokens == ("a", "&", "b")

    def test_talk_nested_in_talk_is_parse_error_with_its_position(self):
        xml = b'<corpus>\n<talk id="1"><seg>a</seg>\n <talk id="2"><seg>b</seg></talk>\n</talk></corpus>'
        with pytest.raises(ParseError, match="<talk> nested in <talk>") as info:
            ingest_ted_xml(xml)
        assert (info.value.line, info.value.byte_offset) == (3, xml.index(b'<talk id="2"'))

    def test_seg_nested_in_seg_is_parse_error_with_its_position(self):
        xml = b'<talk id="1">\n<seg>outer <seg>inner</seg> text</seg></talk>'
        with pytest.raises(ParseError, match="<seg> nested in <seg>") as info:
            ingest_ted_xml(xml)
        assert (info.value.line, info.value.byte_offset) == (2, xml.index(b"<seg>inner"))

    @pytest.mark.parametrize(
        "xml",
        [
            b'<corpus>\n<seg>lost</seg><talk id="1"><seg>a</seg></talk></corpus>',
            b'<corpus><talk id="1"><seg>a</seg></talk>\n<seg>lost</seg></corpus>',
        ],
    )
    def test_seg_outside_every_talk_is_parse_error_with_its_position(self, xml):
        with pytest.raises(ParseError, match="<seg> outside every <talk>") as info:
            ingest_ted_xml(xml)
        assert (info.value.line, info.value.byte_offset) == (2, xml.index(b"<seg>lost"))

    def test_repeated_talk_id_is_parse_error_with_its_position(self):
        xml = (
            b'<corpus><talk id="a"><seg>x</seg></talk>\n<talk id="b"></talk>\n'
            b' <talk id=" a "><seg>y</seg></talk></corpus>'
        )
        with pytest.raises(ParseError, match="talk id 'a' is repeated") as info:
            ingest_ted_xml(xml)
        assert (info.value.line, info.value.byte_offset) == (3, xml.index(b'<talk id=" a "'))

    def test_talks_without_an_id_are_not_repeats(self):
        assert ingest_ted_xml(b"<c><talk><seg>x</seg></talk><talk><seg>y</seg></talk></c>") == []


def _talk(talk_id, *lines):
    return Document(id=talk_id, sentences=make_corpus(lines))


class TestPairTalks:
    def test_pairs_come_in_source_order(self):
        source = [_talk("b", "b one", "b two"), _talk("a", "a one")]
        target = [_talk("a", "A one"), _talk("b", "B one", "B two")]
        corpus = pair_talks(source, target)
        assert [(s.raw, t.raw) for s, t in corpus.pairs] == [
            ("b one", "B one"), ("b two", "B two"), ("a one", "A one"),
        ]

    @pytest.mark.parametrize(
        "source, target, unpaired",
        [
            ([_talk("a", "x"), _talk("b", "y")], [_talk("a", "X")], "b"),
            ([_talk("a", "x")], [_talk("a", "X"), _talk("c", "Z")], "c"),
            ([_talk("a", "x", "y")], [_talk("a", "X")], "a"),
        ],
        ids=["missing-partner", "extra-target-talk", "unequal-sentence-counts"],
    )
    def test_an_unpaired_talk_is_a_data_error(self, source, target, unpaired):
        with pytest.raises(DataError, match=f"^talk {unpaired} is not paired across"):
            pair_talks(source, target)


class TestCorpusStats:
    def test_empty(self):
        stats = corpus_stats([])
        assert (stats.sentences, stats.tokens, stats.unique_tokens) == (0, 0, 0)

    def test_single_sentence(self):
        stats = corpus_stats(make_corpus(["a b a"]))
        assert (stats.sentences, stats.tokens, stats.unique_tokens) == (1, 3, 2)

    def test_parallel_sides(self):
        corpus = make_parallel([("a b", "x"), ("b", "y z z")])
        source = corpus_stats(corpus.source_sentences)
        target = corpus_stats(corpus.target_sentences)
        assert source.tokens == 3
        assert source.unique_tokens == 2
        assert target.tokens == 4
        assert target.unique_tokens == 3

    @given(st.lists(st.text(alphabet="abc ", max_size=10), max_size=10))
    def test_unique_never_exceeds_tokens(self, lines):
        stats = corpus_stats(make_corpus(lines))
        assert stats.unique_tokens <= stats.tokens


# a three-word alphabet makes repeated tokens (and so multi-bit position
# masks) the common case; lengths past 64 cross a machine word
_few_words = st.lists(st.sampled_from(["the", "a", "of"]), max_size=90)


class TestWordEditDistance:
    @given(_few_words, _few_words)
    @example([], [])
    @example([], ["the", "a"])
    @example(["the", "a", "the"], ["the", "a", "the"])
    @example(["the", "a"] * 40, ["a", "the", "of"] * 25)
    @example(["the"], ["a", "the", "of", "a"])
    @example(["the", "a"] * 40, ["a", "the"])
    @settings(max_examples=400, deadline=None)
    def test_matches_full_matrix_oracle(self, a, b):
        # each side is the pattern in turn: longer, shorter or empty
        expected = textbook_edit_distance(a, b)
        assert word_edit_distance(a, b, edit_masks(b)) == expected
        assert word_edit_distance(b, a, edit_masks(a)) == expected


# Lanes of one pattern length at each byte and 64-bit boundary, over the
# three words and one ("to") that the pattern never holds, with an order to
# put them in.
@st.composite
def _lanes(draw):
    m = draw(st.sampled_from([0, 1, 7, 8, 15, 16, 63, 64, 65]))
    pattern = draw(st.lists(st.sampled_from(["the", "a", "of"]), min_size=m, max_size=m))
    n = draw(st.integers(0, 70))
    text = st.lists(st.sampled_from(["the", "a", "of", "to"]), min_size=n, max_size=n)
    texts = draw(st.lists(text, min_size=1, max_size=12))
    return texts, pattern, draw(st.permutations(range(len(texts))))


class TestEditLanes:
    @given(_lanes())
    @example(([["the", "a"] * 40, ["to"] * 80], ["a", "the", "of"] * 21 + ["a", "a"], [1, 0]))
    @settings(max_examples=150, deadline=None)
    def test_every_lane_matches_full_matrix_oracle(self, lanes):
        texts, pattern, order = lanes
        masks = edit_masks(pattern)
        found = edit_distances(texts, masks, len(pattern))
        assert found == [textbook_edit_distance(t, pattern) for t in texts]
        # reordering the lanes only reorders their distances
        reordered = [texts[k] for k in order]
        assert edit_distances(reordered, masks, len(pattern)) == [found[k] for k in order]

    def test_no_lanes(self):
        assert edit_distances([], edit_masks(["the", "a", "of"]), 3) == []
