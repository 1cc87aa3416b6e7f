import builtins
import itertools
import random
from array import array
from collections import defaultdict
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from corpusforge import text_pipeline, word_align
from corpusforge.errors import DataError, ParseError
from corpusforge.text_pipeline import (
    ParallelCorpus,
    Sentence,
    clean_parallel,
    ingest_ted_xml,
)
from corpusforge.word_align import (
    NULL_WORD,
    AlignmentLinks,
    TranslationLexicon,
    read_lexicon,
    symmetrize,
    train_model1,
    viterbi_align,
    write_lexicon,
)
from conftest import assert_streams_its_lines, make_parallel, make_sentence
from oracles import (
    compensated_sum,
    lexicon_of,
    links_of,
    reference_grow_diag,
    reference_model1,
    reference_read_lexicon,
    reference_viterbi_align,
    reference_write_lexicon,
    translations,
)


def enumeration_em(pairs, iterations):
    """Independent Model 1 oracle: the E-step sums over every alignment
    explicitly instead of using the per-token factorization."""
    pairs = [([NULL_WORD] + list(src), list(tgt)) for src, tgt in pairs]
    tgt_vocab = {f for _, tgt in pairs for f in tgt}
    t = {
        (e, f): 1.0 / len(tgt_vocab)
        for src, tgt in pairs
        for e in src
        for f in tgt
    }
    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        for src, tgt in pairs:
            alignments = list(itertools.product(range(len(src)), repeat=len(tgt)))
            weights = []
            for alignment in alignments:
                w = 1.0
                for j, i in enumerate(alignment):
                    w *= t[(src[i], tgt[j])]
                weights.append(w)
            z = sum(weights)
            for alignment, w in zip(alignments, weights):
                posterior = w / z
                for j, i in enumerate(alignment):
                    counts[(src[i], tgt[j])] += posterior
                    totals[src[i]] += posterior
        for key in t:
            t[key] = counts[key] / totals[key[0]] if totals[key[0]] else 0.0
    return t


class TestTrainModel1:
    def test_single_target_degenerate(self):
        lexicon, _ = train_model1(make_parallel([("a", "x")]), iterations=3)
        assert lexicon.t[("a", "x")] == pytest.approx(1.0)
        assert lexicon.t[(NULL_WORD, "x")] == pytest.approx(1.0)

    def test_classic_two_pair_fixture_matches_enumeration_oracle(
        self, classic_m1_corpus
    ):
        lexicon, _ = train_model1(classic_m1_corpus, iterations=10)
        oracle = enumeration_em(
            [(("a", "b"), ("x", "y")), (("a",), ("x",))], iterations=10
        )
        for key, expected in oracle.items():
            assert lexicon.t[key] == pytest.approx(expected, abs=1e-12), key

    def test_rows_are_the_pairs_in_first_seen_order(self, classic_m1_corpus):
        lexicon, _ = train_model1(classic_m1_corpus, iterations=3)
        rows = list(zip(lexicon.sources, lexicon.targets, lexicon.probs))
        assert [(e, f) for e, f, _ in rows] == [
            (NULL_WORD, "x"), (NULL_WORD, "y"), ("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")
        ]
        assert rows == [(e, f, p) for (e, f), p in lexicon.t.items()]

    def test_classic_fixture_argmax_converges(self, classic_m1_corpus):
        lexicon, _ = train_model1(classic_m1_corpus, iterations=10)
        best_for_a = max(translations(lexicon, "a").items(), key=lambda kv: kv[1])
        best_for_b = max(translations(lexicon, "b").items(), key=lambda kv: kv[1])
        assert best_for_a[0] == "x"
        assert best_for_b[0] == "y"

    @pytest.mark.parametrize("seed", range(6))
    def test_log_likelihood_non_decreasing(self, seed):
        rng = random.Random(seed)
        pairs = [
            (
                " ".join(rng.choice("abcd") for _ in range(rng.randint(1, 4))),
                " ".join(rng.choice("wxyz") for _ in range(rng.randint(1, 4))),
            )
            for _ in range(20)
        ]
        _, lls = train_model1(make_parallel(pairs), iterations=15)
        assert len(lls) == 15
        for earlier, later in zip(lls, lls[1:]):
            assert later >= earlier - 1e-9

    @pytest.mark.parametrize("iterations", [1, 3, 7])
    def test_rows_sum_to_one_after_every_iteration(self, iterations):
        rng = random.Random(42)
        pairs = [
            (
                " ".join(rng.choice("abc") for _ in range(rng.randint(1, 3))),
                " ".join(rng.choice("xyz") for _ in range(rng.randint(1, 3))),
            )
            for _ in range(12)
        ]
        lexicon, _ = train_model1(make_parallel(pairs), iterations=iterations)
        rows = defaultdict(float)
        for (e, _), p in lexicon.t.items():
            assert p >= 0.0
            rows[e] += p
        for e, total in rows.items():
            assert total == pytest.approx(1.0, abs=1e-9), e

    def test_final_likelihood_invariant_to_pair_order(self):
        pairs = [("a b", "x y"), ("b c", "y z"), ("a", "x"), ("c c", "z z")]
        _, forward = train_model1(make_parallel(pairs), iterations=8)
        _, shuffled = train_model1(make_parallel(pairs[::-1]), iterations=8)
        assert forward[-1] == pytest.approx(shuffled[-1], rel=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train_model1(make_parallel([]), iterations=2)

    def test_same_floats_under_the_compensated_sum(self, monkeypatch):
        rng = random.Random(1)
        words = [f"w{k}" for k in range(50)]
        zipf = [1 / (k + 1) for k in range(50)]
        pairs = [
            tuple(" ".join(rng.choices(words, zipf, k=rng.randint(3, 15))) for _ in "st")
            for _ in range(10)
        ]
        plain = train_model1(make_parallel(pairs), iterations=3)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert train_model1(make_parallel(pairs), iterations=3) == plain


def identity_lexicon(words):
    return lexicon_of({(w, w): 1.0 for w in words})


class TestViterbiAlign:
    def test_identity(self):
        lex = identity_lexicon(["a", "b"])
        links = viterbi_align(lex, make_sentence("a b"), make_sentence("a b"))
        assert links.links == {(0, 0), (1, 1)}

    def test_oracle_lexicon_aligns_classic_pair(self, classic_m1_corpus):
        lexicon, _ = train_model1(classic_m1_corpus, iterations=10)
        links = viterbi_align(lexicon, make_sentence("a b"), make_sentence("x y"))
        assert links.links == {(0, 0), (1, 1)}

    def test_all_mass_on_null_yields_no_links(self):
        lex = lexicon_of({(NULL_WORD, "x"): 1.0, (NULL_WORD, "y"): 1.0})
        links = viterbi_align(lex, make_sentence("a b"), make_sentence("x y"))
        assert links.links == frozenset()

    def test_tie_broken_toward_smallest_source_index(self):
        lex = lexicon_of({("a", "x"): 0.5, ("b", "x"): 0.5})
        links = viterbi_align(lex, make_sentence("a b"), make_sentence("x"))
        assert links.links == {(0, 0)}

    def test_empty_sentence_rejected(self):
        with pytest.raises(DataError):
            viterbi_align(identity_lexicon(["a"]), make_sentence(""), make_sentence("a"))


link_sets = st.sets(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
    max_size=8,
)


class TestSymmetrize:
    @pytest.mark.parametrize("heuristic", ["intersection", "union", "grow-diag"])
    def test_identical_inputs_are_identity(self, heuristic):
        links = links_of((0, 0), (1, 2), (2, 1))
        out = symmetrize(links, links, heuristic, 3, 3)
        assert out.links == links.links

    def test_disjoint_sets(self):
        fwd = links_of((0, 0))
        bwd = links_of((1, 1))
        assert symmetrize(fwd, bwd, "intersection", 2, 2).links == frozenset()
        assert symmetrize(fwd, bwd, "union", 2, 2).links == {(0, 0), (1, 1)}

    def test_grow_diag_hand_trace(self):
        # intersection {(0,0)}; (0,1) is adjacent to it, then (1,1) becomes
        # adjacent to the grown set
        fwd = links_of((0, 0), (0, 1))
        bwd = links_of((0, 0), (1, 1))
        out = symmetrize(fwd, bwd, "grow-diag", 2, 2)
        assert out.links == {(0, 0), (0, 1), (1, 1)}

    def test_grow_diag_does_not_jump_gaps(self):
        # (3,3) is not 8-adjacent to anything reachable from the intersection
        fwd = links_of((0, 0), (3, 3))
        bwd = links_of((0, 0))
        out = symmetrize(fwd, bwd, "grow-diag", 4, 4)
        assert out.links == {(0, 0)}

    def test_out_of_bounds_rejected(self):
        with pytest.raises(DataError):
            symmetrize(links_of((2, 0)), links_of(), "union", 2, 2)

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError):
            symmetrize(links_of(), links_of(), "magic", 1, 1)

    @given(link_sets, link_sets)
    @settings(max_examples=1000, deadline=None)
    def test_grow_diag_between_intersection_and_union(self, fwd, bwd):
        forward = AlignmentLinks(links=frozenset(fwd))
        backward = AlignmentLinks(links=frozenset(bwd))
        inter = symmetrize(forward, backward, "intersection", 5, 5).links
        grown = symmetrize(forward, backward, "grow-diag", 5, 5).links
        union = symmetrize(forward, backward, "union", 5, 5).links
        assert inter <= grown <= union

    @given(link_sets)
    @settings(max_examples=200, deadline=None)
    def test_symmetrize_self_is_identity_for_all_heuristics(self, links):
        wrapped = AlignmentLinks(links=frozenset(links))
        for heuristic in ("intersection", "union", "grow-diag"):
            assert symmetrize(wrapped, wrapped, heuristic, 5, 5).links == wrapped.links


@st.composite
def _bounded_link_pairs(draw):
    """Sentence lengths of 1-8 and two directional link sets within them, so
    links on the first and last row and column are common."""
    source_len, target_len = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    link = st.tuples(st.integers(0, source_len - 1), st.integers(0, target_len - 1))
    return source_len, target_len, draw(st.sets(link)), draw(st.sets(link))


class TestGrowDiagAgainstReference:
    @given(_bounded_link_pairs())
    @example((3, 3, {(0, 0), (2, 2)}, {(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)}))
    @example((1, 8, {(0, 0), (0, 7)}, {(0, k) for k in range(8)}))
    @example((8, 1, {(7, 0)}, {(k, 0) for k in range(8)}))
    @settings(max_examples=500, deadline=None)
    def test_equal_to_full_scan(self, case):
        source_len, target_len, fwd, bwd = case
        forward = AlignmentLinks(links=frozenset(fwd))
        backward = AlignmentLinks(links=frozenset(bwd))
        grown = symmetrize(forward, backward, "grow-diag", source_len, target_len)
        assert grown == reference_grow_diag(forward, backward)


# Words that float() reads, so a misaligned field can parse as a probability.
_LEXICON_WORDS = st.sampled_from(("a", "nan", "1e5", "1_0", " x"))
_GOOD_PROBS = ("0.5", "1e-3", "nan", "-0.0", "1_0", " 0.25 ", "inf")
_BLANK_LINES = ("", "   ", "\t\t", " \t \t ")
_BAD_LINES = ("\t", "a\tb", "a\tb\t1\t2", "x\t3", "a\tb\tx", "a\tb\t", "abc")


@st.composite
def _lexicon_texts(draw):
    """Rows over a few words, so pairs repeat, and blank lines, joined by any
    mix of \n, \r\n and lone \r; half the texts also hold malformed lines."""
    bad = draw(st.booleans())
    row = st.tuples(_LEXICON_WORDS, _LEXICON_WORDS, st.sampled_from(_GOOD_PROBS))
    other = st.sampled_from(_BLANK_LINES + _BAD_LINES if bad else _BLANK_LINES)
    lines = draw(st.lists(st.one_of(row.map("\t".join), other), max_size=12))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestLexiconTsv:
    def test_round_trip(self, classic_m1_corpus):
        lexicon, _ = train_model1(classic_m1_corpus, iterations=5)
        restored = read_lexicon(write_lexicon(lexicon))
        assert set(restored.t) == set(lexicon.t)
        for key, p in lexicon.t.items():
            assert restored.t[key] == pytest.approx(p, rel=1e-9)

    def test_sorted_by_source_then_descending_prob(self):
        lex = lexicon_of({("b", "x"): 0.3, ("a", "y"): 0.2, ("a", "z"): 0.8})
        lines = write_lexicon(lex).splitlines()
        assert lines[0].startswith("a\tz")
        assert lines[1].startswith("a\ty")
        assert lines[2].startswith("b\tx")

    def test_lines_end_at_universal_newlines_only(self):
        lexicon = read_lexicon("a\x85b\tx\u2028y\t0.5\x0c\nc\tz\t0.25\n")
        assert lexicon.t == {("a\x85b", "x\u2028y"): 0.5, ("c", "z"): 0.25}
        with pytest.raises(ParseError) as info:
            read_lexicon("a\tx\t0.5\x0c\nb\ty\n")
        assert info.value.line == 2

    def test_holds_no_list_of_every_line(self, monkeypatch):
        text = "".join(
            f"s{i // 10}\tt{i * 7919 % 50_000}\t{(i % 97 + 1) / 1000:.10g}\n"
            for i in range(50_000)
        )
        assert_streams_its_lines(monkeypatch, word_align, read_lexicon, text)

    @settings(max_examples=500, deadline=None)
    @given(text=_lexicon_texts(), chunk=st.sampled_from([None, 1, 2, 3, 4, 5]))
    # the tab total is right, but line 1 has 4 fields and line 2 has 2
    @example("a\tb\t1\t2\nx\t3\n", None)
    @example("a\tb\t0.5\n\t\t\nb\ta\t1\n", None)
    @example("a\tb\t0.5\na\tb\t0.25\r\nb\ta\t1\ra\tb\tnan", 2)
    # a lone surrogate, which only "surrogatepass" encodes
    @example("a\ud800\tb\t0.5\n", None)
    # multibyte words: no UTF-8 byte of them is a tab or a newline
    @example("é\tжж\t0.5\n日本\t語\t1\n\U0001f600\t\u2028\t0.25\n", None)
    @example("é\tжж\t0.5\n日本\t語\t1\n", 1)
    # a last line with no newline: a row, then a line with no tab at all
    @example("a\tb\t0.5\nb\ta\t1", None)
    @example("a\tb\t0.5\nabc", None)
    @example("a\tb\t0.5\nabc", 1)
    # lines ended by \r alone
    @example("a\tb\t0.5\rb\ta\t1\r", None)
    @example("a\tb\t0.5\rb\ta\t1\rx\t3\r", None)
    def test_equals_the_line_loop(self, text, chunk):
        with pytest.MonkeyPatch.context() as m:
            if chunk is not None:
                m.setattr(text_pipeline, "_LINE_CHUNK", chunk)
            try:
                expected = reference_read_lexicon(text).t
            except ParseError as error:
                with pytest.raises(ParseError) as info:
                    read_lexicon(text)
                assert (str(info.value), info.value.line) == (str(error), error.line)
                return
            got = read_lexicon(text).t
        assert list(got) == list(expected)
        assert list(map(repr, got.values())) == list(map(repr, expected.values()))
        objects: dict[str, set[int]] = {}
        for word in itertools.chain.from_iterable(got):
            objects.setdefault(word, set()).add(id(word))
        assert all(len(ids) == 1 for ids in objects.values())

    def test_right_tab_total_with_misaligned_lines_is_rejected(self):
        with pytest.raises(ParseError, match="expected 3 tab-separated fields") as info:
            read_lexicon("a\tb\t1\t2\nx\t3\n")
        assert info.value.line == 1

    def test_t_is_built_once_from_the_rows_and_keeps_them(self):
        lexicon = read_lexicon("a\tx\t0.5\nb\ty\t0.25\na\tx\t0.75\n")
        rows = (["a", "b", "a"], ["x", "y", "x"], [0.5, 0.25, 0.75])
        assert (lexicon.sources, lexicon.targets, list(lexicon.probs)) == rows
        before = lexicon.coverage(0.6)
        assert before.forward == {"a": {"x"}}  # the last row of (a, x) passes
        assert "t" not in vars(lexicon) and "by_source" not in vars(lexicon)
        t = lexicon.t
        assert t == {("a", "x"): 0.75, ("b", "y"): 0.25}
        assert lexicon.t is t
        assert (lexicon.sources, lexicon.targets, list(lexicon.probs)) == rows
        assert lexicon.coverage(0.6) == before
        fresh = TranslationLexicon(lexicon.sources, lexicon.targets, lexicon.probs)
        assert fresh.coverage(0.6) == before
        assert lexicon == lexicon_of({("a", "x"): 0.75, ("b", "y"): 0.25})

    def test_each_word_is_one_object_across_keys(self):
        # Words of more than one character, which CPython does not cache.
        rows = [("aa", "xx"), ("aa", "yy"), ("bb", "xx"), ("xx", "aa"), ("bb", "yy")]
        lexicon = read_lexicon("".join(f"{e}\t{f}\t0.5\n" for e, f in rows))
        assert set(lexicon.t) == set(rows)
        objects: dict[str, set[int]] = {}
        for key in lexicon.t:
            for word in key:
                objects.setdefault(word, set()).add(id(word))
        assert objects.keys() == {"aa", "bb", "xx", "yy"}
        assert all(len(ids) == 1 for ids in objects.values())


_NAN = float("nan")
# ties, both zeros and inf; nan only where the test asks for it
_PROBS = (0.5, 0.25, 0.125, 1.0, 0.0, -0.0, float("inf"))


def _lexicon_rows(nan):
    """Rows over few words, so pairs repeat; some rows are NULL's."""
    probs = st.sampled_from(_PROBS + (_NAN,) if nan else _PROBS)
    row = st.tuples(st.sampled_from(["a", "b", NULL_WORD]), st.sampled_from("xyz"), probs)
    return st.lists(row, max_size=10)


def _lexicon(rows, column):
    """The lexicon of these rows, with its probabilities in `column`."""
    sources, targets, probs = map(list, zip(*rows)) if rows else ([], [], [])
    return TranslationLexicon(sources, targets, column(probs))


# "c" and "w" are missing from every lexicon
_SOURCES = st.lists(st.sampled_from(["a", "b", "c", NULL_WORD]), min_size=1, max_size=5)
_TARGETS = st.lists(st.sampled_from("xyzw"), min_size=1, max_size=5)
_COLUMNS = st.sampled_from([list, lambda ps: array("d", ps)])


class TestMatchesTupleKeyedReference:
    @settings(max_examples=300, deadline=None)
    @given(_lexicon_rows(nan=True), _COLUMNS, _SOURCES, _TARGETS)
    def test_viterbi_align(self, rows, column, source, target):
        lexicon = _lexicon(rows, column)
        src, tgt = (Sentence(raw=" ".join(w), tokens=tuple(w)) for w in (source, target))
        assert viterbi_align(lexicon, src, tgt) == reference_viterbi_align(lexicon, src, tgt)

    @settings(max_examples=300, deadline=None)
    @given(rows=_lexicon_rows(nan=False), column=_COLUMNS, expected=st.none())
    # With a nan the (source, -prob, target) keys are not totally ordered, so
    # the reference's order depends on its input order; each source word's
    # rows are sorted on their own instead.
    @example(
        rows=[("b", "y", 0.5), ("b", "x", _NAN), ("a", "y", 0.5), ("b", "z", 1.0)],
        column=list,
        expected="a\ty\t0.5\nb\ty\t0.5\nb\tx\tnan\nb\tz\t1\n",
    )
    def test_write_lexicon(self, rows, column, expected):
        lexicon = _lexicon(rows, column)
        if expected is None:
            expected = reference_write_lexicon(lexicon)
        assert write_lexicon(lexicon) == expected

    def test_train_write_align_and_compare_never_build_t(self, classic_m1_corpus):
        lexicon, _ = train_model1(classic_m1_corpus, iterations=3)
        write_lexicon(lexicon)
        view = lexicon.by_source
        viterbi_align(lexicon, make_sentence("a b"), make_sentence("x y"))
        other, _ = train_model1(classic_m1_corpus, iterations=3)
        assert lexicon == other
        assert "t" not in vars(lexicon) and "t" not in vars(other)
        assert lexicon.by_source is view


@st.composite
def _model1_cases(draw):
    """Small corpora whose words repeat within sentences; some sides empty."""
    src_vocab = [f"s{k}" for k in range(draw(st.integers(3, 5)))]
    tgt_vocab = [f"t{k}" for k in range(draw(st.integers(3, 5)))]

    def side(vocab):
        return st.lists(st.sampled_from(vocab), max_size=6)

    pairs = draw(
        st.lists(st.tuples(side(src_vocab), side(tgt_vocab)), min_size=1, max_size=8)
        .filter(lambda ps: any(tgt for _, tgt in ps))
    )
    return pairs, draw(st.integers(1, 12))


def _corpus(pairs):
    return ParallelCorpus(
        pairs=[
            (
                Sentence(raw=" ".join(s), tokens=tuple(s)),
                Sentence(raw=" ".join(t), tokens=tuple(t)),
            )
            for s, t in pairs
        ]
    )


def _bundled_ted_corpus():
    data = resources.files("corpusforge").joinpath("data")
    src_docs = ingest_ted_xml(data.joinpath("ted_source.xml").read_bytes())
    tgt_docs = ingest_ted_xml(data.joinpath("ted_target.xml").read_bytes())
    tgt_by_id = {d.id: d for d in tgt_docs}
    pairs = []
    for doc in src_docs:
        pairs.extend(zip(doc.sentences, tgt_by_id[doc.id].sentences, strict=True))
    cleaned, _ = clean_parallel(ParallelCorpus(pairs=pairs))
    return cleaned


def _assert_bit_identical(corpus, iterations):
    lexicon, lls = train_model1(corpus, iterations=iterations)
    ref, ref_lls = reference_model1(corpus, iterations=iterations)
    assert list(lexicon.t.items()) == list(ref.t.items())
    # one row per pair, in the order of the reference's keys
    assert list(zip(lexicon.sources, lexicon.targets, lexicon.probs)) == [
        (e, f, p) for (e, f), p in ref.t.items()
    ]
    assert lls == ref_lls


class TestModel1MatchesReference:
    @given(_model1_cases())
    @settings(max_examples=300, deadline=None)
    # a source and a target word each repeat within one sentence pair
    @example(([(["s0", "s1", "s0"], ["t1", "t0", "t1"]), (["s1", "s2"], ["t0", "t2"])], 3))
    def test_bit_identical_to_dict_reference(self, case):
        pairs, iterations = case
        _assert_bit_identical(_corpus(pairs), iterations)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_bundled_ted_data_bit_identical(self, reverse):
        corpus = _bundled_ted_corpus()
        if reverse:
            corpus = ParallelCorpus(pairs=[(t, s) for s, t in corpus.pairs])
        assert len(corpus) > 0
        _assert_bit_identical(corpus, iterations=10)


class _Untouchable:
    """A value whose use would show that set-up ran before a check."""

    def __len__(self):
        raise AssertionError("corpus read before the iterations check")

    def __hash__(self):
        raise AssertionError("token indexed before the corpus was validated")


class TestModel1ErrorContract:
    @pytest.mark.parametrize("iterations", [0, -3])
    def test_iterations_below_one_rejected_before_reading_corpus(self, iterations):
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            train_model1(_Untouchable(), iterations=iterations)

    def test_empty_corpus_is_data_error(self):
        with pytest.raises(DataError, match="empty corpus"):
            train_model1(ParallelCorpus(pairs=[]), iterations=1)

    def test_no_target_tokens_rejected_before_indexing(self):
        untouchable = Sentence(raw="?", tokens=(_Untouchable(),))
        corpus = ParallelCorpus(
            pairs=[
                (untouchable, make_sentence("")),
                (make_sentence("a"), make_sentence("")),
            ]
        )
        with pytest.raises(DataError, match="no target tokens"):
            train_model1(corpus, iterations=1)
