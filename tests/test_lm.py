import itertools
import math
import random
import re
from collections import Counter, defaultdict
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from corpusforge import lm
from corpusforge.errors import DataError, ParseError
from corpusforge.lm import (
    NGramModel,
    _continuation_counts,
    _estimate_discount,
    log_prob,
    perplexity,
    pooled_perplexity,
    read_arpa,
    train_lm,
    write_arpa,
)
from corpusforge.text_pipeline import Sentence, float_sum
from conftest import assert_streams_its_lines, make_corpus, make_sentence, random_corpus
import oracles
from oracles import contexts as model_contexts
from oracles import reference_kn, reference_log_prob, reference_read_arpa

# Hand-computed interpolated Kneser-Ney oracle for the corpus
# ["a b", "a b", "a c"], order 2.
#
# Raw bigrams: (<s>,a):3 (a,b):2 (a,c):1 (b,</s>):2 (c,</s>):1
#   count-of-counts {1:2, 2:2} -> D2 = 2/(2+4) = 1/3
# Continuation unigrams (distinct predecessors): a:1 b:1 c:1 </s>:2, total 5
#   count-of-counts {1:3, 2:1} -> D1 = 3/(3+2) = 0.6
# Unigrams (|V| = 6, uniform base 1/6, mass D1*4/5 = 0.48):
#   P1(a)=P1(b)=P1(c) = 0.4/5 + 0.48/6 = 0.16
#   P1(</s>) = 1.4/5 + 0.08 = 0.36 ; P1(<s>) = P1(<unk>) = 0.08
# Bigrams, P(w|c) = max(n-D2,0)/S + D2*N/S * P1(w):
#   P(b|a)    = (5/3)/3 + (2/9)(0.16)  = 133/225
#   P(c|a)    = (2/3)/3 + (2/9)(0.16)  =  58/225
#   P(a|<s>)  = (8/3)/3 + (1/9)(0.16)  = 204/225
#   P(</s>|b) = (5/3)/2 + (1/6)(0.36)  =  67/75
#   P(</s>|c) = (2/3)/1 + (1/3)(0.36)  =  59/75
KN_ORACLE = {
    ("a",): 0.16,
    ("b",): 0.16,
    ("c",): 0.16,
    ("</s>",): 0.36,
    ("<s>",): 0.08,
    ("<unk>",): 0.08,
    ("a", "b"): 133 / 225,
    ("a", "c"): 58 / 225,
    ("<s>", "a"): 204 / 225,
    ("b", "</s>"): 67 / 75,
    ("c", "</s>"): 59 / 75,
}


@pytest.fixture
def kn_model(kn_corpus):
    return train_lm(kn_corpus, order=2)


def with_discounts(module, train, *args, **kwargs):
    """What `train` returns, and the discount `module._estimate_discount`
    gave each order while it trained, lowest order first."""
    discounts = []

    def estimate(counts):
        discounts.append(_estimate_discount(counts))
        return discounts[-1]

    with mock.patch.object(module, "_estimate_discount", estimate):
        return train(*args, **kwargs), discounts


def model_context_sums(model):
    contexts = model_contexts(model) | {()}
    return {
        ctx: sum(10 ** log_prob(model, ctx, w) for w in model.vocab)
        for ctx in contexts
    }


class TestTraining:
    def test_discounts_match_hand_values(self, kn_corpus):
        _, discounts = with_discounts(lm, train_lm, kn_corpus, order=2)
        assert discounts == pytest.approx([0.6, 1 / 3], abs=1e-12)

    def test_fixture_probabilities_match_hand_oracle(self, kn_model):
        assert set(kn_model.probs) == set(KN_ORACLE)
        for gram, expected in KN_ORACLE.items():
            assert 10 ** kn_model.probs[gram] == pytest.approx(
                expected, abs=1e-9
            ), gram

    def test_unigram_model_vocab_and_normalization(self):
        model = train_lm(make_corpus(["a"]), order=1)
        assert model.vocab == frozenset({"a", "<s>", "</s>", "<unk>"})
        total = sum(10 ** log_prob(model, (), w) for w in model.vocab)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_count_dominance(self, kn_model):
        assert kn_model.probs[("a", "b")] > kn_model.probs[("a", "c")]

    def test_min_count_maps_rare_tokens_to_unk(self):
        model = train_lm(make_corpus(["a a b", "a a c"]), order=2, min_count=2)
        assert "b" not in model.vocab
        assert "c" not in model.vocab
        # the rare tokens were counted as <unk>, which now has real mass
        assert ("a", "<unk>") in model.probs

    @pytest.mark.parametrize("min_count", [1, 2])
    def test_every_token_is_one_object_per_word(self, min_count):
        # the tokenizer makes a new string for each occurrence of a word of
        # two or more characters
        corpus = make_corpus(["the cat sat on the mat", "the dog sat", "an cat on an dog"])
        model = train_lm(corpus, order=4, min_count=min_count)
        first: dict = {}
        for gram in [*model.probs, *model.backoffs]:
            assert all(first.setdefault(tok, tok) is tok for tok in gram), gram

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train_lm([], order=2)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            train_lm(make_corpus(["a"]), order=0)

    def test_discount_clamped_on_degenerate_counts(self):
        # single sentence: every count is 1, n2 = 0 -> raw discount 1.0
        _, discounts = with_discounts(lm, train_lm, make_corpus(["a b"]), order=2)
        assert len(discounts) == 2
        for d in discounts:
            assert 0.1 <= d <= 0.9
        assert _estimate_discount(Counter(a=1)) == 0.9  # raw 1.0
        assert _estimate_discount(Counter(a=1, b=2, c=2, d=2, e=2, f=2)) == 0.1  # raw 1/11


class TestLogProb:
    def test_unk_has_finite_floor_everywhere(self, kn_model):
        lp = log_prob(kn_model, ("never", "seen"), "alsounseen")
        assert math.isfinite(lp)
        assert lp <= 0.0

    def test_observed_beats_unseen(self, kn_model):
        assert log_prob(kn_model, ("a",), "b") > log_prob(kn_model, ("a",), "<unk>")

    def test_backoff_identity_hand_traced(self, kn_model):
        # (b, a) unseen: P(a|b) = gamma(b) * P1(a) = (1/3 * 1/2) * 0.16
        expected = math.log10((1 / 6) * 0.16)
        assert log_prob(kn_model, ("b",), "a") == pytest.approx(expected, abs=1e-9)

    def test_context_truncated_to_model_order(self, kn_model):
        long_ctx = ("x", "y", "z", "a")
        assert log_prob(kn_model, long_ctx, "b") == log_prob(kn_model, ("a",), "b")

    def test_all_results_nonpositive(self, kn_model):
        for w in kn_model.vocab:
            for ctx in [(), ("a",), ("zz",)]:
                assert log_prob(kn_model, ctx, w) <= 0.0


class TestPerplexity:
    def test_in_vocabulary_beats_unknown(self):
        model = train_lm(make_corpus(["a a a a"]), order=2)
        ppl_known = perplexity(model, make_sentence("a a")).perplexity
        ppl_unknown = perplexity(model, make_sentence("b b")).perplexity
        assert ppl_known < ppl_unknown

    def test_empty_sentence_scores_only_eos(self, kn_model):
        result = perplexity(kn_model, make_sentence(""))
        assert result.token_count == 1
        assert result.perplexity >= 1.0

    def test_fixture_perplexity_matches_hand_value(self, kn_model):
        lp = math.log10(204 / 225) + math.log10(133 / 225) + math.log10(67 / 75)
        expected = 10 ** (-lp / 3)
        result = perplexity(kn_model, make_sentence("a b"))
        assert result.perplexity == pytest.approx(expected, abs=1e-9)
        assert result.token_count == 3
        assert result.oov_count == 0

    def test_oov_counted(self, kn_model):
        assert perplexity(kn_model, make_sentence("a zzz")).oov_count == 1

    def test_pooled_perplexity_pools_log_probs_and_tokens(self, kn_model):
        results = [perplexity(kn_model, make_sentence(s)) for s in ("a b", "a c zzz")]
        lp = results[0].log10_prob_sum + results[1].log10_prob_sum
        assert pooled_perplexity(results) == pytest.approx(10 ** (-lp / 7), abs=1e-12)
        assert pooled_perplexity([]) == 1.0


class TestNormalization:
    def test_fixture_contexts_sum_to_one(self, kn_model):
        for ctx, total in model_context_sums(kn_model).items():
            assert total == pytest.approx(1.0, abs=1e-6), ctx

    @pytest.mark.parametrize("seed", range(12))
    def test_random_corpora_contexts_sum_to_one(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng, rng.randint(2, 12), "abcdef", max_len=5)
        order = rng.randint(1, 4)
        model = train_lm(corpus, order=order, min_count=rng.choice([1, 1, 2]))
        for ctx, total in model_context_sums(model).items():
            assert total == pytest.approx(1.0, abs=1e-6), (ctx, order)


class TestOrderConsistency:
    @pytest.mark.parametrize("seed", range(8))
    def test_shared_lower_levels_identical(self, seed):
        # Levels below the top are built from continuation counts that do
        # not depend on the model order, so they must coincide exactly.
        rng = random.Random(100 + seed)
        corpus = random_corpus(rng, rng.randint(3, 10), "abcd", max_len=5)
        k = rng.randint(2, 3)
        low = train_lm(corpus, order=k)
        high = train_lm(corpus, order=k + 1)
        for gram, p in low.probs.items():
            if len(gram) < k:
                assert high.probs[gram] == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_identical_queries_when_no_higher_order_evidence(self, seed):
        # With globally unique tokens, continuation counts equal raw counts,
        # so the order-k and order-(k+1) models agree on any query whose
        # context has no (k+1)-gram evidence.
        rng = random.Random(200 + seed)
        words = [f"w{i}" for i in range(30)]
        rng.shuffle(words)
        lines, pos = [], 0
        while pos + 3 <= len(words):
            step = rng.randint(1, 3)
            lines.append(" ".join(words[pos : pos + step]))
            pos += step
        corpus = make_corpus(lines)
        k = 2
        low = train_lm(corpus, order=k)
        high = train_lm(corpus, order=k + 1)
        for _ in range(25):
            ctx = tuple(rng.choice(words) for _ in range(k))
            word = rng.choice(words)
            if ctx + (word,) in high.probs or ctx in model_contexts(high):
                continue
            assert log_prob(high, ctx, word) == pytest.approx(
                log_prob(low, ctx, word), abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_training_data_fits_better_than_disjoint_data(self, seed):
        rng = random.Random(300 + seed)
        own = random_corpus(rng, 12, "abcdefgh", max_len=6)
        other = random_corpus(rng, 12, "abcdefgh", max_len=6)
        model_own = train_lm(own, order=2)
        model_other = train_lm(other, order=2)

        def corpus_ppl(model, corpus):
            lp = sum(perplexity(model, s).log10_prob_sum for s in corpus)
            n = sum(perplexity(model, s).token_count for s in corpus)
            return 10 ** (-lp / n)

        assert corpus_ppl(model_own, own) <= corpus_ppl(model_other, own)



@st.composite
def _gram_counts(draw):
    """Counts of same-length grams over a tiny vocabulary, as train_lm builds them."""
    n = draw(st.integers(2, 5))
    gram = st.tuples(*[st.sampled_from(["<s>", "a", "b", "c"])] * n)
    return Counter(draw(st.lists(gram, max_size=40)))


class TestContinuationCounts:
    @settings(max_examples=300, deadline=None)
    @given(_gram_counts())
    def test_matches_distinct_predecessor_sets(self, higher):
        predecessors = defaultdict(set)
        for gram in higher:
            predecessors[gram[1:]].add(gram[0])
        expected = [(gram, len(pre)) for gram, pre in predecessors.items()]
        assert list(_continuation_counts(higher).items()) == expected

class TestArpa:
    def test_round_trip_fixture(self, kn_model):
        restored = read_arpa(write_arpa(kn_model))
        assert restored.order == kn_model.order
        assert restored.vocab == kn_model.vocab
        assert set(restored.probs) == set(kn_model.probs)
        assert set(restored.backoffs) == set(kn_model.backoffs)
        for gram, p in kn_model.probs.items():
            assert restored.probs[gram] == pytest.approx(p, abs=1e-6)
        for gram, b in kn_model.backoffs.items():
            assert restored.backoffs[gram] == pytest.approx(b, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_random_models(self, seed):
        rng = random.Random(400 + seed)
        corpus = random_corpus(rng, rng.randint(2, 10), "abcde", max_len=5)
        model = train_lm(corpus, order=rng.randint(1, 3))
        restored = read_arpa(write_arpa(model))
        for gram, p in model.probs.items():
            assert restored.probs[gram] == pytest.approx(p, abs=1e-6)

    def test_count_mismatch_raises_with_line(self):
        text = "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n"
        with pytest.raises(ParseError) as err:
            read_arpa(text)
        assert "declares 2" in str(err.value)
        assert "line" in str(err.value)

    @pytest.mark.parametrize(
        "text, message, line",
        [
            (
                "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\nnot read\n\r\n\\end\\\r-1\tb\n",
                "declares 2 1-grams but 1 were listed",
                11,
            ),
            ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\ta\n\n\r\n  \r", "missing \\end\\", 8),
            ("\n  \r\n\n", "missing \\data\\ header", 3),
            ("", "missing \\data\\ header", 0),
            ("\\data\\\n\n\n", "declares no n-gram orders", 3),
        ],
    )
    def test_end_of_file_errors_name_the_last_line(self, text, message, line):
        with pytest.raises(ParseError, match=re.escape(message)) as info:
            read_arpa(text)
        assert info.value.line == line

    def test_holds_no_list_of_every_line(self, monkeypatch):
        unigrams, bigrams = 5_000, 45_000
        text = "".join(
            [
                f"\\data\\\nngram 1={unigrams}\nngram 2={bigrams}\n\n\\1-grams:\n",
                *(f"-{i % 7 + 1}.{i:06d}\tw{i}\t-0.{i % 9 + 1}\n" for i in range(unigrams)),
                "\n\\2-grams:\n",
                *(f"-{i % 5 + 1}.{i:06d}\tw{i // 9} w{i % 9 * 500 + i // 90}\n" for i in range(bigrams)),
                "\n\\end\\\n",
            ]
        )
        assert_streams_its_lines(monkeypatch, lm, read_arpa, text)

    def test_token_holding_nul_keeps_the_tuple_order(self):
        # Joined with NUL, ("a\0", "a") would sort before ("a", "\0b").
        grams = [("a",), ("a\0",), ("\0b",), ("a\0", "a"), ("a", "\0b")]
        model = NGramModel(
            order=2,
            vocab=frozenset(g[0] for g in grams[:3]),
            probs={gram: -1.0 for gram in grams},
            backoffs={},
        )
        rows = [line.split("\t")[1] for line in write_arpa(model).split("\n") if "\t" in line]
        assert rows == ["\0b", "a", "a\0", "a \0b", "a\0 a"]
        assert read_arpa(write_arpa(model)) == model

    def test_trained_model_with_nul_token_keeps_the_tuple_order(self):
        # "a \0 b" tokenizes to a, \0, b: the vocabulary holds a NUL, so every
        # order is sorted by its tuples. The tokenizer never glues a NUL to a
        # word, so two sentences are given tokens by hand for which the
        # NUL-joined strings would sort ("a\0", "a") before ("a", "\0b").
        lines = ["a \0 b", "b \0 \0 a", "\0 a a b \0", "a b"]
        glued = [Sentence("a\0 a", ("a\0", "a")), Sentence("a \0b", ("a", "\0b"))]
        model = train_lm(make_corpus(lines) + glued, order=3)
        assert "\0" in model.vocab
        text = write_arpa(model)
        grams_by_order = defaultdict(list)
        for line in text.split("\n"):
            if "\t" in line:
                gram = tuple(line.split("\t")[1].split(" "))
                grams_by_order[len(gram)].append(gram)
        assert sorted(grams_by_order) == [1, 2, 3]
        for grams in grams_by_order.values():
            assert grams == sorted(grams)
        # ARPA keeps 6 decimals, so the trained model comes back rounded: its
        # grams and vocabulary return whole, and the text is a fixed point.
        restored = read_arpa(text)
        assert restored.vocab == model.vocab
        assert restored.probs.keys() == model.probs.keys()
        assert restored.backoffs.keys() == model.backoffs.keys()
        assert write_arpa(restored) == text

    def test_hand_written_unigram_file(self):
        text = (
            "\\data\\\n"
            "ngram 1=2\n"
            "\n"
            "\\1-grams:\n"
            "-0.301030\ta\n"
            "-0.698970\tb\n"
            "\n"
            "\\end\\\n"
        )
        model = read_arpa(text)
        assert model.order == 1
        assert model.probs[("a",)] == pytest.approx(-0.301030)
        assert model.probs[("b",)] == pytest.approx(-0.698970)
        assert model.vocab == frozenset({"a", "b"})

    def test_signed_zeros_and_non_finite_numbers_round_trip(self):
        # equal floats with different texts: a reader sharing numbers by
        # value would write -0.000000 back as 0.000000, or the reverse
        text = (
            "\\data\\\n"
            "ngram 1=5\n"
            "\n"
            "\\1-grams:\n"
            "-0.000000\ta\t0.000000\n"
            "0.000000\tb\t-0.000000\n"
            "-inf\tc\tinf\n"
            "inf\td\tnan\n"
            "nan\te\t-inf\n"
            "\n"
            "\\end\\\n"
        )
        model = read_arpa(text)
        assert write_arpa(model) == text
        assert repr(model.probs[("a",)]) == "-0.0"
        assert repr(model.backoffs[("b",)]) == "-0.0"

    def test_unknown_word_without_unk_unigram_is_data_error(self):
        model = read_arpa("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n")
        assert log_prob(model, ("zzz",), "a") == pytest.approx(-0.5)
        with pytest.raises(DataError, match="<unk>"):
            log_prob(model, ("a",), "zzz")

    def test_missing_data_header(self):
        with pytest.raises(ParseError):
            read_arpa("\\1-grams:\n-0.5\ta\n\\end\\\n")

    def test_missing_end_marker(self):
        with pytest.raises(ParseError):
            read_arpa("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\ta\n")

    def test_unknown_token_in_higher_gram(self):
        text = (
            "\\data\\\nngram 1=1\nngram 2=1\n\n"
            "\\1-grams:\n-0.5\ta\t-0.1\n\n"
            "\\2-grams:\n-0.4\ta b\n\n\\end\\\n"
        )
        with pytest.raises(ParseError):
            read_arpa(text)

    def test_every_token_is_its_unigram_object(self):
        corpus = make_corpus(["the cat sat on the mat", "the dog sat", "a cat on a dog"])
        restored = read_arpa(write_arpa(train_lm(corpus, order=4)))
        unigram = {gram[0]: gram[0] for gram in restored.probs if len(gram) == 1}
        assert unigram.keys() == restored.vocab
        for gram in [*restored.probs, *restored.backoffs]:
            assert all(tok is unigram[tok] for tok in gram), gram

    def test_missing_middle_token_names_it_and_its_line(self):
        text = (
            "\\data\\\nngram 1=2\nngram 2=0\nngram 3=1\n\n"
            "\\1-grams:\n-0.5\ta\t-0.1\n-0.6\tc\n\n"
            "\\2-grams:\n\n"
            "\\3-grams:\n-0.4\ta b c\n\n\\end\\\n"
        )
        with pytest.raises(ParseError, match="token 'b' missing from unigram section$"):
            reference_read_arpa(text)
        with pytest.raises(ParseError, match="token 'b' missing from unigram section") as info:
            read_arpa(text)
        assert info.value.line == 13

    def test_queries_survive_round_trip(self, kn_model):
        restored = read_arpa(write_arpa(kn_model))
        for ctx in [(), ("a",), ("b",), ("zz",)]:
            for w in ["a", "b", "c", "</s>", "zz"]:
                assert log_prob(restored, ctx, w) == pytest.approx(
                    log_prob(kn_model, ctx, w), abs=1e-5
                )


# Sentences over a tiny vocabulary, empty ones included, so grams repeat at
# every order.
_SENTENCES = st.lists(st.lists(st.sampled_from("abc"), max_size=6), min_size=1, max_size=8)

# Up to 20 tokens over 40 words, the low-numbered ones most frequent, so
# that a frequent context has many continuations and rare words fall below
# min_count.
_WIDE_SENTENCES = st.lists(
    st.lists(st.integers(0, 40 * 40 - 1).map(lambda n: f"w{39 - math.isqrt(n)}"), max_size=20),
    min_size=1,
    max_size=12,
)


def _assert_trains_as_reference(sentences, order, min_count):
    corpus = make_corpus(" ".join(s) for s in sentences)
    model, discounts = with_discounts(lm, train_lm, corpus, order=order, min_count=min_count)
    expected, expected_discounts = with_discounts(
        oracles, reference_kn, corpus, order=order, min_count=min_count
    )
    assert model.probs == expected.probs
    assert model.backoffs == expected.backoffs
    assert discounts == expected_discounts
    assert model.vocab == expected.vocab
    assert write_arpa(model) == write_arpa(expected)


class TestAgainstReferenceKN:
    @settings(max_examples=300, deadline=None)
    @given(_SENTENCES, st.integers(1, 6), st.integers(1, 3))
    def test_top_order_count_equals_counting_every_order(self, sentences, order, min_count):
        _assert_trains_as_reference(sentences, order, min_count)

    @settings(max_examples=200, deadline=None)
    @given(_WIDE_SENTENCES, st.integers(1, 6), st.integers(1, 3))
    def test_many_continuations_per_context(self, sentences, order, min_count):
        _assert_trains_as_reference(sentences, order, min_count)


def _numbers_by_order(*tables):
    """The values of the tables, one list per gram length."""
    orders = defaultdict(list)
    for table in tables:
        for gram, value in table.items():
            orders[len(gram)].append(value)
    return orders.values()


def _one_object_per_key(values, key):
    first: dict = {}
    return all(first.setdefault(key(value), value) is value for value in values)


class TestSharing:
    """A model holds each gram's key tuple once, and the equal numbers of
    one order (or of one ARPA section) as one float object."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_SENTENCES, _WIDE_SENTENCES), st.integers(1, 6), st.integers(1, 2))
    def test_trained_backoffs_share_keys_and_numbers(self, sentences, order, min_count):
        model = train_lm(make_corpus(" ".join(s) for s in sentences), order, min_count)
        keys = {gram: gram for gram in model.probs}
        assert all(keys[gram] is gram for gram in model.backoffs)
        for values in _numbers_by_order(model.backoffs):
            assert _one_object_per_key(values, key=repr)

    def test_gammas_an_ulp_apart_share_one_backoff(self):
        # with a discount of 0.1, context a (1 type in 4 counts) and context
        # b (3 types in 12) get gammas an ulp apart with one log10
        assert 0.1 * 1 / 4 != 0.1 * 3 / 12
        assert math.log10(0.1 * 1 / 4) == math.log10(0.1 * 3 / 12)
        corpus = make_corpus(["a x"] * 4 + ["b x", "b y", "b z"] * 4)
        with mock.patch.object(lm, "_estimate_discount", lambda counts: 0.1):
            model = train_lm(corpus, order=2)
        assert model.backoffs[("a",)] is model.backoffs[("b",)]

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_SENTENCES, _WIDE_SENTENCES), st.integers(1, 6), st.integers(1, 2))
    def test_read_numbers_are_one_object_per_field_text(self, sentences, order, min_count):
        model = train_lm(make_corpus(" ".join(s) for s in sentences), order, min_count)
        restored = read_arpa(write_arpa(model))
        keys = {gram: gram for gram in restored.probs}
        assert all(keys[gram] is gram for gram in restored.backoffs)
        # a section's numeric fields are its grams' probabilities and back-offs
        for values in _numbers_by_order(restored.probs, restored.backoffs):
            assert _one_object_per_key(values, key="{:.6f}".format)


class TestLogProbWindow:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from("ab"), max_size=6), min_size=1, max_size=6),
        st.integers(1, 6),
        st.data(),
    )
    def test_matches_recursive_reference(self, sentences, order, data):
        # Contexts are training histories (so long grams are found), behind
        # a few random or unknown tokens, cut to at most 8 tokens.
        model = train_lm(make_corpus(" ".join(s) for s in sentences), order=order)
        stream = ["<s>"] + data.draw(st.sampled_from(sentences)) + ["</s>"]
        end = data.draw(st.integers(0, len(stream) - 1))
        noise = data.draw(st.lists(st.sampled_from(["a", "b", "zz", "<s>"]), max_size=3))
        context = (noise + stream[:end])[-8:]
        word = data.draw(st.sampled_from([stream[end], "a", "b", "zz", "</s>", "<unk>"]))
        expected = reference_log_prob(model, context, word)
        assert log_prob(model, context, word) == pytest.approx(expected, abs=1e-9)
        assert log_prob(model, tuple(context), word) == pytest.approx(expected, abs=1e-9)


_ARPA_LINES = [
    "", "\\data\\", "\\end\\", "ngram 0=0", "ngram 1=2", "ngram 2=1", "ngram 3=0",
    "\\1-grams:", "\\2-grams:", "\\3-grams:", "\\x-grams:", "-0.5\ta", "-0.5\tzz",
    "-0.5\ta b", "-0.4\ta b\t-0.2", "-0.4\ta q", "-0.5\ta\tx", "-1.0\t<unk>\t-0.3", "junk",
]


@st.composite
def _mutated_arpa(draw):
    """A written model's ARPA text, maybe with its last section swapped with
    another, one section repeated or given an unknown token, or with an
    order-0 declaration,
    then with lines deleted, repeated, swapped, inserted or replaced. The
    \\data\\ line itself is left in place."""
    sentences = draw(st.lists(st.lists(st.sampled_from("ab"), max_size=4), min_size=1, max_size=4))
    model = train_lm(make_corpus(" ".join(s) for s in sentences), order=draw(st.integers(1, 4)))
    header, *sections, end = write_arpa(model).split("\n\n")
    k = draw(st.integers(0, len(sections) - 1))
    section_op = draw(st.sampled_from(["none", "swap", "repeat", "rename", "order0"]))
    if section_op == "swap":
        sections[k - 1], sections[-1] = sections[-1], sections[k - 1]
    elif section_op == "repeat":
        sections.insert(draw(st.integers(0, len(sections))), sections[k])
    elif section_op == "rename":
        sections[k] = sections[k].replace("\ta", "\tq", 1)
    elif section_op == "order0":
        header += "\nngram 0=0"
    lines = "\n\n".join([header, *sections, end]).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        j = draw(st.integers(1, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "repeat", "swap", "insert", "replace"]))
        if op == "delete" and len(lines) > 2:
            del lines[i]
        elif op == "repeat":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "insert":
            lines.insert(i, draw(st.sampled_from(_ARPA_LINES)))
        elif op == "replace":
            lines[i] = draw(st.sampled_from(_ARPA_LINES))
    return "\n".join(lines)


def _sections_ascend(text):
    """For a text the reference reader accepts: whether every declared order
    is >= 1 and declared once, no gram is listed twice, and the section
    headers before \\end\\ strictly ascend."""
    orders, declared, grams = [], set(), set()
    for line in text.splitlines():
        stripped = line.strip()
        if stripped == "\\end\\":
            break
        if stripped.startswith("ngram "):
            k = int(stripped[6:].split("=")[0])
            if k < 1 or k in declared:
                return False
            declared.add(k)
        if stripped.startswith("\\") and stripped.endswith("-grams:"):
            orders.append(int(stripped[1:-7]))
        if "\t" in line:
            gram = tuple(line.split("\t")[1].split())
            if gram in grams:
                return False
            grams.add(gram)
    return all(a < b for a, b in zip(orders, orders[1:]))


class TestOnePassReader:
    @settings(max_examples=500, deadline=None)
    @given(_mutated_arpa())
    def test_agrees_with_reference_reader(self, text):
        try:
            expected = reference_read_arpa(text)
        except ParseError as fault:
            with pytest.raises(ParseError) as info:
                read_arpa(text)
            # The same fault, or an earlier one that only reading in one
            # pass (or requiring ascending sections) reports.
            assert str(info.value) == str(fault) or re.search(
                "missing from unigram|repeated or out of order|must be >= 1"
                "|declared twice|listed twice",
                str(info.value),
            )
            return
        if _sections_ascend(text):
            assert read_arpa(text) == expected
        else:
            with pytest.raises(ParseError):
                read_arpa(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text().map(lambda t: "\\data\\\nngram 1=1\n" + t)))
    def test_arbitrary_text_parses_or_raises_parse_error(self, text):
        try:
            read_arpa(text)
        except ParseError:
            pass

    def test_only_ascending_sections_are_read(self):
        written = write_arpa(train_lm(make_corpus(["a b a", "b a b b"]), order=3))
        header, *sections, end = written.split("\n\n")
        expected = reference_read_arpa(written)
        for perm in itertools.permutations(sections):
            text = "\n\n".join([header, *perm, end])
            assert reference_read_arpa(text) == expected
            if list(perm) == sections:
                assert read_arpa(text) == expected
            else:
                with pytest.raises(ParseError):
                    read_arpa(text)

    UNIGRAMS = "\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.5\ta\t-0.1\n\n"

    def test_repeated_section_is_parse_error_with_its_line(self):
        text = self.UNIGRAMS + "\\1-grams:\n-0.5\ta\n\n\\2-grams:\n-0.4\ta a\n\n\\end\\\n"
        with pytest.raises(ParseError, match="repeated or out of order") as info:
            read_arpa(text)
        assert info.value.line == 8

    def test_descending_sections_are_parse_error_with_its_line(self):
        text = (
            "\\data\\\nngram 1=1\nngram 2=1\n\n\\2-grams:\n-0.4\ta a\n\n"
            "\\1-grams:\n-0.5\ta\n\n\\end\\\n"
        )
        with pytest.raises(ParseError) as info:
            read_arpa(text)
        assert info.value.line == 6  # `a` is not yet a unigram
        text = "\\data\\\nngram 1=1\nngram 2=0\n\n\\2-grams:\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n"
        with pytest.raises(ParseError, match="repeated or out of order") as info:
            read_arpa(text)
        assert info.value.line == 7

    def test_order_below_one_is_parse_error_with_its_line(self):
        with pytest.raises(ParseError, match="must be >= 1") as info:
            read_arpa("\\data\\\nngram 0=0\n\n\\end\\\n")
        assert info.value.line == 2

    def test_lines_end_at_universal_newlines_only(self):
        with pytest.raises(ParseError, match="must be >= 1") as info:
            read_arpa("\\data\\\x0c\nngram 0=0\n\n\\end\\\n")
        assert info.value.line == 2

    def test_unknown_token_error_names_its_line(self):
        text = self.UNIGRAMS + "\\2-grams:\n-0.4\ta b\n\n\\end\\\n"
        with pytest.raises(ParseError, match="token 'b' missing") as info:
            read_arpa(text)
        assert info.value.line == 9

    def test_gram_listed_twice_is_parse_error_with_its_line(self):
        text = "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n-0.9\ta\n\n\\end\\\n"
        with pytest.raises(ParseError, match="'a' listed twice") as info:
            read_arpa(text)
        assert info.value.line == 6

    def test_order_declared_twice_is_parse_error_with_its_line(self):
        text = "\\data\\\nngram 1=5\nngram 1=1\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n"
        with pytest.raises(ParseError, match="order 1 declared twice") as info:
            read_arpa(text)
        assert info.value.line == 3


class TestDiscountDefinition:
    @given(st.dictionaries(st.integers(0, 30), st.integers(1, 4)))
    @example({})  # n1 + 2 * n2 == 0: the 0.5 fallback
    @example({0: 3, 1: 4})  # likewise, with counts
    @example({0: 1})  # raw 1.0, clamped to the ceiling
    @example({0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2})  # raw 1/11, clamped to the floor
    def test_matches_its_definition(self, counts):
        n1 = sum(1 for c in counts.values() if c == 1)
        n2 = sum(1 for c in counts.values() if c == 2)
        raw = 0.5 if n1 + 2 * n2 == 0 else n1 / (n1 + 2 * n2)
        assert _estimate_discount(Counter(counts)) == min(0.9, max(0.1, raw))


class TestReadModelWithoutUnk:
    TEXT = (
        "\\data\\\nngram 1=2\nngram 2=1\n\n"
        "\\1-grams:\n-0.5\ta\t-0.1\n-0.3\tb\n\n"
        "\\2-grams:\n-0.2\ta b\n\n\\end\\\n"
    )

    @pytest.mark.parametrize("context", [("a",), ("b", "a"), ("zzz",), ("a", "zzz")])
    def test_unknown_word_is_data_error_with_its_message(self, context):
        # in-vocabulary and out-of-vocabulary contexts alike
        model = read_arpa(self.TEXT)
        message = "model has no unigram '<unk>' to score 'qq' with"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            log_prob(model, context, "qq")

    def test_unknown_context_token_backs_off(self):
        model = read_arpa(self.TEXT)
        assert log_prob(model, ("a",), "b") == -0.2
        assert log_prob(model, ("zzz",), "b") == -0.3


# Unigrams low enough that 10 ** (-lp / n) overflows a float.
_OVERFLOW_ARPA = "\\data\\\nngram 1=3\n\n\\1-grams:\n-400\t</s>\n-99\t<s>\n-400\ta\n\n\\end\\\n"


def test_perplexity_that_overflows_is_inf():
    result = perplexity(read_arpa(_OVERFLOW_ARPA), make_sentence("a"))
    assert (result.log10_prob_sum, result.token_count) == (-800.0, 2)
    assert result.perplexity == math.inf


def test_pooled_perplexity_that_overflows_is_inf(kn_model):
    overflowing = perplexity(read_arpa(_OVERFLOW_ARPA), make_sentence("a"))
    finite = perplexity(kn_model, make_sentence("a b"))
    assert pooled_perplexity([overflowing, overflowing]) == math.inf
    # pooled, the same log-probs average to a power that does not overflow
    lp = float_sum([overflowing.log10_prob_sum, finite.log10_prob_sum], 0.0)
    assert pooled_perplexity([overflowing, finite]) == 10.0 ** (-lp / 5) < math.inf
