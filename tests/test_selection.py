import dataclasses
import math
import random
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from corpusforge import selection
from corpusforge.errors import DataError
from corpusforge.selection import (
    SelectionConfig,
    build_profile,
    ced_score,
    combine_and_resample,
    combine_ranks,
    edit_score,
    score_table_tsv,
    tfidf_score,
    word_edit_distance,
)
from corpusforge.text_pipeline import Sentence, edit_masks
from conftest import make_corpus, make_sentence, random_corpus
from oracles import select_for_lm, textbook_edit_distance

LN2P1 = math.log(2) + 1.0  # idf of a term in one of two sentences


@pytest.fixture
def two_sentence_profile():
    return build_profile(make_corpus(["a b", "a c"]), make_corpus(["q r", "s t"]), lm_order=2)


class TestBuildProfile:
    def test_single_sentence_centroid_support(self):
        profile = build_profile(make_corpus(["a b"]), make_corpus(["x"]), lm_order=2)
        assert set(profile.tfidf_centroid) == {"a", "b"}
        assert all(w > 0 for w in profile.tfidf_centroid.values())

    def test_centroid_matches_hand_computation(self, two_sentence_profile):
        # df: a=2 b=1 c=1 over N=2 -> idf(a)=1, idf(b)=idf(c)=ln2+1
        # summed vector {a: 2, b: ln2+1, c: ln2+1}, then L2-normalized
        norm = math.sqrt(4.0 + 2.0 * LN2P1 ** 2)
        expected = {"a": 2.0 / norm, "b": LN2P1 / norm, "c": LN2P1 / norm}
        assert set(two_sentence_profile.tfidf_centroid) == set(expected)
        for term, w in expected.items():
            assert two_sentence_profile.tfidf_centroid[term] == pytest.approx(w, abs=1e-12)

    def test_same_corpus_both_sides_gives_zero_ced(self):
        corpus = make_corpus(["a b c", "c b a", "b b"])
        profile = build_profile(corpus, corpus, lm_order=2)
        for sent in corpus:
            assert ced_score(profile, sent) == pytest.approx(0.0, abs=1e-12)

    def test_general_lm_sample_has_comparable_token_count(self):
        rng = random.Random(0)
        in_domain = random_corpus(rng, 10, "abc", max_len=4)
        general = random_corpus(rng, 200, "xyz", max_len=4)
        profile = build_profile(in_domain, general, lm_order=2)
        # the sampled general LM must not have seen the whole general corpus
        general_types = {t for s in general for t in s.tokens}
        assert len(profile.gen_lm.vocab - {"<s>", "</s>", "<unk>"}) <= len(general_types)

    def test_edit_reference_sampling_is_seeded(self):
        rng = random.Random(1)
        in_domain = random_corpus(rng, 50, "abcdef", max_len=5)
        general = random_corpus(rng, 10, "xyz", max_len=4)
        p1 = build_profile(in_domain, general, lm_order=2, edit_sample_size=10, seed=7)
        p2 = build_profile(in_domain, general, lm_order=2, edit_sample_size=10, seed=7)
        assert p1.edit_reference == p2.edit_reference
        assert len(p1.edit_reference) == 10

    def test_empty_corpora_rejected(self):
        with pytest.raises(DataError):
            build_profile([], make_corpus(["x"]), lm_order=2)
        with pytest.raises(DataError):
            build_profile(make_corpus(["x"]), [], lm_order=2)


class TestTfidfScore:
    def test_identical_to_single_in_domain_sentence(self):
        profile = build_profile(make_corpus(["a b"]), make_corpus(["x"]), lm_order=2)
        assert tfidf_score(profile, make_sentence("a b")) == pytest.approx(1.0)

    def test_no_shared_terms(self, two_sentence_profile):
        assert tfidf_score(two_sentence_profile, make_sentence("z z y")) == 0.0

    def test_hand_computed_cosine(self, two_sentence_profile):
        # candidate "a b": vector {a: 1, b: ln2+1}
        num = 2.0 + LN2P1 ** 2
        den = math.sqrt(1.0 + LN2P1 ** 2) * math.sqrt(4.0 + 2.0 * LN2P1 ** 2)
        assert tfidf_score(two_sentence_profile, make_sentence("a b")) == pytest.approx(
            num / den, abs=1e-12
        )

    def test_range(self, two_sentence_profile):
        rng = random.Random(3)
        for _ in range(100):
            sent = make_sentence(
                " ".join(rng.choice("abcxyz") for _ in range(rng.randint(1, 6)))
            )
            assert 0.0 <= tfidf_score(two_sentence_profile, sent) <= 1.0 + 1e-12

    def test_scaling_weights_leaves_scores_ratio_free(self, two_sentence_profile):
        # cosine is scale-invariant: scaling idf and centroid must not
        # change any candidate's score
        before = [
            tfidf_score(two_sentence_profile, make_sentence(text))
            for text in ["a b", "a c", "b c", "a", "c c"]
        ]
        scaled = dataclasses.replace(
            two_sentence_profile,
            idf={t: 3.7 * w for t, w in two_sentence_profile.idf.items()},
            tfidf_centroid={t: 3.7 * w for t, w in two_sentence_profile.tfidf_centroid.items()},
        )
        after = [
            tfidf_score(scaled, make_sentence(text))
            for text in ["a b", "a c", "b c", "a", "c c"]
        ]
        assert after == pytest.approx(before, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_from_scratch_cosine(self, seed):
        rng = random.Random(seed)
        vocab = ["a", "b", "c", "d", "e", "f", "g"]
        profile = build_profile(
            random_corpus(rng, 30, vocab[:5]), random_corpus(rng, 30, vocab), lm_order=2
        )
        candidates = random_corpus(rng, 40, vocab + ["z"]) + [make_sentence("")]
        for cand in candidates:
            assert tfidf_score(profile, cand) == _from_scratch_tfidf(profile, cand)
        profile = dataclasses.replace(
            profile, tfidf_centroid={t: 0.5 * w for t, w in profile.tfidf_centroid.items()}
        )
        for cand in candidates:
            assert tfidf_score(profile, cand) == _from_scratch_tfidf(profile, cand)


def _from_scratch_tfidf(profile, candidate):
    """The cosine with both norms computed on the spot, adding left to right
    as the package does (``sum()`` compensates floats from Python 3.12)."""
    vec = {}
    for tok in candidate.tokens:
        if tok in profile.idf:
            vec[tok] = vec.get(tok, 0.0) + profile.idf[tok]
    norm = math.sqrt(reduce(add, (w * w for w in vec.values()), 0.0))
    centroid_norm = math.sqrt(reduce(add, (w * w for w in profile.tfidf_centroid.values()), 0.0))
    if norm == 0.0 or centroid_norm == 0.0:
        return 0.0
    dot = reduce(add, (w * profile.tfidf_centroid.get(t, 0.0) for t, w in vec.items()), 0.0)
    return dot / (norm * centroid_norm)


class TestCedScore:
    def test_identical_models_give_exact_zero(self, kn_corpus):
        profile = build_profile(kn_corpus, kn_corpus, lm_order=2)
        assert ced_score(profile, make_sentence("a b")) == 0.0

    def test_in_domain_text_scores_negative(self):
        rng = random.Random(4)
        in_domain = random_corpus(rng, 15, "abcd", max_len=5)
        general = random_corpus(rng, 15, "wxyz", max_len=5)
        profile = build_profile(in_domain, general, lm_order=2)
        assert ced_score(profile, in_domain[0]) < 0

    def test_hand_computed_difference_from_lm_fixtures(self, kn_corpus):
        profile = build_profile(kn_corpus, make_corpus(["a b"]), lm_order=2)
        # H under the three-sentence fixture model (hand oracle from test_lm)
        h_in = -(
            math.log10(204 / 225) + math.log10(133 / 225) + math.log10(67 / 75)
        ) / 3
        # single-sentence model: every transition has probability
        # 0.1 + 0.9 * (1/30 + 9/50) = 0.292
        h_gen = -math.log10(0.292)
        got = ced_score(profile, make_sentence("a b"))
        assert got == pytest.approx(h_in - h_gen, abs=1e-9)

    def test_finite_for_all_inputs(self, two_sentence_profile):
        for text in ["", "zzz qqq www", "a a a a a a a a", "!!!"]:
            assert math.isfinite(ced_score(two_sentence_profile, make_sentence(text)))


_BASE_PROFILE = build_profile(make_corpus(["a"]), make_corpus(["q"]), lm_order=1)


def _edit_profile(refs) -> selection.DomainProfile:
    return dataclasses.replace(_BASE_PROFILE, edit_reference=list(refs))


def _sentence(tokens) -> Sentence:
    return Sentence(raw=" ".join(tokens), tokens=tuple(tokens))


def _unpruned(candidate, refs) -> float:
    """The best similarity over every reference, with no bound or order."""
    best = 0.0
    for ref in refs:
        denom = max(len(candidate), len(ref))
        sim = 1.0 if denom == 0 else 1.0 - textbook_edit_distance(candidate, ref) / denom
        best = max(best, sim)
    return best


@st.composite
def _candidate_and_references(draw):
    words = st.lists(st.sampled_from("abcd"), max_size=12).map(tuple)
    # "x" and "y" never occur in a reference
    candidate = draw(st.one_of(words, st.lists(st.sampled_from("xy"), max_size=6).map(tuple)))
    refs = draw(st.lists(words, max_size=8))
    if refs and draw(st.booleans()):
        refs.append(refs[draw(st.integers(0, len(refs) - 1))])
    if draw(st.booleans()):
        refs.insert(draw(st.integers(0, len(refs))), candidate)
    return candidate, refs


class TestEditScore:
    def test_exact_reference_match(self, two_sentence_profile):
        assert edit_score(two_sentence_profile, make_sentence("a b")) == 1.0

    def test_single_substitution(self):
        profile = build_profile(make_corpus(["a x c"]), make_corpus(["q"]), lm_order=1)
        got = edit_score(profile, make_sentence("a b c"))
        assert got == pytest.approx(1 - 1 / 3, abs=1e-12)

    def test_no_overlap_equal_length(self):
        profile = build_profile(make_corpus(["a b c"]), make_corpus(["q"]), lm_order=1)
        assert edit_score(profile, make_sentence("x y z")) == 0.0

    def test_empty_candidate_empty_reference(self):
        profile = build_profile(make_corpus(["", "a"]), make_corpus(["q"]), lm_order=1)
        assert edit_score(profile, make_sentence("")) == 1.0

    def test_pruned_references_never_reach_the_distance(self, monkeypatch):
        # one identical reference is visited first and scores 1.0; no other
        # reference's bound can beat that, so the distance runs once
        calls = []

        def counted(a, b, b_masks=None):
            calls.append((a, b))
            return textbook_edit_distance(a, b)

        monkeypatch.setattr(selection, "word_edit_distance", counted)
        refs = [("x", "y", "z")] * 10 + [("a", "b", "c")] + [("a", "b")] * 10
        got = edit_score(_edit_profile(refs), _sentence(("a", "b", "c")))
        assert got == 1.0
        assert calls == [(("a", "b", "c"), ("a", "b", "c"))]

    def test_reassigned_references_are_the_ones_scored(self, two_sentence_profile):
        two_sentence_profile = dataclasses.replace(
            two_sentence_profile, edit_reference=[("x", "y")]
        )
        assert edit_score(two_sentence_profile, make_sentence("x y")) == 1.0
        assert edit_score(two_sentence_profile, make_sentence("a c")) == 0.0

    def test_assigning_a_field_is_refused(self, two_sentence_profile):
        # derived fields could go stale if a field they come from changed
        with pytest.raises(dataclasses.FrozenInstanceError):
            two_sentence_profile.edit_reference = [("x", "y")]
        with pytest.raises(dataclasses.FrozenInstanceError):
            two_sentence_profile.tfidf_centroid = {}

    @given(_candidate_and_references())
    @example(((), []))
    @example((("a",), []))
    @example(((), [()]))
    @example(((), [("a", "b"), ()]))
    @example(((), [("a",), ("b", "c")]))
    @example((("x", "y"), [("a", "b", "c"), ("a",)]))
    @example((("a", "b"), [("a", "b"), ("a", "b"), ("b", "a")]))
    @settings(max_examples=400, deadline=None)
    def test_equals_unpruned_maximum(self, case):
        candidate, refs = case
        assert edit_score(_edit_profile(refs), _sentence(candidate)) == _unpruned(
            candidate, refs
        )

    def test_word_edit_distance_examples(self):
        for a, b, expected in [
            (("a", "b", "c"), ("a", "x", "c"), 1),
            ((), ("a",), 1),
            (("a", "b"), ("a", "b"), 0),
            (("a", "b", "c"), ("b", "c"), 1),
        ]:
            assert word_edit_distance(a, b, edit_masks(b)) == expected


HAND_SCORES = [
    (0.9, -0.5, 0.80),
    (0.5, 0.0, 0.50),
    (0.7, -0.2, 0.10),
    (0.1, 0.4, 0.60),
    (0.3, 0.2, 0.05),
]
# per-criterion ranks (tfidf desc, ced asc, edit desc):
#   0: (1,1,1) mean 1.0 ; 1: (3,3,3) mean 3.0 ; 2: (2,2,4) mean 8/3
#   3: (5,5,2) mean 4.0 ; 4: (4,4,5) mean 13/3
HAND_ORDER = [0, 2, 1, 3, 4]


class TestCombineRanks:
    def test_five_candidate_hand_oracle(self):
        mean, order = combine_ranks(HAND_SCORES)
        assert order == HAND_ORDER
        assert mean[0] == pytest.approx(1.0)
        assert mean[2] == pytest.approx(8 / 3)
        assert mean[1] == pytest.approx(3.0)
        assert mean[3] == pytest.approx(4.0)
        assert mean[4] == pytest.approx(13 / 3)

    def test_weights_change_the_ordering(self):
        # with all weight on edit similarity, candidate 3 overtakes 1 and 2
        _, order = combine_ranks(HAND_SCORES, weights=(0.0, 0.0, 1.0))
        assert order == [0, 3, 1, 2, 4]

    def test_ties_share_average_rank(self):
        mean, order = combine_ranks([(0.5, 0.0, 0.5), (0.5, 0.0, 0.5)])
        assert mean[0] == mean[1] == pytest.approx(1.5)
        assert order == [0, 1]

    def test_dominated_candidate_never_changes_selection_prefix(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(4, 9)
            scores = [
                (rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0))
                for _ in range(n)
            ]
            n_keep = math.ceil(0.2 * n)
            if math.ceil(0.2 * (n + 1)) != n_keep:
                continue
            _, order = combine_ranks(scores)
            dominated = (0.0, 2.0, 0.0)  # worse than everything on all criteria
            _, order2 = combine_ranks(scores + [dominated])
            assert order2[:n_keep] == order[:n_keep]


class TestCombineAndResample:
    @pytest.fixture
    def profile(self):
        rng = random.Random(21)
        return build_profile(
            random_corpus(rng, 12, "abcdef", max_len=5),
            random_corpus(rng, 12, "uvwxyz", max_len=5),
            lm_order=2,
        )

    def test_exact_count_ten_candidates(self, profile):
        candidates = make_corpus([f"a b {k}" for k in range(10)])
        selected, table = combine_and_resample(
            candidates, profile, SelectionConfig(acceptance_rate=0.2)
        )
        assert len(selected) == 2
        assert sum(row.selected for row in table) == 2

    @given(
        n=st.integers(min_value=1, max_value=60),
        rate=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_count_property(self, n, rate):
        rng = random.Random(n)
        profile = build_profile(
            make_corpus(["a b", "b c"]), make_corpus(["x y"]), lm_order=1
        )
        candidates = random_corpus(rng, n, "abcx", max_len=4)
        selected, table = combine_and_resample(
            candidates, profile, SelectionConfig(acceptance_rate=rate)
        )
        assert len(selected) == math.ceil(rate * n)
        # the flags mark exactly the returned items, which come in rank order
        flagged = sorted((row.combined_rank, k) for k, row in enumerate(table) if row.selected)
        assert len(flagged) == len(selected)
        assert all(candidates[k] is item for (_, k), item in zip(flagged, selected))
        assert sorted(row.combined_rank for row in table) == list(range(1, n + 1))

    def test_identical_candidates_keep_input_order(self, profile):
        candidates = make_corpus(["a b"] * 10)
        _, table = combine_and_resample(
            candidates, profile, SelectionConfig(acceptance_rate=0.2)
        )
        assert [row.selected for row in table] == [True, True] + [False] * 8
        assert [row.combined_rank for row in table] == list(range(1, 11))

    def test_permutation_invariant_up_to_ties(self, profile):
        # Mean ranks are permutation-invariant per candidate; candidates tied
        # on mean rank may swap (input order is the documented tie-break), so
        # the selected slice is compared as a multiset of mean ranks.
        rng = random.Random(33)
        candidates = random_corpus(rng, 20, "abcdefuv", max_len=6)
        perm = list(range(20))
        rng.shuffle(perm)
        triples = [
            (tfidf_score(profile, s), ced_score(profile, s), edit_score(profile, s))
            for s in candidates
        ]
        mean_a, order_a = combine_ranks(triples)
        mean_b, order_b = combine_ranks([triples[k] for k in perm])
        for pos, orig in enumerate(perm):
            assert mean_b[pos] == pytest.approx(mean_a[orig], abs=1e-12)
        n_keep = math.ceil(0.2 * len(candidates))
        assert sorted(mean_a[k] for k in order_a[:n_keep]) == pytest.approx(
            sorted(mean_b[k] for k in order_b[:n_keep]), abs=1e-12
        )

    def test_pair_candidates_target_side(self, profile):
        pairs = [
            (make_sentence("zz qq"), make_sentence("a b c")),
            (make_sentence("a b c"), make_sentence("zz qq")),
        ]
        selected, table = combine_and_resample(
            pairs, profile, SelectionConfig(acceptance_rate=0.5, pair_mode="target-side")
        )
        # the pair whose TARGET side is in-domain must win
        assert selected[0][1].raw == "a b c"
        assert table[0].selected

    def test_pair_candidates_source_side(self, profile):
        pairs = [
            (make_sentence("zz qq"), make_sentence("a b c")),
            (make_sentence("a b c"), make_sentence("zz qq")),
        ]
        selected, _ = combine_and_resample(
            pairs, profile, SelectionConfig(acceptance_rate=0.5, pair_mode="source-side")
        )
        assert selected[0][0].raw == "a b c"

    def test_pair_candidates_both_sides_averaged(self, profile):
        rng = random.Random(34)
        sources = random_corpus(rng, 6, "abcxyz", max_len=5)
        targets = random_corpus(rng, 6, "defuvw", max_len=5)
        pairs = list(zip(sources, targets))
        _, table = combine_and_resample(
            pairs, profile, SelectionConfig(pair_mode="both-sides-averaged")
        )
        assert len(table) == len(pairs)
        for (src, tgt), row in zip(pairs, table):
            src_triple, tgt_triple = [
                (tfidf_score(profile, s), ced_score(profile, s), edit_score(profile, s))
                for s in (src, tgt)
            ]
            assert (row.tfidf_sim, row.ced, row.edit_sim) == tuple(
                (a + b) / 2 for a, b in zip(src_triple, tgt_triple)
            )

    def test_table_rows_are_frozen(self, profile):
        _, table = combine_and_resample(make_corpus(["a b", "zz"]), profile, SelectionConfig())
        with pytest.raises(dataclasses.FrozenInstanceError):
            table[0].selected = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            table[1].combined_rank = 1

    def test_dominated_candidate_full_pipeline(self, profile):
        rng = random.Random(55)
        candidates = random_corpus(rng, 9, "abcdef", max_len=5)
        config = SelectionConfig(acceptance_rate=0.2)
        selected_before, _ = combine_and_resample(candidates, profile, config)
        gibberish = make_sentence("qq ww ee rr tt yy uu ii oo pp qq ww ee rr")
        selected_after, _ = combine_and_resample(candidates + [gibberish], profile, config)
        assert [s.tokens for s in selected_before] == [s.tokens for s in selected_after]

    def test_empty_candidates_rejected(self, profile):
        with pytest.raises(DataError):
            combine_and_resample([], profile, SelectionConfig())

    def test_score_table_tsv_shape(self, profile):
        candidates = make_corpus(["a b", "zz"])
        _, table = combine_and_resample(candidates, profile, SelectionConfig(acceptance_rate=0.5))
        lines = score_table_tsv(table).splitlines()
        assert lines[0] == "index\ttfidf\tced\tedit\tcombined_rank\tselected"
        assert len(lines) == 3
        assert lines[1].split("\t")[0] == "0"


def planted_fixture(rng):
    """General corpus of off-domain noise with in-domain sentences planted."""
    domain_vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    noise_vocab = ["kron", "plim", "vass", "ostr", "merk", "dulb", "henn", "gorr"]

    def domain_sentence():
        return " ".join(rng.choice(domain_vocab) for _ in range(rng.randint(3, 6)))

    def noise_sentence():
        return " ".join(rng.choice(noise_vocab) for _ in range(rng.randint(3, 6)))

    in_domain = make_corpus([domain_sentence() for _ in range(40)])
    planted = [domain_sentence() for _ in range(20)]
    noise = [noise_sentence() for _ in range(80)]
    general_lines = noise + planted
    rng.shuffle(general_lines)
    planted_set = set(planted)
    return in_domain, make_corpus(general_lines), planted_set


class TestSelectForLm:
    def test_rate_one_returns_everything(self):
        corpus = make_corpus(["a b", "b c", "c a"])
        profile = build_profile(corpus, corpus, lm_order=2)
        out = select_for_lm(corpus, profile, SelectionConfig(acceptance_rate=1.0))
        assert sorted(s.tokens for s in out) == sorted(s.tokens for s in corpus)

    def test_rate_point_two_over_hundred(self):
        rng = random.Random(77)
        monolingual = random_corpus(rng, 100, "abcdef", max_len=5)
        profile = build_profile(
            random_corpus(rng, 10, "abc", max_len=4),
            monolingual,
            lm_order=2,
        )
        out = select_for_lm(monolingual, profile, SelectionConfig(acceptance_rate=0.2))
        assert len(out) == 20

    def test_planted_in_domain_recovery(self):
        rng = random.Random(2024)
        in_domain, general, planted = planted_fixture(rng)
        profile = build_profile(in_domain, general, lm_order=2, seed=0)
        rate = 20 / len(general)
        out = select_for_lm(general, profile, SelectionConfig(acceptance_rate=rate))
        recovered = sum(1 for s in out if s.raw in planted)
        assert len(out) == 20
        assert recovered >= 18  # >= 90 percent


class TestSelectionConfig:
    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            SelectionConfig(acceptance_rate=0.0)
        with pytest.raises(ValueError):
            SelectionConfig(acceptance_rate=1.2)

    def test_bad_pair_mode_rejected(self):
        with pytest.raises(ValueError):
            SelectionConfig(pair_mode="sideways")

    def test_weights_need_three_numbers(self):
        with pytest.raises(ValueError, match="exactly three numbers, got 2"):
            SelectionConfig(weights=(1.0, 2.0))
