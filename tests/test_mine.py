import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from corpusforge import mine
from corpusforge.errors import DataError
from corpusforge.mine import (
    AlignmentStep,
    DocumentPair,
    MiningConfig,
    _CoverageIndex,
    _score_matrix,
    as_parallel_corpus,
    mine_collection,
    mine_document_pair,
    nw_align_matrix,
    tune,
)
from corpusforge.corpus_io import mined_tsv
from corpusforge.text_pipeline import Document, Sentence
from corpusforge.word_align import TranslationLexicon
from conftest import make_sentence
from oracles import brute_force_nw_score, gap_count, nw_align, random_score_matrix, score_pair


def identity_lexicon(words):
    return TranslationLexicon(t={(w, w): 1.0 for w in words})


def make_document(doc_id, lines):
    return Document(id=doc_id, sentences=[Sentence.from_raw(x) for x in lines])


# Vocabulary-mapped toy languages for synthetic mining fixtures.
def toy_lexicon(size=30):
    return TranslationLexicon(t={(f"s{i}", f"t{i}"): 1.0 for i in range(size)})


def synthetic_doc_pairs(rng, count, sentences_per_doc=12, tokens_per_sentence=8):
    """Comparable document pairs: a monotone subset of source sentences is
    planted (translated) among unrelated target sentences."""
    pairs = []
    for d in range(count):
        source = []
        for _ in range(sentences_per_doc):
            toks = [f"s{rng.randrange(30)}" for _ in range(tokens_per_sentence)]
            source.append(" ".join(toks))
        target = []
        for sent in source:
            while rng.random() < 0.3:
                target.append(
                    " ".join(f"z{rng.randrange(30)}" for _ in range(tokens_per_sentence))
                )
            if rng.random() < 0.6:
                target.append(" ".join("t" + tok[1:] for tok in sent.split()))
        if not target:
            target.append("z0 z1")
        pairs.append(
            DocumentPair(
                source=make_document(f"src{d}", source),
                target=make_document(f"tgt{d}", target),
            )
        )
    return pairs


class TestScorePair:
    def test_identity_full_coverage(self):
        lex = identity_lexicon(["a", "b", "c"])
        assert score_pair(lex, make_sentence("a b c"), make_sentence("a b c")) == 1.0

    def test_zero_coverage(self):
        lex = TranslationLexicon(t={})
        assert score_pair(lex, make_sentence("a b"), make_sentence("x y")) == 0.0

    def test_hand_computed_formula(self):
        # coverage (1/2, 1/1) -> harmonic 2/3, ratio 1/2 -> 1/3
        lex = TranslationLexicon(t={("a", "x"): 1.0})
        got = score_pair(lex, make_sentence("a b"), make_sentence("x"))
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_sentence_scores_zero(self):
        lex = identity_lexicon(["a"])
        assert score_pair(lex, make_sentence(""), make_sentence("a")) == 0.0
        assert score_pair(lex, make_sentence("a"), make_sentence("")) == 0.0

    def test_literal_token_match_counts_as_covered(self):
        lex = TranslationLexicon(t={})
        got = score_pair(lex, make_sentence("1990 !"), make_sentence("1990 !"))
        assert got == 1.0

    def test_min_prob_floor_excludes_weak_entries(self):
        lex = TranslationLexicon(t={("a", "x"): 0.05})
        assert score_pair(lex, make_sentence("a"), make_sentence("x"), min_prob=0.1) == 0.0
        assert score_pair(lex, make_sentence("a"), make_sentence("x"), min_prob=0.01) == 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_identity_lexicon_symmetry(self, seed):
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(6)]
        lex = identity_lexicon(vocab)
        s = make_sentence(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6))))
        t = make_sentence(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6))))
        assert score_pair(lex, s, t) == pytest.approx(score_pair(lex, t, s), abs=1e-15)

    def test_range_bounded(self):
        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(5)]
        lex = identity_lexicon(vocab)
        for _ in range(50):
            s = make_sentence(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 7))))
            t = make_sentence(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 7))))
            assert 0.0 <= score_pair(lex, s, t) <= 1.0


# Lexicon values and min_prob floors that stress coverage: probabilities
# below, at and above the floors, and values read_lexicon accepts but a
# trained lexicon never holds (negative, nan, inf). With min_prob <= 0 a
# pair missing from the lexicon (probability 0.0) covers.
EDGE_PROBS = (0.0, 1e-12, 0.1, 1.0, -0.5, math.nan, math.inf)
EDGE_MIN_PROBS = (-1.0, 0.0, 1e-9, 0.1, 1.0, 2.0, math.nan, math.inf, -math.inf)
# Shared by both sides, so tokens also match literally.
EDGE_VOCAB = ("a", "b", "c", "x", "y", "7")

edge_lexicons = st.dictionaries(
    st.tuples(st.sampled_from(EDGE_VOCAB), st.sampled_from(EDGE_VOCAB)),
    st.sampled_from(EDGE_PROBS),
    max_size=24,
).map(lambda t: TranslationLexicon(t=t))
edge_documents = st.lists(
    st.lists(st.sampled_from(EDGE_VOCAB), max_size=6).map(
        lambda toks: Sentence(raw=" ".join(toks), tokens=tuple(toks))
    ),
    max_size=4,
)


def edge_case_collection(seed, count=6):
    """Document pairs over EDGE_VOCAB (some sentences empty) and a lexicon
    holding every EDGE_PROBS value."""
    rng = random.Random(seed)

    def sentence():
        toks = [rng.choice(EDGE_VOCAB) for _ in range(rng.randint(0, 6))]
        return Sentence(raw=" ".join(toks), tokens=tuple(toks))

    pairs = [
        DocumentPair(
            source=Document(f"s{d}", [sentence() for _ in range(rng.randint(1, 6))]),
            target=Document(f"t{d}", [sentence() for _ in range(rng.randint(1, 6))]),
        )
        for d in range(count)
    ]
    lexicon = TranslationLexicon(
        t={
            (e, f): rng.choice(EDGE_PROBS)
            for e in EDGE_VOCAB
            for f in EDGE_VOCAB
            if rng.random() < 0.5
        }
    )
    return pairs, lexicon


class TestCoverageIndex:
    @settings(max_examples=300, deadline=None)
    @given(
        lexicon=edge_lexicons,
        source=edge_documents,
        target=edge_documents,
        min_prob=st.sampled_from(EDGE_MIN_PROBS),
    )
    # min_prob <= 0: a missing pair covers, a listed pair that fails does
    # not, and a literal match covers even when its own pair fails.
    @example(TranslationLexicon(t={}), [make_sentence("a")], [make_sentence("x")], 0.0)
    @example(
        TranslationLexicon(t={("a", "x"): -0.5}),
        [make_sentence("a")],
        [make_sentence("x")],
        0.0,
    )
    @example(
        TranslationLexicon(t={("a", "a"): math.nan}),
        [make_sentence("a b")],
        [make_sentence("a")],
        0.0,
    )
    def test_indexed_matrix_equals_score_pair(self, lexicon, source, target, min_prob):
        pair = DocumentPair(source=Document("s", source), target=Document("t", target))
        got = _score_matrix(pair, _CoverageIndex(lexicon, min_prob, [pair]))
        expected = [[score_pair(lexicon, s, t, min_prob) for t in target] for s in source]
        assert got == expected

    @pytest.mark.parametrize("min_prob", EDGE_MIN_PROBS)
    def test_collection_matches_score_pair_for_any_worker_count(self, min_prob):
        pairs, lexicon = edge_case_collection(seed=17)
        config = MiningConfig(threshold=0.3, gap_penalty=-0.2, min_prob=min_prob)
        scorer = lambda s, t: score_pair(lexicon, s, t, min_prob)
        expected = []
        for pair in pairs:
            sources, targets = pair.source.sentences, pair.target.sentences
            path = nw_align(sources, targets, scorer, config.gap_penalty)
            for i, j in path.matches():
                similarity = scorer(sources[i], targets[j])
                if similarity >= config.threshold:
                    expected.append((sources[i], targets[j], similarity))
        assert expected
        outputs = []
        for workers in (1, 2):
            config.workers = workers
            mined, _ = mine_collection(pairs, lexicon, config)
            assert [(mp.source, mp.target, mp.similarity) for mp in mined] == expected
            outputs.append(mined_tsv(mined))
        assert outputs[0] == outputs[1]


class UnpicklableLexicon(TranslationLexicon):
    def __reduce__(self):
        raise TypeError("the lexicon must not be sent to a worker process")


class TestMiningPool:
    def test_lexicon_never_reaches_a_worker(self):
        pairs = synthetic_doc_pairs(random.Random(31), 12)
        lexicon = UnpicklableLexicon(t=toy_lexicon().t)
        outputs = []
        for workers in (1, 2):
            config = MiningConfig(threshold=0.5, min_prob=0.1, workers=workers)
            mined, _ = mine_collection(pairs, lexicon, config)
            assert mined
            outputs.append(mined_tsv(mined))
        assert outputs[0] == outputs[1]

    def test_mined_pairs_hold_the_callers_sentences(self):
        pairs = synthetic_doc_pairs(random.Random(32), 12)
        config = MiningConfig(threshold=0.5, workers=2)
        mined, _ = mine_collection(pairs, toy_lexicon(), config)
        assert mined
        by_doc = {pair.source.id: pair for pair in pairs}
        for mp in mined:
            pair = by_doc[mp.source_doc]
            assert any(mp.source is s for s in pair.source.sentences)
            assert any(mp.target is t for t in pair.target.sentences)


    def test_pool_is_no_larger_than_the_pair_count(self, monkeypatch):
        requested = []

        class InProcessPool:
            """Runs the pool's initializer and tasks in this process."""

            def __init__(self, max_workers, initializer, initargs):
                requested.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(mine, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(mine, "_worker_inputs", None)
        pairs = synthetic_doc_pairs(random.Random(33), 3)
        serial, _ = mine_collection(pairs, toy_lexicon(), MiningConfig(threshold=0.5))
        assert not requested
        pooled, _ = mine_collection(pairs, toy_lexicon(), MiningConfig(threshold=0.5, workers=1000))
        assert requested == [3]
        assert serial and mined_tsv(pooled) == mined_tsv(serial)

class TestNwAlign:
    def test_identity_diagonal(self):
        sents = [make_sentence(x) for x in ["a", "b", "c"]]
        scorer = lambda s, t: 1.0 if s.tokens == t.tokens else 0.0
        path = nw_align(sents, sents, scorer, gap_penalty=-0.5)
        assert path.score == pytest.approx(3.0)
        assert path.steps == [
            AlignmentStep.match(0, 0),
            AlignmentStep.match(1, 1),
            AlignmentStep.match(2, 2),
        ]

    def test_empty_source_all_gap_target(self):
        target = [make_sentence("x"), make_sentence("y")]
        path = nw_align([], target, lambda s, t: 0.0, gap_penalty=-0.3)
        assert path.score == pytest.approx(-0.6)
        assert path.steps == [AlignmentStep.gap_target(0), AlignmentStep.gap_target(1)]

    def test_both_empty(self):
        path = nw_align([], [], lambda s, t: 0.0, gap_penalty=-0.3)
        assert path.steps == []
        assert path.score == 0.0

    def test_tie_prefers_match(self):
        path = nw_align_matrix([[0.0]], gap_penalty=0.0)
        assert path.steps == [AlignmentStep.match(0, 0)]

    @pytest.mark.parametrize("seed", range(40))
    def test_optimal_vs_brute_force(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        scores = random_score_matrix(rng, n, m)
        gap = -rng.uniform(0.0, 1.0)
        path = nw_align_matrix(scores, gap, shape=(n, m))
        expected = brute_force_nw_score(scores, gap, n, m)
        assert path.score == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_path_is_valid_monotone_traversal(self, seed):
        rng = random.Random(1000 + seed)
        n, m = rng.randint(0, 7), rng.randint(0, 7)
        path = nw_align_matrix(random_score_matrix(rng, n, m), -0.2, shape=(n, m))
        i = j = 0
        for step in path.steps:
            if step.kind == "match":
                assert (step.source_index, step.target_index) == (i, j)
                i += 1
                j += 1
            elif step.kind == "gap_source":
                assert step.source_index == i
                i += 1
            else:
                assert step.target_index == j
                j += 1
        assert (i, j) == (n, m)

    @pytest.mark.parametrize("seed", range(15))
    def test_more_negative_penalty_never_adds_gaps(self, seed):
        rng = random.Random(2000 + seed)
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        scores = random_score_matrix(rng, n, m, lo=0.0, hi=1.0)
        penalties = [-0.05, -0.2, -0.5, -1.0]
        gap_counts = [
            gap_count(nw_align_matrix(scores, g, shape=(n, m))) for g in penalties
        ]
        for lighter, heavier in zip(gap_counts, gap_counts[1:]):
            assert heavier <= lighter


class TestMineDocumentPair:
    def test_identical_documents(self):
        lex = identity_lexicon(["a", "b"])
        doc = make_document("d", ["a b", "b a"])
        pair = DocumentPair(source=doc, target=make_document("e", ["a b", "b a"]))
        mined = mine_document_pair(pair, lex, MiningConfig(threshold=0.5))
        assert len(mined) == 2
        assert all(mp.similarity == 1.0 for mp in mined)
        assert mined[0].source_doc == "d"
        assert mined[0].target_doc == "e"

    def test_threshold_beyond_max_mines_nothing(self):
        lex = identity_lexicon(["a"])
        doc = make_document("d", ["a", "a"])
        pair = DocumentPair(source=doc, target=doc)
        mined = mine_document_pair(pair, lex, MiningConfig(threshold=1.01))
        assert mined == []

    def test_planted_pair_is_isolated(self):
        lex = TranslationLexicon(
            t={("k1", "x1"): 1.0, ("k2", "x2"): 1.0, ("k3", "x3"): 1.0}
        )
        pair = DocumentPair(
            source=make_document("s", ["k1 k2 k3", "m n o"]),
            target=make_document("t", ["q r u", "x1 x2 x3"]),
        )
        mined = mine_document_pair(pair, lex, MiningConfig(threshold=0.5, gap_penalty=-0.1))
        assert len(mined) == 1
        assert mined[0].source.raw == "k1 k2 k3"
        assert mined[0].target.raw == "x1 x2 x3"
        assert mined[0].similarity == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_raising_threshold_never_mines_more(self, seed):
        rng = random.Random(seed)
        lex = toy_lexicon()
        pair = synthetic_doc_pairs(rng, 1)[0]
        thresholds = [0.1, 0.3, 0.5, 0.7, 0.9, 1.01]
        yields = [
            len(mine_document_pair(pair, lex, MiningConfig(threshold=t)))
            for t in thresholds
        ]
        for lower, higher in zip(yields, yields[1:]):
            assert higher <= lower


class TestMineCollection:
    def test_empty_collection(self):
        mined, report = mine_collection([], toy_lexicon(), MiningConfig())
        assert mined == []
        assert report.document_pairs == 0
        assert report.pairs_emitted == 0

    def test_worker_counts_give_identical_output(self):
        rng = random.Random(99)
        pairs = synthetic_doc_pairs(rng, 30)
        lex = toy_lexicon()
        outputs = []
        for workers in (1, 2, 4):
            config = MiningConfig(threshold=0.5, workers=workers)
            mined, report = mine_collection(pairs, lex, config)
            outputs.append(mined_tsv(mined))
            assert report.document_pairs == 30
            assert len(report.per_pair_yield) == 30
        assert outputs[0] == outputs[1] == outputs[2]

    def test_report_yields_sum_to_emitted(self):
        rng = random.Random(5)
        pairs = synthetic_doc_pairs(rng, 10)
        mined, report = mine_collection(pairs, toy_lexicon(), MiningConfig(threshold=0.4))
        assert sum(n for _, _, n in report.per_pair_yield) == report.pairs_emitted
        assert report.pairs_emitted == len(mined)

    def test_as_parallel_corpus(self):
        rng = random.Random(6)
        pairs = synthetic_doc_pairs(rng, 3)
        mined, _ = mine_collection(pairs, toy_lexicon(), MiningConfig(threshold=0.4))
        corpus = as_parallel_corpus(mined)
        assert len(corpus.pairs) == len(mined)

    def test_emitted_similarities_respect_threshold(self):
        rng = random.Random(11)
        pairs = synthetic_doc_pairs(rng, 6)
        config = MiningConfig(threshold=0.6)
        mined, _ = mine_collection(pairs, toy_lexicon(), config)
        assert mined, "fixture should yield something at this threshold"
        assert all(mp.similarity >= config.threshold for mp in mined)


class TestTune:
    def test_planted_parameters_recovered_with_perfect_f1(self):
        rng = random.Random(123)
        pairs = synthetic_doc_pairs(rng, 6)
        lex = toy_lexicon()
        planted = MiningConfig(threshold=0.5, gap_penalty=-0.2)
        gold = []
        for pair in pairs:
            mined = mine_document_pair(pair, lex, planted)
            links = set()
            position = {id(s): i for i, s in enumerate(pair.source.sentences)}
            tpos = {id(t): j for j, t in enumerate(pair.target.sentences)}
            for mp in mined:
                links.add((position[id(mp.source)], tpos[id(mp.target)]))
            gold.append((pair, links))
        assert any(links for _, links in gold)
        result = tune(gold, lex)
        assert result.f1 == pytest.approx(1.0)

    def test_single_cell_grid(self):
        rng = random.Random(3)
        pairs = synthetic_doc_pairs(rng, 2)
        gold = [(pairs[0], {(0, 0)})]
        result = tune(gold, toy_lexicon(), threshold_grid=[0.4], penalty_grid=[-0.1])
        assert result.best_threshold == 0.4
        assert result.best_gap_penalty == -0.1
        assert len(result.grid) == 1

    def test_all_zero_scorer_yields_zero_f1(self):
        rng = random.Random(4)
        pairs = synthetic_doc_pairs(rng, 2)
        empty_lex = TranslationLexicon(t={})
        gold = [(pairs[0], {(0, 0)})]
        result = tune(
            gold, empty_lex, threshold_grid=[0.5, 0.9], penalty_grid=[-0.1]
        )
        assert result.f1 == 0.0
        assert result.precision == 0.0

    def test_duplicated_grid_is_deterministic(self):
        rng = random.Random(8)
        pairs = synthetic_doc_pairs(rng, 4)
        lex = toy_lexicon()
        gold = []
        for pair in pairs:
            mined = mine_document_pair(pair, lex, MiningConfig(threshold=0.5))
            spos = {id(s): i for i, s in enumerate(pair.source.sentences)}
            tpos = {id(t): j for j, t in enumerate(pair.target.sentences)}
            gold.append((pair, {(spos[id(m.source)], tpos[id(m.target)]) for m in mined}))
        simple = tune(gold, lex, threshold_grid=[0.3, 0.5], penalty_grid=[-0.2])
        doubled = tune(
            gold, lex, threshold_grid=[0.3, 0.5, 0.5, 0.3], penalty_grid=[-0.2, -0.2]
        )
        assert simple.best_threshold == doubled.best_threshold
        assert simple.best_gap_penalty == doubled.best_gap_penalty
        assert simple.f1 == doubled.f1

    def test_tie_breaks_prefer_low_threshold_then_mild_penalty(self):
        # empty lexicon: every cell has F1 0, so tie-break decides
        rng = random.Random(9)
        pairs = synthetic_doc_pairs(rng, 2)
        gold = [(pairs[0], {(0, 0)})]
        result = tune(
            gold,
            TranslationLexicon(t={}),
            threshold_grid=[0.9, 0.3, 0.5],
            penalty_grid=[-0.8, -0.05, -0.4],
        )
        assert result.best_threshold == 0.3
        assert result.best_gap_penalty == -0.05

    def test_grid_is_fully_retained(self):
        rng = random.Random(10)
        pairs = synthetic_doc_pairs(rng, 2)
        gold = [(pairs[0], {(0, 0)})]
        result = tune(gold, toy_lexicon(), threshold_grid=[0.3, 0.6], penalty_grid=[-0.1, -0.2, -0.4])
        assert len(result.grid) == 6
        assert [(row[0], row[1]) for row in result.grid] == [
            (0.3, -0.1), (0.3, -0.2), (0.3, -0.4),
            (0.6, -0.1), (0.6, -0.2), (0.6, -0.4),
        ]

    def test_empty_gold_rejected(self):
        with pytest.raises(DataError):
            tune([], toy_lexicon())

    def test_gold_link_out_of_bounds_rejected(self):
        rng = random.Random(12)
        pair = synthetic_doc_pairs(rng, 1)[0]
        with pytest.raises(DataError):
            tune([(pair, {(999, 0)})], toy_lexicon())


class TestMiningConfig:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            MiningConfig(threshold=-0.1)

    def test_positive_gap_penalty_rejected(self):
        with pytest.raises(ValueError):
            MiningConfig(gap_penalty=0.1)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            MiningConfig(workers=0)
