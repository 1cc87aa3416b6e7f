import itertools
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from corpusforge import mine
from corpusforge.errors import DataError
from corpusforge.mine import (
    DocumentPair,
    MiningConfig,
    _score_matrix,
    mine_collection,
    mine_document_pair,
    nw_align_matrix,
    tune,
)
from corpusforge.corpus_io import mined_tsv
from corpusforge.text_pipeline import Document, Sentence
from corpusforge.word_align import TranslationLexicon, read_lexicon
from conftest import make_sentence
from oracles import (
    brute_force_nw_score,
    gap_count,
    lexicon_of,
    nw_align,
    path_score,
    random_score_matrix,
    reference_nw_matches,
    reference_read_lexicon,
    reference_tune,
    score_pair,
)


def identity_lexicon(words):
    return lexicon_of({(w, w): 1.0 for w in words})


def make_document(doc_id, lines):
    return Document(id=doc_id, sentences=[Sentence.from_raw(x) for x in lines])


# Vocabulary-mapped toy languages for synthetic mining fixtures.
def toy_lexicon(size=30):
    return lexicon_of({(f"s{i}", f"t{i}"): 1.0 for i in range(size)})


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
        lex = lexicon_of({})
        assert score_pair(lex, make_sentence("a b"), make_sentence("x y")) == 0.0

    def test_hand_computed_formula(self):
        # coverage (1/2, 1/1) -> harmonic 2/3, ratio 1/2 -> 1/3
        lex = lexicon_of({("a", "x"): 1.0})
        got = score_pair(lex, make_sentence("a b"), make_sentence("x"))
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_sentence_scores_zero(self):
        lex = identity_lexicon(["a"])
        assert score_pair(lex, make_sentence(""), make_sentence("a")) == 0.0
        assert score_pair(lex, make_sentence("a"), make_sentence("")) == 0.0

    def test_literal_token_match_counts_as_covered(self):
        lex = lexicon_of({})
        got = score_pair(lex, make_sentence("1990 !"), make_sentence("1990 !"))
        assert got == 1.0

    def test_min_prob_floor_excludes_weak_entries(self):
        lex = lexicon_of({("a", "x"): 0.05})
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
# trained lexicon never holds (negative, nan, inf). Mining refuses a
# min_prob that is not > 0. At such a floor the coverage index still holds
# just the listed pairs at or above it: a pair missing from the lexicon
# never covers, and listed 0.0 and -0.5 rows do at -1.0.
EDGE_PROBS = (0.0, 1e-12, 0.1, 1.0, -0.5, math.nan, math.inf)
EDGE_MIN_PROBS = (-1.0, 0.0, 1e-9, 0.1, 1.0, 2.0, math.nan, math.inf, -math.inf)
# Shared by both sides, so tokens also match literally.
EDGE_VOCAB = ("a", "b", "c", "x", "y", "7")

edge_lexicons = st.dictionaries(
    st.tuples(st.sampled_from(EDGE_VOCAB), st.sampled_from(EDGE_VOCAB)),
    st.sampled_from(EDGE_PROBS),
    max_size=24,
).map(lexicon_of)
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
    lexicon = lexicon_of(
        {
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
    # min_prob <= 0: neither a missing pair nor a listed pair below it
    # covers, and a literal match covers even when its own pair fails.
    @example(lexicon_of({}), [make_sentence("a")], [make_sentence("x")], 0.0)
    @example(
        lexicon_of({("a", "x"): -0.5}),
        [make_sentence("a")],
        [make_sentence("x")],
        0.0,
    )
    @example(
        lexicon_of({("a", "a"): math.nan}),
        [make_sentence("a b")],
        [make_sentence("a")],
        0.0,
    )
    def test_indexed_matrix_equals_score_pair(self, lexicon, source, target, min_prob):
        pair = DocumentPair(source=Document("s", source), target=Document("t", target))
        got = _score_matrix(pair, lexicon.coverage(min_prob))
        expected = [[score_pair(lexicon, s, t, min_prob) for t in target] for s in source]
        assert got == expected

    # A MiningConfig refuses a min_prob that is not > 0, nan included: see
    # SETTING_CHECKS in test_cli.py.
    @pytest.mark.parametrize("min_prob", [p for p in EDGE_MIN_PROBS if p > 0])
    @pytest.mark.usefixtures("fan_out_every_share")
    def test_collection_matches_score_pair_for_any_worker_count(self, min_prob):
        pairs, lexicon = edge_case_collection(seed=17)
        config = MiningConfig(threshold=0.3, gap_penalty=-0.2, min_prob=min_prob)
        scorer = lambda s, t: score_pair(lexicon, s, t, min_prob)
        expected = []
        for pair in pairs:
            sources, targets = pair.source.sentences, pair.target.sentences
            for i, j, similarity in nw_align(sources, targets, scorer, config.gap_penalty):
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


    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(EDGE_VOCAB),
                st.sampled_from(EDGE_VOCAB),
                st.sampled_from(EDGE_PROBS),
            ),
            max_size=30,
        ),
        min_prob=st.sampled_from(EDGE_MIN_PROBS),
    )
    def test_text_read_lexicon_indexes_like_its_dict(self, rows, min_prob):
        text = "".join(f"{e}\t{f}\t{p!r}\n" for e, f, p in rows)
        got = read_lexicon(text).coverage(min_prob)
        expected = reference_read_lexicon(text).coverage(min_prob)
        assert got == expected

    @pytest.mark.parametrize("min_prob", EDGE_MIN_PROBS)
    def test_repeated_pairs_are_decided_by_their_last_row(self, min_prob):
        # values on both sides of min_prob; nan fails every min_prob
        passing = [math.inf] + [min_prob] * math.isfinite(min_prob)
        failing = [math.nan] + [min_prob - 1] * math.isfinite(min_prob)
        for hi, lo in itertools.product(passing, failing):
            rows = [
                ("a", "x", hi), ("a", "x", lo),  # pass, fail
                ("b", "y", lo), ("b", "y", hi),  # fail, pass
                ("c", "x", hi), ("c", "x", lo), ("c", "x", hi),  # pass, fail, pass
                ("a", "y", lo), ("a", "y", hi), ("a", "y", lo),  # fail, pass, fail
            ]
            text = "".join(f"{e}\t{f}\t{p!r}\n" for e, f, p in rows)
            got = read_lexicon(text).coverage(min_prob)
            expected = reference_read_lexicon(text).coverage(min_prob)
            assert got == expected
            listed = {(e, f) for e, fs in got.forward.items() for f in fs}
            if math.isnan(min_prob):
                assert listed == set()
            else:
                assert listed == {("b", "y"), ("c", "x")}

    def test_one_build_per_lexicon_and_min_prob(self, monkeypatch):
        seen = []

        def score_matrix(pair, index):
            seen.append(index)
            return _score_matrix(pair, index)

        monkeypatch.setattr(mine, "_score_matrix", score_matrix)
        pairs = synthetic_doc_pairs(random.Random(35), 4)
        lexicon = toy_lexicon()
        config = MiningConfig(threshold=0.5)
        mine_collection(pairs, lexicon, config)
        tune([(pairs[0], {(0, 0)})], lexicon, min_prob=config.min_prob)
        mine_document_pair(pairs[1], lexicon, config)
        index = lexicon.coverage(config.min_prob)
        assert len(seen) == len(pairs) + 2
        assert all(i is index for i in seen)
        config.min_prob = 0.2
        mine_document_pair(pairs[1], lexicon, config)
        assert seen[-1] is lexicon.coverage(0.2) is not index


def _sentence(tokens) -> Sentence:
    tokens = tuple(tokens)
    return Sentence(raw=" ".join(tokens), tokens=tokens)


class TestLaneCounts:
    """`_score_matrix` packs each sentence's counts against every sentence
    of the other side into 8-byte lanes of one int: counts past one byte,
    and sides with no sentences, score as `score_pair` does."""

    @pytest.mark.parametrize("min_prob", EDGE_MIN_PROBS)
    @pytest.mark.parametrize("length", [0, 255, 256, 300])
    @pytest.mark.parametrize("long_side", ["source", "target"])
    def test_long_sentence_equals_score_pair(self, long_side, length, min_prob):
        rng = random.Random(length)
        _, lexicon = edge_case_collection(seed=29)
        long = _sentence(rng.choice(EDGE_VOCAB) for _ in range(length))
        short = [
            _sentence(rng.choice(EDGE_VOCAB) for _ in range(rng.randint(0, 6)))
            for _ in range(4)
        ]
        # every word, so all of the long sentence's tokens match literally
        short.append(_sentence(EDGE_VOCAB))
        with_long, other = [short[0], long, short[1]], short[2:]
        source, target = (with_long, other) if long_side == "source" else (other, with_long)
        pair = DocumentPair(source=Document("s", source), target=Document("t", target))
        got = _score_matrix(pair, lexicon.coverage(min_prob))
        expected = [[score_pair(lexicon, s, t, min_prob) for t in target] for s in source]
        assert got == expected

    @pytest.mark.parametrize("min_prob", EDGE_MIN_PROBS)
    def test_a_side_with_no_sentences(self, min_prob):
        _, lexicon = edge_case_collection(seed=31)
        index = lexicon.coverage(min_prob)
        sentences = [_sentence(["a", "b"]), _sentence([]), _sentence(EDGE_VOCAB)]
        no_target = DocumentPair(Document("s", sentences), Document("t", []))
        assert _score_matrix(no_target, index) == [[], [], []]
        no_source = DocumentPair(Document("s", []), Document("t", sentences))
        assert _score_matrix(no_source, index) == []


class UnpicklableLexicon(TranslationLexicon):
    def __reduce__(self):
        raise TypeError("the lexicon must not be sent to a worker process")


class ExitingToken(str):
    """A token whose process exits with code 3 as soon as it is hashed."""

    def __hash__(self):
        os._exit(3)


@pytest.fixture
def start_method(request):
    """Make the parameter the default start method, with which
    `mine_collection` starts its helpers, for one test."""
    method = request.param
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    yield
    multiprocessing.set_start_method(default, force=True)


@pytest.fixture
def fan_out_every_share(monkeypatch):
    """Give a helper process to every share, however few cells it holds, so
    that a small collection takes the fan-out path that `workers` asks for."""
    monkeypatch.setattr(mine, "_MIN_SHARE_CELLS", 1)


def pairs_failing_at(position, token, count=8):
    """`count` synthetic document pairs whose pair at `position` has a
    target sentence holding `token`, and the index of the share it is in
    when mined with 2 workers."""
    pairs = synthetic_doc_pairs(random.Random(35), count)
    pairs[position].target.sentences.append(Sentence(raw="bad", tokens=("t1", token)))
    shares = mine._shares(count, 2)
    return pairs, next(k for k, share in enumerate(shares) if position % count in share)


@pytest.mark.usefixtures("fan_out_every_share")
class TestMiningPool:
    def test_lexicon_never_reaches_a_worker(self):
        pairs = synthetic_doc_pairs(random.Random(31), 12)
        toy = toy_lexicon()
        lexicon = UnpicklableLexicon(toy.sources, toy.targets, toy.probs)
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
        mined, report = mine_collection(pairs, toy_lexicon(), config)
        assert mined
        assert len(report.per_pair_yield) == len(pairs)
        start = 0
        for pair, (source_id, target_id, n) in zip(pairs, report.per_pair_yield):
            assert (source_id, target_id) == (pair.source.id, pair.target.id)
            for mp in mined[start : start + n]:
                assert any(mp.source is s for s in pair.source.sentences)
                assert any(mp.target is t for t in pair.target.sentences)
            start += n
        assert start == len(mined)

    def test_pool_is_no_larger_than_the_pair_count(self, monkeypatch):
        started = []
        process = multiprocessing.Process

        def counted_process(*args, **kwargs):
            started.append(process(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(multiprocessing, "Process", counted_process)
        pairs = synthetic_doc_pairs(random.Random(33), 3)
        serial, _ = mine_collection(pairs, toy_lexicon(), MiningConfig(threshold=0.5))
        assert not started
        fanned, _ = mine_collection(pairs, toy_lexicon(), MiningConfig(threshold=0.5, workers=1000))
        assert len(started) == 2
        assert serial and mined_tsv(fanned) == mined_tsv(serial)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("start_method", ["fork", "forkserver", "spawn"], indirect=True)
    def test_two_workers_give_one_worker_bytes_under_every_start_method(
        self, start_method
    ):
        pairs = synthetic_doc_pairs(random.Random(34), 6)
        toy = toy_lexicon()
        lexicon = UnpicklableLexicon(toy.sources, toy.targets, toy.probs)
        serial, _ = mine_collection(pairs, lexicon, MiningConfig(threshold=0.5))
        for workers in (2, 3):
            fanned, _ = mine_collection(pairs, lexicon, MiningConfig(threshold=0.5, workers=workers))
            assert serial and mined_tsv(fanned) == mined_tsv(serial)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
    def test_a_helpers_exception_reaches_the_caller(self, start_method):
        pairs, share = pairs_failing_at(-1, ["unhashable"])
        assert share == 1
        with pytest.raises(TypeError, match=r"^unhashable type: 'list'$") as raised:
            mine_collection(pairs, toy_lexicon(), MiningConfig(workers=2))
        assert "in _score_matrix" in str(raised.value.__cause__)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
    def test_an_exception_in_the_callers_share_leaves_no_helper_running(
        self, start_method
    ):
        pairs, share = pairs_failing_at(0, ["unhashable"], count=40)
        assert share == 0
        with pytest.raises(TypeError, match=r"^unhashable type: 'list'$"):
            mine_collection(pairs, toy_lexicon(), MiningConfig(workers=2))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
    def test_a_helper_that_dies_without_replying_is_reported_with_its_exit_code(
        self, start_method
    ):
        pairs, share = pairs_failing_at(-1, ExitingToken("t2"))
        assert share == 1
        with pytest.raises(RuntimeError, match="exited with code 3 before sending its matches"):
            mine_collection(pairs, toy_lexicon(), MiningConfig(workers=2))
        assert multiprocessing.active_children() == []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 200), st.data())
    def test_shares_are_contiguous_non_empty_and_even(self, n, data):
        workers = data.draw(st.integers(1, n), label="workers")
        shares = mine._shares(n, workers)
        assert len(shares) == workers
        assert [k for share in shares for k in share] == list(range(n))
        assert min(map(len, shares)) >= max(1, max(map(len, shares)) - 1)


FOOTPRINT = """
import json, sys
before = set(sys.modules)
from corpusforge import corpus_io, eval_mt, lm, mine, selection, text_pipeline, word_align

POOL = ("multiprocessing", "concurrent.futures")
# modules that only some jobs use, each imported where it is used
LAZY = ("logging", "traceback", "xml.parsers.expat")

def loaded(names):
    return [m for m in names if m in sys.modules and m not in before]

after_import = loaded(POOL + LAZY)
pair = mine.DocumentPair(
    text_pipeline.Document("s", [text_pipeline.Sentence.from_raw("a b")]),
    text_pipeline.Document("t", [text_pipeline.Sentence.from_raw("x b")]),
)
lexicon = word_align.TranslationLexicon(["a"], ["x"], [1.0])
config = mine.MiningConfig(workers=int(sys.argv[1]))
mined, _ = mine.mine_collection([pair, pair], lexicon, config)
print(json.dumps([after_import, loaded(POOL), len(mined)]))
"""


def _footprint(workers: int):
    src = str(Path(mine.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, str(workers)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_and_mining_serially_load_no_process_pool():
    assert _footprint(1) == [[], [], 2]


def test_two_workers_below_the_crossover_load_no_process_pool():
    assert _footprint(2) == [[], [], 2]


def _pairs_of_cells(*cells):
    """One document pair per entry, a 1 x n pair for n cells."""
    sentence = make_sentence("a")
    return [
        DocumentPair(Document(f"s{k}", [sentence] * bool(n)), Document(f"t{k}", [sentence] * n))
        for k, n in enumerate(cells)
    ]


class TestCrossover:
    """`mine_collection` gives a collection at most one share per
    `_MIN_SHARE_CELLS` cells, and never more than `workers` or one per pair."""

    @pytest.mark.parametrize(
        "cells, workers, shares",
        [
            ((), 4, 1),
            ((0, 0, 0), 4, 1),
            ((1, 1), 2, 1),
            ((mine._MIN_SHARE_CELLS, mine._MIN_SHARE_CELLS - 1), 2, 1),
            ((mine._MIN_SHARE_CELLS, mine._MIN_SHARE_CELLS), 2, 2),
            ((2 * mine._MIN_SHARE_CELLS, 0), 4, 2),
            ((mine._MIN_SHARE_CELLS,) * 3, 8, 3),
            ((mine._MIN_SHARE_CELLS,) * 3, 2, 2),
            ((3 * mine._MIN_SHARE_CELLS,), 4, 1),
            ((mine._MIN_SHARE_CELLS,) * 3, 1, 1),
        ],
    )
    def test_share_count(self, monkeypatch, cells, workers, shares):
        seen = []

        def fan_out(pairs, lexicon, config, workers):
            seen.append(workers)
            return [[] for _ in pairs]

        monkeypatch.setattr(mine, "_fan_out", fan_out)
        mine_collection(_pairs_of_cells(*cells), toy_lexicon(), MiningConfig(workers=workers))
        assert seen == [shares]

    def test_two_workers_below_it_start_no_process(self, monkeypatch):
        started = []
        monkeypatch.setattr(multiprocessing, "Process", lambda *a, **k: started.append(a))
        pairs = synthetic_doc_pairs(random.Random(36), 12)
        assert sum(len(p.source.sentences) * len(p.target.sentences) for p in pairs) < (
            2 * mine._MIN_SHARE_CELLS
        )
        serial, _ = mine_collection(pairs, toy_lexicon(), MiningConfig(threshold=0.5))
        fanned, _ = mine_collection(pairs, toy_lexicon(), MiningConfig(threshold=0.5, workers=2))
        assert started == []
        assert serial and mined_tsv(fanned) == mined_tsv(serial)


class TestNwAlign:
    def test_identity_diagonal(self):
        scores = [[float(i == j) for j in range(3)] for i in range(3)]
        matches = nw_align_matrix(scores, gap_penalty=-0.5)
        assert path_score(matches, -0.5, 3, 3) == pytest.approx(3.0)
        assert matches == [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]

    def test_empty_source_all_gap_target(self):
        target = [make_sentence("x"), make_sentence("y")]
        matches = nw_align([], target, lambda s, t: 0.0, gap_penalty=-0.3)
        assert path_score(matches, -0.3, 0, 2) == pytest.approx(-0.6)
        assert matches == []

    def test_both_empty(self):
        matches = nw_align([], [], lambda s, t: 0.0, gap_penalty=-0.3)
        assert matches == []
        assert path_score(matches, -0.3, 0, 0) == 0.0

    def test_tie_prefers_match(self):
        assert nw_align_matrix([[0.0]], gap_penalty=0.0) == [(0, 0, 0.0)]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 7).flatmap(
            lambda n: st.integers(0, 7).flatmap(
                lambda m: st.lists(
                    st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=m, max_size=m),
                    min_size=n,
                    max_size=n,
                ).map(lambda scores: (scores, n, m))
            )
        ),
        st.sampled_from([0.0, -0.5, -1.0]),
    )
    def test_tie_break_matches_reference_backtrace(self, matrix, gap):
        scores, n, m = matrix
        assert nw_align_matrix(scores, gap) == reference_nw_matches(scores, gap, n, m)

    @pytest.mark.parametrize("seed", range(40))
    def test_optimal_vs_brute_force(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        scores = random_score_matrix(rng, n, m)
        gap = -rng.uniform(0.0, 1.0)
        matches = nw_align_matrix(scores, gap)
        expected = brute_force_nw_score(scores, gap, n, m)
        assert path_score(matches, gap, n, m) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_path_is_valid_monotone_traversal(self, seed):
        rng = random.Random(1000 + seed)
        n, m = rng.randint(0, 7), rng.randint(0, 7)
        scores = random_score_matrix(rng, n, m)
        i = j = -1
        for next_i, next_j, score in nw_align_matrix(scores, -0.2):
            assert i < next_i < n and j < next_j < m
            assert score == scores[next_i][next_j]
            i, j = next_i, next_j

    @pytest.mark.parametrize("seed", range(15))
    def test_more_negative_penalty_never_adds_gaps(self, seed):
        rng = random.Random(2000 + seed)
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        scores = random_score_matrix(rng, n, m, lo=0.0, hi=1.0)
        penalties = [-0.05, -0.2, -0.5, -1.0]
        gap_counts = [gap_count(nw_align_matrix(scores, g), n, m) for g in penalties]
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

    def test_threshold_beyond_max_mines_nothing(self):
        lex = identity_lexicon(["a"])
        doc = make_document("d", ["a", "a"])
        pair = DocumentPair(source=doc, target=doc)
        mined = mine_document_pair(pair, lex, MiningConfig(threshold=1.01))
        assert mined == []

    def test_planted_pair_is_isolated(self):
        lex = lexicon_of({("k1", "x1"): 1.0, ("k2", "x2"): 1.0, ("k3", "x3"): 1.0})
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

    @pytest.mark.usefixtures("fan_out_every_share")
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

    def test_emitted_similarities_respect_threshold(self):
        rng = random.Random(11)
        pairs = synthetic_doc_pairs(rng, 6)
        config = MiningConfig(threshold=0.6)
        mined, _ = mine_collection(pairs, toy_lexicon(), config)
        assert mined, "fixture should yield something at this threshold"
        assert all(mp.similarity >= config.threshold for mp in mined)


# Grid entries that stress `tune`'s row order and tie-break: equal values
# of either sign of zero, infinite thresholds and penalties (sampled with
# repetition, so grids hold duplicates).
TUNE_THRESHOLDS = [0.0, -0.0, 0.25, 0.5, 1.0, math.inf]
TUNE_PENALTIES = [0.0, -0.0, -0.1, -0.5, -math.inf]
TUNE_SOURCE_WORDS = ["s0", "s1", "s2", "x"]
TUNE_TARGET_WORDS = ["t0", "t1", "t2", "x"]


@st.composite
def tuning_cases(draw):
    """1-3 small gold document pairs over toy_lexicon(3)'s words, and two grids."""

    def sentences(words):
        return draw(
            st.lists(
                st.lists(st.sampled_from(words), max_size=4).map(
                    lambda toks: Sentence(raw=" ".join(toks), tokens=tuple(toks))
                ),
                min_size=1,
                max_size=4,
            )
        )

    gold = []
    for d in range(draw(st.integers(min_value=1, max_value=3))):
        source, target = sentences(TUNE_SOURCE_WORDS), sentences(TUNE_TARGET_WORDS)
        links = draw(
            st.sets(
                st.tuples(
                    st.integers(min_value=0, max_value=len(source) - 1),
                    st.integers(min_value=0, max_value=len(target) - 1),
                ),
                max_size=4,
            )
        )
        gold.append((DocumentPair(Document(f"s{d}", source), Document(f"t{d}", target)), links))
    thresholds = draw(st.lists(st.sampled_from(TUNE_THRESHOLDS), min_size=1, max_size=5))
    penalties = draw(st.lists(st.sampled_from(TUNE_PENALTIES), min_size=1, max_size=5))
    return gold, thresholds, penalties


class TestTune:
    @settings(max_examples=300, deadline=None)
    @given(tuning_cases())
    @example(
        (
            [
                (
                    DocumentPair(
                        Document("s", [make_sentence("s0 s1"), make_sentence("s2")]),
                        Document("t", [make_sentence("t0 t1"), make_sentence("x")]),
                    ),
                    {(0, 0)},
                )
            ],
            [-0.0, 0.5, 0.0, 0.5, math.inf],
            [-0.0, -math.inf, 0.0, -0.1, -0.0],
        )
    )
    # F1 ties between a lower threshold and a milder penalty: the threshold wins
    @example(
        (
            [
                (
                    DocumentPair(
                        Document("s", [make_sentence("s2 s1 s1"), make_sentence("s1 s0")]),
                        Document(
                            "t",
                            [make_sentence(x) for x in ["t0 t1 t2", "t1 t0 x t0", "t2 x", ""]],
                        ),
                    ),
                    {(1, 0), (0, 2), (0, 0)},
                )
            ],
            [0.0, 0.25, 0.5],
            [-0.1, -0.5, -math.inf],
        )
    )
    def test_equals_the_cell_map_reference(self, case):
        gold, thresholds, penalties = case
        lexicon = toy_lexicon(3)
        got = tune(gold, lexicon, thresholds, penalties)
        expected = reference_tune(gold, lexicon, thresholds, penalties)
        assert got.grid == expected.grid
        assert (got.best_threshold, got.best_gap_penalty) == (
            expected.best_threshold,
            expected.best_gap_penalty,
        )
        assert (got.precision, got.recall, got.f1) == (
            expected.precision,
            expected.recall,
            expected.f1,
        )
        # the sign of a zero counts
        assert repr(got.best_threshold) == repr(expected.best_threshold)
        assert repr(got.best_gap_penalty) == repr(expected.best_gap_penalty)
        assert repr(got) == repr(expected)

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
        empty_lex = lexicon_of({})
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
            lexicon_of({}),
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


def test_readme_library_block_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    assert names["report"].document_pairs == len(names["doc_pairs"]) == 6
    assert multiprocessing.active_children() == []
