import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from corpusforge import eval_mt
from corpusforge.errors import DataError
from corpusforge.eval_mt import (
    EvalInput,
    bleu,
    nist,
    render_report,
    report,
    report_tsv,
    shift_candidates,
    ter,
)
from corpusforge.text_pipeline import edit_masks
from conftest import make_corpus, make_sentence
from oracles import (
    brute_force_ter_edits,
    corpus_ter,
    reference_bleu,
    reference_nist,
    reference_shift_candidates,
    reference_ter,
    textbook_edit_distance,
)


def eval_input(hyps, refs, doc_map=None):
    return EvalInput(
        hypotheses=make_corpus(hyps), references=make_corpus(refs), doc_map=doc_map
    )


def bleu_of(precisions, brevity_penalty=1.0):
    """BLEU from its four n-gram precisions and its brevity penalty."""
    return brevity_penalty * math.exp(sum(map(math.log, precisions)) / 4)


def _shuffled_segment(n):
    """A seeded n-token reference over eight words, and the hypothesis that
    is the reference cut into 5-token blocks, in shuffled order."""
    rng = random.Random(f"ter-long-{n}")
    ref = [rng.choice(["the", "a", "of", "to", "and", "in", "is", "it"]) for _ in range(n)]
    blocks = [ref[i : i + 5] for i in range(0, n, 5)]
    rng.shuffle(blocks)
    return [tok for block in blocks for tok in block], ref


def _function_word_segment(n):
    """A seeded n-token reference, three in five tokens from six function
    words and the rest from thirty content words, and its full token
    shuffle as the hypothesis."""
    rng = random.Random(f"ter-function-words-{n}")
    ref = [rng.choice(["the", "a", "of", "to", "and", "in"]) for _ in range(n * 3 // 5)]
    ref += [rng.choice([f"word{k}" for k in range(30)]) for _ in range(n - len(ref))]
    rng.shuffle(ref)
    hyp = ref[:]
    rng.shuffle(hyp)
    return hyp, ref


class TestBleu:
    def test_identity(self):
        inp = eval_input(["a b c d e", "f g h i"], ["a b c d e", "f g h i"])
        assert bleu(inp) == bleu_of([1.0, 1.0, 1.0, 1.0]) == 1.0

    def test_segments_shorter_than_max_order_zero_unsmoothed_score(self):
        # no 4-grams exist anywhere, so the 4-gram precision is 0 by the
        # zero-precision convention and the unsmoothed score collapses;
        # smoothing makes orders 3 and 4 (0 + 1) / (0 + 1)
        inp = eval_input(["a b"], ["a b"])
        assert bleu(inp) == 0.0
        assert bleu(inp, smooth=True) == bleu_of([1.0, 1.0, 1.0, 1.0])

    def test_clipped_unigram_precision(self):
        inp = eval_input(["the the the the the the the"], ["the cat is on the mat"])
        assert bleu(inp) == 0.0  # higher orders have no matches
        # unigrams clipped to 2 of 7; orders 2-4 match nothing of 6, 5, 4
        expected = bleu_of([2 / 7, 1 / 7, 1 / 6, 1 / 5])
        assert bleu(inp, smooth=True) == pytest.approx(expected, rel=1e-12)

    def test_brevity_penalty_formula(self):
        # every precision is 1 (orders 3 and 4 smoothed from 0 / 0)
        inp = eval_input(["a b"], ["a b c d"])
        expected = bleu_of([1.0, 1.0, 1.0, 1.0], math.exp(1 - 4 / 2))
        assert bleu(inp, smooth=True) == pytest.approx(expected, rel=1e-12)

    def test_no_penalty_when_hypothesis_longer(self):
        # 3 of 5 unigrams; 2 of 4, 1 of 3 and 0 of 2 higher-order grams
        inp = eval_input(["a b c d e"], ["a b c"])
        expected = bleu_of([3 / 5, 3 / 5, 2 / 4, 1 / 3])
        assert bleu(inp, smooth=True) == pytest.approx(expected, rel=1e-12)

    def test_smoothing_gives_nonzero_score(self):
        inp = eval_input(["a b"], ["a c"])
        assert bleu(inp) == 0.0
        assert bleu(inp, smooth=True) > 0.0

    def test_score_bounded_by_min_precision(self):
        # 4 of 6 unigrams; 2 of 4, 1 of 2 and 0 of 1 higher-order grams
        inp = eval_input(["a b c x", "a q"], ["a b c d", "a r"])
        precisions = [4 / 6, 2 / 4, 1 / 2, 0 / 1]
        assert bleu(inp) <= min(p for p in precisions if p > 0) + 1e-12
        expected = bleu_of([4 / 6, 3 / 5, 2 / 3, 1 / 2])  # smoothed from orders 2-4
        assert bleu(inp, smooth=True) == pytest.approx(expected, rel=1e-12)

    def test_pooled_counts_not_segment_average(self):
        # one perfect and one hopeless segment: pooled unigram precision is
        # 3/5, not the 0.5 a per-segment average would give
        inp = eval_input(["a b c", "q q"], ["a b c", "x y"])
        expected = bleu_of([3 / 5, 3 / 4, 2 / 2, 1 / 1])
        assert bleu(inp, smooth=True) == pytest.approx(expected, rel=1e-12)

    def test_duplicated_corpus_invariance(self):
        # pooled counts all scale by k, so every precision and the length
        # ratio are unchanged (unsmoothed mode; add-one smoothing is not
        # scale-free)
        hyps = ["a b c d x", "f g h i j"]
        refs = ["a b c d y", "f g h i j k"]
        once = bleu(eval_input(hyps, refs))
        expected = bleu_of([9 / 10, 7 / 8, 5 / 6, 3 / 4], math.exp(1 - 11 / 10))
        assert once == pytest.approx(expected, rel=1e-12)
        thrice = bleu(eval_input(hyps * 3, refs * 3))
        assert thrice == pytest.approx(once, rel=1e-12)

    def test_segment_permutation_invariance(self):
        hyps = ["a b c", "d e f", "g h"]
        refs = ["a b x", "d y f", "g h"]
        forward = bleu(eval_input(hyps, refs))
        backward = bleu(eval_input(hyps[::-1], refs[::-1]))
        assert forward == pytest.approx(backward, rel=1e-12)

    def test_empty_hypothesis_set_rejected(self):
        with pytest.raises(DataError):
            bleu(eval_input([], []))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            eval_input(["a"], ["a", "b"])

    def test_all_empty_hypotheses_score_zero(self):
        inp = eval_input(["", ""], ["a b", "c"])
        assert bleu(inp) == 0.0
        assert bleu(inp, smooth=True) == 0.0


class TestNist:
    def test_empty_hypotheses_score_zero(self):
        assert nist(eval_input(["", ""], ["a b", "c d"])) == 0.0

    def test_zero_matches_score_zero(self):
        assert nist(eval_input(["q q q"], ["a b c"])) == 0.0

    def test_two_segment_hand_oracle(self):
        # refs "a b a" + "a c": unigram counts a:3 b:1 c:1 (total 5),
        # bigrams ab:1 ba:1 ac:1.
        # info(a)=log2(5/3) info(b)=log2(5) info(ab)=log2(3) info(ba)=0
        # hyp "a b a": matches a,a,b and both bigrams; hyp "a b": matches a.
        # unigram term: (3*log2(5/3) + log2(5)) / 5
        # bigram term:  log2(3) / 3 ; orders 3+ contribute 0; brevity 1.
        expected = (3 * math.log2(5 / 3) + math.log2(5)) / 5 + math.log2(3) / 3
        got = nist(eval_input(["a b a", "a b"], ["a b a", "a c"]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_brevity_factor_half_at_two_thirds(self):
        # ref "a b c", hyp "a b": base info = log2(3), ratio 2/3 -> 0.5
        expected = 0.5 * math.log2(3)
        got = nist(eval_input(["a b"], ["a b c"]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_no_brevity_penalty_at_equal_length(self):
        # identical segments, ratio 1 -> brevity factor exactly 1
        inp = eval_input(["a b"], ["a b"])
        base = (math.log2(2 / 1) * 2) / 2 + math.log2(1 / 1) / 1
        assert nist(inp) == pytest.approx(base, abs=1e-12)

    def test_permutation_invariance(self):
        hyps = ["a b", "c d e", "a c"]
        refs = ["a b", "c x e", "a c"]
        assert nist(eval_input(hyps, refs)) == pytest.approx(
            nist(eval_input(hyps[::-1], refs[::-1])), rel=1e-12
        )


class TestTer:
    def test_identity(self):
        result = ter(make_sentence("a b c"), make_sentence("a b c"))
        assert result.edits == 0
        assert report(eval_input(["a b c"], ["a b c"])).ter == 0.0

    def test_single_shift_fixture(self):
        result = ter(make_sentence("a c b d"), make_sentence("a b c d"))
        assert result.edits == 1
        assert result.shifts == 1
        assert report(eval_input(["a c b d"], ["a b c d"])).ter == pytest.approx(0.25)

    def test_insertion_fixture(self):
        result = ter(make_sentence("a b c"), make_sentence("a b c d"))
        assert result.edits == 1
        assert result.shifts == 0
        assert report(eval_input(["a b c"], ["a b c d"])).ter == pytest.approx(0.25)

    def test_empty_reference(self):
        result = ter(make_sentence("a b"), make_sentence(""))
        assert result.edits == 2
        assert report(eval_input(["a b"], [""])).ter == pytest.approx(2.0)

    def test_zero_iff_equal(self):
        rng = random.Random(0)
        for _ in range(100):
            h = [rng.choice("abc") for _ in range(rng.randint(0, 5))]
            r = [rng.choice("abc") for _ in range(rng.randint(0, 5))]
            result = ter(make_sentence(" ".join(h)), make_sentence(" ".join(r)))
            assert (result.edits == 0) == (h == r)

    @pytest.mark.parametrize("seed", range(60))
    def test_no_shift_mode_equals_textbook_edit_distance(self, seed):
        rng = random.Random(seed)
        h = [rng.choice("abcde") for _ in range(rng.randint(0, 10))]
        r = [rng.choice("abcde") for _ in range(rng.randint(0, 10))]
        result = ter(
            make_sentence(" ".join(h)), make_sentence(" ".join(r)), allow_shifts=False
        )
        assert result.edits == textbook_edit_distance(h, r)

    @pytest.mark.parametrize("seed", range(60))
    def test_greedy_shift_matches_brute_force_on_tiny_pairs(self, seed):
        rng = random.Random(10_000 + seed)
        h = [rng.choice("abcd") for _ in range(rng.randint(0, 6))]
        r = [rng.choice("abcd") for _ in range(rng.randint(0, 6))]
        got = ter(make_sentence(" ".join(h)), make_sentence(" ".join(r))).edits
        expected = brute_force_ter_edits(h, r)
        assert got == expected, (h, r)

    @pytest.mark.parametrize(
        "hyp,ref",
        [
            ("a d b c c b", "d c a b a c"),
            ("b b a c d c", "d d b b c a"),
            ("b b a c d a", "a b a a b c"),
            ("b c d d b c", "d c b b b d"),
        ],
    )
    def test_known_greedy_suboptimal_cases_stay_bounded(self, hyp, ref):
        # On these adversarial pairs every optimal shift sequence starts
        # with a below-max-gain shift, which the greedy procedure by
        # definition never takes. Greedy stays within one edit of optimal
        # and never beats it; these are the only such cases found in 30k
        # uniform random <=6-token pairs.
        h, r = hyp.split(), ref.split()
        greedy = ter(make_sentence(hyp), make_sentence(ref)).edits
        optimal = brute_force_ter_edits(h, r)
        no_shift = textbook_edit_distance(h, r)
        assert optimal <= greedy <= no_shift
        assert greedy - optimal == 1

    @pytest.mark.parametrize("seed", range(40))
    def test_greedy_never_worse_than_no_shift(self, seed):
        rng = random.Random(20_000 + seed)
        h = make_sentence(" ".join(rng.choice("abcd") for _ in range(rng.randint(0, 8))))
        r = make_sentence(" ".join(rng.choice("abcd") for _ in range(rng.randint(0, 8))))
        assert ter(h, r).edits <= ter(h, r, allow_shifts=False).edits

    def test_tie_broken_by_lookahead(self):
        # Four shifts reach distance 2; the lookahead takes the first that a
        # second shift brings to 0 (2 edits), not the first found (3 edits).
        result = ter(make_sentence("a a b c"), make_sentence("c b a a"))
        assert (result.edits, result.shifts) == (2, 2)

    def test_equal_lookahead_first_found_wins(self):
        # Tied shifts whose best follow-ups are equal: the first found is
        # taken (the last found would end at 3 edits after 3 shifts).
        result = ter(make_sentence("b c b a c a"), make_sentence("c c a a b b"))
        assert (result.edits, result.shifts) == (4, 2)

    @pytest.mark.parametrize(
        "hyp,ref,batches,edits,shifts",
        [
            ("d a", "a", 0, 1, 0),  # the distance, 1, is the floor
            ("x y", "a b", 0, 2, 0),  # nothing shared: the floor is the distance
            ("d a", "c d", 1, 2, 1),  # one shift reaches the floor, 1, and ends the search
        ],
    )
    def test_search_stops_at_the_bag_distance_floor(
        self, monkeypatch, hyp, ref, batches, edits, shifts
    ):
        # No shift sequence goes below max(n, m) minus the multiset overlap,
        # so no batch of shifts is scored once the distance is there.
        calls = []
        distances = eval_mt.edit_distances

        def counted(texts, masks, m):
            calls.append(len(texts))
            return distances(texts, masks, m)

        monkeypatch.setattr(eval_mt, "edit_distances", counted)
        result = ter(make_sentence(hyp), make_sentence(ref))
        assert len(calls) == batches
        assert (result.edits, result.shifts) == (edits, shifts)

    @pytest.mark.parametrize("n,edits,shifts", [(40, 4, 4), (60, 8, 8), (80, 21, 10)])
    def test_long_shuffled_segments(self, n, edits, shifts):
        # Pinned from the search before prefix columns were resumed; 80
        # tokens cross a 64-bit word of the reference's bit vectors.
        h, r = _shuffled_segment(n)
        hyp, ref = make_sentence(" ".join(h)), make_sentence(" ".join(r))
        result = ter(hyp, ref)
        assert (result.edits, result.shifts) == (edits, shifts)
        assert ter(hyp, ref, allow_shifts=False).edits == textbook_edit_distance(h, r)

    @pytest.mark.parametrize("n,edits,shifts", [(60, 43, 13), (80, 58, 11)])
    def test_shuffled_function_word_segments(self, n, edits, shifts):
        # Pinned from the search that advanced one candidate at a time; many
        # repeated words give each hypothesis hundreds of shifts to score.
        h, r = _function_word_segment(n)
        result = ter(make_sentence(" ".join(h)), make_sentence(" ".join(r)))
        assert (result.edits, result.shifts) == (edits, shifts)

    def test_corpus_ter_pools_edits_over_reference_length(self):
        inp = eval_input(["a b", "x"], ["a b c", "y z"])
        # segment 1: 1 insertion; segment 2: 1 sub + 1 insertion
        assert corpus_ter(inp) == pytest.approx(3 / 5)

    def test_corpus_ter_permutation_invariance(self):
        hyps = ["a b", "c d e", "f"]
        refs = ["a x", "c e d", "f g"]
        assert corpus_ter(eval_input(hyps, refs)) == pytest.approx(
            corpus_ter(eval_input(hyps[::-1], refs[::-1]))
        )


class TestReport:
    def test_single_document_equals_corpus_row(self):
        inp = eval_input(["a b c", "d e"], ["a b c", "d x"], doc_map={0: "d1", 1: "d1"})
        rep = report(inp)
        assert rep.per_document["d1"] == (
            pytest.approx(rep.bleu),
            pytest.approx(rep.nist),
            pytest.approx(rep.ter),
        )

    def test_two_disjoint_documents_isolated(self):
        inp = eval_input(
            ["a b c d", "a b c d", "", ""],
            ["a b c d", "a b c d", "x y", "z w"],
            doc_map={0: "good", 1: "good", 2: "bad", 3: "bad"},
        )
        rep = report(inp)
        good_bleu, _, good_ter = rep.per_document["good"]
        bad_bleu, bad_nist, bad_ter = rep.per_document["bad"]
        assert good_bleu == pytest.approx(1.0)
        assert good_ter == pytest.approx(0.0)
        assert bad_bleu == 0.0
        assert bad_nist == 0.0
        assert bad_ter == pytest.approx(1.0)

    def test_ter_pooled_from_one_pass_over_segments(self, monkeypatch):
        hyps = ["b c a d", "a b", "x y z", "c a b", "", "d d a"]
        refs = ["a b c d", "a b c", "x z", "a b c", "a", "a d d"]
        doc_map = {0: "d2", 1: "d1", 2: "d2", 3: "d3", 4: "d1", 5: "d2"}
        inp = eval_input(hyps, refs, doc_map=doc_map)
        calls = []

        def counted(hyp, ref, allow_shifts=True):
            calls.append(hyp)
            return ter(hyp, ref, allow_shifts=allow_shifts)

        monkeypatch.setattr(eval_mt, "ter", counted)
        rep = report(inp)
        assert len(calls) == len(inp)
        monkeypatch.undo()
        assert rep.ter == corpus_ter(inp)
        for doc_id in ("d1", "d2", "d3"):
            indices = [k for k in range(len(inp)) if doc_map[k] == doc_id]
            sub = eval_input([hyps[k] for k in indices], [refs[k] for k in indices])
            assert rep.per_document[doc_id][2] == corpus_ter(sub)

    def test_unmapped_segment_rejected(self):
        inp = eval_input(["a", "b"], ["a", "b"], doc_map={0: "d1"})
        with pytest.raises(DataError):
            report(inp)

    @pytest.mark.parametrize("outside", [2, 7, -1])
    def test_mapped_index_outside_the_segments_rejected(self, outside):
        inp = eval_input(["a", "b"], ["a", "b"], doc_map={0: "d1", 1: "d1", outside: "d9"})
        with pytest.raises(DataError, match=f"segment {outside}, outside 0..1"):
            report(inp)

    @pytest.mark.parametrize("doc_id", ["", " ", "\t"])
    def test_blank_document_id_rejected(self, doc_id):
        inp = eval_input(["a", "b"], ["a", "b"], doc_map={0: "d1", 1: doc_id})
        with pytest.raises(DataError, match=re.escape(f"document id {doc_id!r} is blank")):
            report(inp)

    @pytest.mark.parametrize("doc_id", ["d1 ", " d1", "ALL ", "d\t"])
    def test_document_id_with_surrounding_whitespace_rejected(self, doc_id):
        # 'd1 ' would be a second row that reads d1, and 'ALL ' one that
        # reads like the corpus row
        inp = eval_input(["a", "b"], ["a", "b"], doc_map={0: "d1", 1: doc_id})
        with pytest.raises(
            DataError,
            match=re.escape(f"document id {doc_id!r} has leading or trailing whitespace"),
        ):
            report(inp)

    def test_each_segment_counted_once_per_group(self, monkeypatch):
        hyps = ["b c a d", "a b", "x y z", "c a b", "", "d d a"]
        refs = ["a b c d", "a b c", "x z", "a b c", "a", "a d d"]
        doc_map = {0: "d2", 1: "d1", 2: "d2", 3: "d3", 4: "d1", 5: "d2"}
        calls = []
        count_segment = eval_mt._count_segment

        def counted(hyp, ref):
            calls.append(hyp)
            return count_segment(hyp, ref)

        # Each segment's n-grams are counted once, and that one count serves
        # the corpus and the document. Each group (the corpus, each document)
        # counts its reference n-grams again once, in bulk, when it is scored.
        monkeypatch.setattr(eval_mt, "_count_segment", counted)
        report(eval_input(hyps, refs))
        assert len(calls) == len(hyps)
        calls.clear()
        report(eval_input(hyps, refs, doc_map=doc_map))
        assert len(calls) == len(hyps)

    def test_empty_input_reported_before_map_faults(self):
        with pytest.raises(DataError, match="empty hypothesis set"):
            report(eval_input([], [], doc_map={0: "d1"}))

    def test_no_map_gives_no_per_document_rows(self):
        rep = report(eval_input(["a"], ["a"]))
        assert rep.per_document == {}

    def test_rendered_table_shape(self):
        inp = eval_input(
            ["a b c d", "c d e f"],
            ["a b c d", "c d e f"],
            doc_map={0: "2183", 1: "1922"},
        )
        rendered = render_report(report(inp), system="BASE")
        lines = rendered.splitlines()
        assert lines[0].startswith("TALK ID | SYSTEM | BLEU")
        assert lines[1].startswith("1922")  # sorted by document id
        assert lines[2].startswith("2183")
        assert lines[3].startswith("ALL")
        assert "BASE" in lines[1]
        assert "100.00" in lines[1]

    def test_tsv_report(self):
        inp = eval_input(["a b"], ["a b"], doc_map={0: "d"})
        text = report_tsv(report(inp))
        lines = text.splitlines()
        assert lines[0] == "doc_id\tsystem\tbleu\tnist\tter"
        assert lines[1].split("\t")[0] == "d"
        assert lines[-1].split("\t")[0] == "ALL"


@st.composite
def _eval_cases(draw):
    """1-8 segments of 0-12 tokens over a 1-4 word vocabulary, with an
    optional random document map."""
    vocab = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(min_value=1, max_value=8))
    side = st.lists(st.sampled_from(vocab), max_size=12).map(" ".join)
    hyps = draw(st.lists(side, min_size=n, max_size=n))
    refs = draw(st.lists(side, min_size=n, max_size=n))
    doc_ids = st.lists(st.sampled_from(["d1", "d2", "d3"]), min_size=n, max_size=n)
    doc_map = draw(st.none() | doc_ids.map(lambda ids: dict(enumerate(ids))))
    return hyps, refs, doc_map


class TestSharedNgramPass:
    @given(_eval_cases(), st.booleans(), st.booleans())
    # interleaved documents whose references share the bigram "a b", 3 times
    # in d1 and twice in d2
    @example(
        (["a b a", "a b c", "b a b", "a b"], ["a b a b", "a b c", "a b", "c a b c"],
         {0: "d1", 1: "d2", 2: "d1", 3: "d2"}),
        False,
        True,
    )
    # d2 has a single segment
    @example(
        (["a b c", "b a", "c c a b"], ["a b c", "a b", "c a b"], {0: "d1", 1: "d2", 2: "d1"}),
        True,
        False,
    )
    @settings(max_examples=300, deadline=None)
    def test_equal_to_separate_pass_references(self, case, smooth, allow_shifts):
        hyps, refs, doc_map = case
        inp = eval_input(hyps, refs, doc_map)
        assert bleu(inp, smooth=smooth) == reference_bleu(inp, smooth=smooth).score
        assert nist(inp) == reference_nist(inp)

        def expected(indices):
            sub = eval_input([hyps[k] for k in indices], [refs[k] for k in indices])
            return (
                reference_bleu(sub, smooth=smooth).score,
                reference_nist(sub),
                corpus_ter(sub, allow_shifts=allow_shifts),
            )

        rep = report(inp, smooth=smooth, allow_shifts=allow_shifts)
        assert (rep.bleu, rep.nist, rep.ter) == expected(range(len(inp)))
        by_doc = {}
        for k, doc_id in sorted((doc_map or {}).items()):
            by_doc.setdefault(doc_id, []).append(k)
        assert rep.per_document == {doc_id: expected(ks) for doc_id, ks in by_doc.items()}


# Segments of 0-20 tokens (length drawn first, so long ones are common)
# over 2-4 words, so tied shifts and the lookahead that breaks the tie are
# common.
@st.composite
def _ter_pairs(draw):
    vocab = st.sampled_from("abcd"[: draw(st.integers(2, 4))])
    side = st.integers(0, 20).flatmap(lambda n: st.lists(vocab, min_size=n, max_size=n))
    return draw(side), draw(side)


class TestTerAgainstReference:
    @given(_ter_pairs())
    # the search ends at a bag-distance floor above 0
    @example((["d", "a"], ["c", "d"]))
    # two shifts tie at the floor: the first is taken without the lookahead
    @example((["b", "c", "b"], ["c", "d", "c"]))
    # the lookahead stops at the first tie whose follow-up reaches the floor
    @example((["d", "c", "a"], ["a", "b", "d"]))
    @settings(max_examples=300, deadline=None)
    def test_equal_to_reference_search(self, pair):
        h, r = pair
        hyp, ref = make_sentence(" ".join(h)), make_sentence(" ".join(r))
        for allow_shifts in (True, False):
            assert ter(hyp, ref, allow_shifts) == reference_ter(hyp, ref, allow_shifts)
        found = list(shift_candidates(h, edit_masks(r)))
        assert found == [tuple(c) for c in reference_shift_candidates(h, r)]
