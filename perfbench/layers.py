"""Which corpusforge functions a traced job wraps, and the per-layer
metrics derived from the recorded spans.

Each layer is one corpusforge module; its metric names start with the
module name. A metric a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics

from spans import END, NAME, PARENT, START, Tracer


def _add(name, value_of):
    def on_result(tracer, args, kwargs, result):
        tracer.count(name, value_of(args, result))

    return on_result


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer."""
    from corpusforge import corpus_io, eval_mt, lm, mine, selection, text_pipeline, word_align

    w = tracer.wrap
    for attr in (
        "read_lines", "read_corpus", "read_parallel_tsv", "read_parallel_files",
        "read_document", "read_manifest", "read_gold_links", "read_doc_map",
    ):
        w(corpus_io, attr, f"corpus_io.{attr}")
    w(corpus_io, "atomic_write", "corpus_io.atomic_write",
      on_result=_add("corpus_io.bytes_written", lambda a, r: len(a[1].encode("utf-8"))))

    w(text_pipeline, "ingest_ted_xml", "text_pipeline.ingest_ted_xml")

    def cleaned(tracer, args, kwargs, result):
        tracer.count("text_pipeline.input_pairs", result[1].input_pairs)
        tracer.count("text_pipeline.kept_pairs", result[1].kept_pairs)

    w(text_pipeline, "clean_parallel", "text_pipeline.clean_parallel", on_result=cleaned)
    w(text_pipeline.Sentence, "from_raw", "text_pipeline.Sentence.from_raw", keep=False)

    def trained(tracer, args, kwargs, result):
        lexicon, log_likelihoods = result
        tracer.count("word_align.lexicon_entries", len(lexicon.t))
        tracer.count("word_align.em_iterations", len(log_likelihoods))

    w(word_align, "train_model1", "word_align.train_model1", on_result=trained)
    w(word_align, "read_lexicon", "word_align.read_lexicon",
      on_result=_add("word_align.lexicon_entries", lambda a, r: len(r.t)))
    w(word_align, "write_lexicon", "word_align.write_lexicon")
    w(word_align, "viterbi_align", "word_align.viterbi_align", keep=False)
    w(word_align, "symmetrize", "word_align.symmetrize", keep=False)

    count_ngrams = _add("lm.ngrams", lambda a, r: len(r.probs))
    w(lm, "train_lm", "lm.train_lm", on_result=count_ngrams)
    # selection holds its own reference to train_lm
    w(selection, "train_lm", "lm.train_lm", on_result=count_ngrams)
    w(lm, "write_arpa", "lm.write_arpa",
      on_result=_add("lm.arpa_bytes", lambda a, r: len(r.encode("utf-8"))))
    w(lm, "read_arpa", "lm.read_arpa")
    w(lm, "perplexity", "lm.perplexity", keep=False)
    w(lm, "log_prob", "lm.log_prob", keep=False)

    w(mine, "mine_collection", "mine.mine_collection",
      on_result=lambda t, a, k, r: t.count("mine.pairs_emitted", r[1].pairs_emitted))
    w(mine, "mine_document_pair", "mine.mine_document_pair")
    w(mine, "nw_align_matrix", "mine.nw_align_matrix")
    w(mine, "tune", "mine.tune")

    w(selection, "build_profile", "selection.build_profile",
      on_result=_add("selection.references", lambda a, r: len(r.edit_reference)))
    w(selection, "tfidf_score", "selection.tfidf_score", keep=False)
    w(selection, "ced_score", "selection.ced_score", keep=False)
    w(selection, "edit_score", "selection.edit_score")
    w(selection, "word_edit_distance", "selection.word_edit_distance", keep=False)
    w(selection, "combine_ranks", "selection.combine_ranks")

    w(eval_mt, "bleu", "eval_mt.bleu")
    w(eval_mt, "nist", "eval_mt.nist")
    w(eval_mt, "ter", "eval_mt.ter", on_result=_add("eval_mt.shifts", lambda a, r: r.shifts))
    # eval_mt holds its own reference to the shared edit-distance kernel
    w(eval_mt, "word_edit_distance", "eval_mt.word_edit_distance", keep=False)


def _pct(samples: list[float], q: int) -> float:
    """The q-th percentile in milliseconds (0 when there are no samples)."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return 1000 * samples[0]
    return 1000 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


LAYERS = ("mine", "selection", "eval_mt", "word_align", "lm", "text_pipeline", "corpus_io")


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics for one traced job.

    For ``mine`` the per-document numbers exist only when the job ran with
    one worker: spans recorded in pool children are lost with the child.
    """
    t, c, calls, call_s = tracer.total, tracer.counters, tracer.calls, tracer.call_s
    m: dict[str, float] = {}

    doc_pairs = tracer.durations("mine.mine_document_pair")
    nw_in_docs = t("mine.nw_align_matrix", parent="mine.mine_document_pair")
    score_matrix_s = sum(doc_pairs) - nw_in_docs if doc_pairs else 0.0
    m["mine.collection_s"] = t("mine.mine_collection")
    m["mine.cpu_s"] = c["mine.cpu_s"]
    m["mine.score_matrix_s"] = score_matrix_s
    m["mine.nw_s"] = nw_in_docs
    m["mine.doc_pair_p50_ms"] = _pct(doc_pairs, 50)
    m["mine.doc_pair_p99_ms"] = _pct(doc_pairs, 99)
    m["mine.cells"] = c["mine.cells"]
    m["mine.cells_per_s"] = _ratio(c["mine.cells"], score_matrix_s)
    m["mine.pairs_emitted"] = c["mine.pairs_emitted"]
    m["mine.min_side_sentences"] = c["mine.min_side_sentences"]
    m["mine.yield"] = _ratio(c["mine.pairs_emitted"], c["mine.min_side_sentences"])
    m["mine.tune_s"] = t("mine.tune")

    edits = tracer.durations("selection.edit_score")
    edit_pairs = len(edits) * c["selection.references"]
    m["selection.build_profile_s"] = t("selection.build_profile")
    m["selection.tfidf_s"] = call_s["selection.tfidf_score"]
    m["selection.ced_s"] = call_s["selection.ced_score"]
    m["selection.edit_s"] = sum(edits)
    m["selection.edit_p50_ms"] = _pct(edits, 50)
    m["selection.edit_p99_ms"] = _pct(edits, 99)
    m["selection.rank_s"] = t("selection.combine_ranks")
    m["selection.edit_distance_calls"] = calls["selection.word_edit_distance"]
    m["selection.edit_pairs"] = edit_pairs
    m["selection.edit_eval_ratio"] = _ratio(calls["selection.word_edit_distance"], edit_pairs)

    ters = tracer.durations("eval_mt.ter")
    m["eval_mt.bleu_s"] = t("eval_mt.bleu")
    m["eval_mt.nist_s"] = t("eval_mt.nist")
    m["eval_mt.ter_s"] = sum(ters)
    m["eval_mt.ter_seg_p50_ms"] = _pct(ters, 50)
    m["eval_mt.ter_seg_p99_ms"] = _pct(ters, 99)
    m["eval_mt.ter_calls"] = len(ters)
    m["eval_mt.edit_distance_calls"] = calls["eval_mt.word_edit_distance"]
    m["eval_mt.shifts"] = c["eval_mt.shifts"]

    em_s = t("word_align.train_model1")
    m["word_align.em_s"] = em_s
    m["word_align.em_iter_s"] = _ratio(em_s, c["word_align.em_iterations"])
    m["word_align.lexicon_entries"] = c["word_align.lexicon_entries"]
    m["word_align.write_lexicon_s"] = t("word_align.write_lexicon")
    m["word_align.align_s"] = call_s["word_align.viterbi_align"] + call_s["word_align.symmetrize"]
    m["word_align.read_lexicon_s"] = t("word_align.read_lexicon")

    m["lm.train_s"] = t("lm.train_lm")
    m["lm.ngrams"] = c["lm.ngrams"]
    m["lm.write_arpa_s"] = t("lm.write_arpa")
    m["lm.read_arpa_s"] = t("lm.read_arpa")
    m["lm.arpa_bytes"] = c["lm.arpa_bytes"]
    m["lm.ppl_s"] = call_s["lm.perplexity"]
    m["lm.log_prob_calls"] = calls["lm.log_prob"]

    m["text_pipeline.ingest_s"] = t("text_pipeline.ingest_ted_xml")
    m["text_pipeline.clean_s"] = t("text_pipeline.clean_parallel")
    m["text_pipeline.tokenize_s"] = call_s["text_pipeline.Sentence.from_raw"]
    m["text_pipeline.input_pairs"] = c["text_pipeline.input_pairs"]
    m["text_pipeline.kept_pairs"] = c["text_pipeline.kept_pairs"]
    m["text_pipeline.kept_ratio"] = _ratio(c["text_pipeline.kept_pairs"], c["text_pipeline.input_pairs"])

    # readers call one another, so count only the outermost read
    m["corpus_io.read_s"] = sum(
        rec[END] - rec[START]
        for rec in tracer.spans
        if rec[NAME].startswith("corpus_io.read")
        and not (rec[PARENT] is not None and rec[PARENT][NAME].startswith("corpus_io.read"))
    )
    m["corpus_io.write_s"] = t("corpus_io.atomic_write")
    m["corpus_io.bytes_written"] = c["corpus_io.bytes_written"]

    self_times = tracer.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s for name, s in self_times.items() if name.startswith(layer + "."))
    return m
