"""End-to-end demo: every pipeline stage, in order, on the bundled toy data.

Runs ingest -> clean -> stats -> train-lex -> mine -> tune -> train-lm ->
select -> score inside one working directory and writes a summary. Each
stage makes the same library calls as its CLI subcommand. All outputs are
deterministic for a fixed seed, so two runs produce identical bytes.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from corpusforge import corpus_io, eval_mt, lm, mine, selection, word_align
from corpusforge.errors import DataError
from corpusforge.text_pipeline import (
    ParallelCorpus, clean_parallel, corpus_stats, ingest_ted_xml, pair_talks,
)

# Every file the demo writes into its working directory, in stage order.
OUTPUTS = (
    "ted.tsv", "ted.clean.tsv", "clean_report.txt", "stats.txt", "lexicon.tsv", "mined.tsv",
    "mine_report.txt", "tuning.tsv", "ted_lm.arpa", "selected.tsv", "score_table.tsv",
    "eval_report.txt", "summary.txt",
)


def demo_pipeline(
    workdir,
    seed: int = 0,
    workers: int = 1,
    rate: float = 0.2,
    force: bool = False,
) -> str:
    """Run the whole recipe in `workdir` and return the summary text. Unless
    `force` is set, refuse to start when any of the OUTPUTS exists there."""
    work = Path(workdir)
    data = Path(str(resources.files("corpusforge").joinpath("data")))
    mining_config = mine.MiningConfig(
        threshold=0.4, gap_penalty=-0.2, min_prob=0.1, workers=workers
    )
    selection_config = selection.SelectionConfig(acceptance_rate=rate)
    corpus_io.check_overwrite([work / name for name in OUTPUTS], force)
    work.mkdir(parents=True, exist_ok=True)
    summary: list[str] = ["corpusforge demo", f"seed={seed}", f"rate={rate:g}", ""]

    # ingest-ted: the two XML files hold the same talks, sentence for sentence.
    src_docs = ingest_ted_xml((data / "ted_source.xml").read_bytes())
    corpus = pair_talks(src_docs, ingest_ted_xml((data / "ted_target.xml").read_bytes()))
    corpus_io.atomic_write(work / "ted.tsv", corpus_io.parallel_tsv(corpus))
    summary.append(f"ingested_talks={len(src_docs)}")

    cleaned, clean_report = clean_parallel(corpus)
    corpus_io.atomic_write(work / "ted.clean.tsv", corpus_io.parallel_tsv(cleaned))
    corpus_io.atomic_write(
        work / "clean_report.txt", "\n".join(clean_report.as_lines()) + "\n"
    )
    summary.extend(clean_report.as_lines())

    stats_lines = []
    sides = (("source", cleaned.source_sentences), ("target", cleaned.target_sentences))
    for side, sentences in sides:
        stats = corpus_stats(sentences)
        stats_lines.append(f"{side}_tokens={stats.tokens}")
        stats_lines.append(f"{side}_unique_tokens={stats.unique_tokens}")
    corpus_io.atomic_write(work / "stats.txt", "\n".join(stats_lines) + "\n")
    summary.extend(stats_lines + [""])

    lexicon, log_likelihoods = word_align.train_model1(cleaned, iterations=10)
    corpus_io.atomic_write(work / "lexicon.tsv", word_align.write_lexicon(lexicon))
    summary.append(f"lexicon_entries={sum(map(len, lexicon.by_source.values()))}")
    summary.append(f"model1_final_ll={log_likelihoods[-1]:.4f}")

    doc_pairs = corpus_io.read_manifest(data / "comparable" / "manifest.tsv")
    mined, mine_report = mine.mine_collection(doc_pairs, lexicon, mining_config)
    corpus_io.atomic_write(work / "mined.tsv", corpus_io.mined_tsv(mined))
    corpus_io.atomic_write(
        work / "mine_report.txt",
        "\n".join(mine_report.as_lines(include_timings=False)) + "\n",
    )
    summary.append(f"mined_documents={mine_report.document_pairs}")
    summary.append(f"mined_pairs={mine_report.pairs_emitted}")

    gold = mine.gold_pairs(doc_pairs, corpus_io.read_gold_links(data / "gold.tsv"))
    tuning = mine.tune(gold, lexicon)
    corpus_io.atomic_write(work / "tuning.tsv", corpus_io.tuning_tsv(tuning))
    summary.append(
        f"tuned_threshold={tuning.best_threshold:g} "
        f"tuned_gap_penalty={tuning.best_gap_penalty:g} f1={tuning.f1:.4f}"
    )
    summary.append("")

    model = lm.train_lm(cleaned.target_sentences, order=6)
    corpus_io.atomic_write(work / "ted_lm.arpa", lm.write_arpa(model))
    train_ppl = lm.pooled_perplexity(
        [lm.perplexity(model, sent) for sent in cleaned.target_sentences]
    )
    summary.append(f"lm_order={model.order} lm_ngrams={len(model.probs)}")
    summary.append(f"lm_train_perplexity={train_ppl:.4f}")

    if not mined:
        raise DataError("mining produced no pairs to select from")
    candidates = mine.as_parallel_corpus(mined)
    domain_profile = selection.build_profile(
        cleaned.target_sentences, candidates.target_sentences, lm_order=3, seed=seed
    )
    selected, table = selection.combine_and_resample(
        candidates.pairs, domain_profile, selection_config
    )
    corpus_io.atomic_write(
        work / "selected.tsv", corpus_io.parallel_tsv(ParallelCorpus(pairs=selected))
    )
    corpus_io.atomic_write(work / "score_table.tsv", selection.score_table_tsv(table))
    summary.append(f"selection_candidates={len(table)}")
    summary.append(f"selection_kept={len(selected)}")
    summary.append("")

    hyps = corpus_io.read_corpus(data / "hyp.txt")
    refs = corpus_io.read_corpus(data / "ref.txt")
    doc_map = corpus_io.read_doc_map(data / "docmap.tsv")
    rendered = eval_mt.render_report(
        eval_mt.report(eval_mt.EvalInput(hypotheses=hyps, references=refs, doc_map=doc_map)),
        system="DEMO",
    )
    corpus_io.atomic_write(work / "eval_report.txt", rendered)
    summary.append(rendered.rstrip("\n"))

    text = "\n".join(summary) + "\n"
    corpus_io.atomic_write(work / "summary.txt", text)
    return text
