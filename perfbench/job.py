"""Run one benchmark job in a fresh process and print its measurements.

Usage: python3 perfbench/job.py WORKLOAD INPUT_DIR OUTPUT_DIR
           [--workers N] [--trace SPANS.jsonl --job K]

The job imports corpusforge from the ``src`` directory of the checkout it
sits in, runs the workload's pipeline stages on the generated inputs,
writes the stage outputs to OUTPUT_DIR and prints one JSON object: the
job's wall time, the time of a fixed calibration loop run just before the
job, the import time and the peak RSS of the process and of its pool
children. With ``--trace`` it also wraps the public functions of every
corpusforge module, appends the recorded spans to SPANS.jsonl and adds
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

_IMPORT_START = time.perf_counter()
from corpusforge import corpus_io, eval_mt, lm, mine, selection, text_pipeline, word_align  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_START

from gen import SELECT_RATE  # noqa: E402

# Program settings each job uses; these are the CLI defaults.
MINE_CONFIG = dict(threshold=0.5, gap_penalty=-0.2, min_prob=0.1)
EM_ITERATIONS = 10
LM_ORDER = 6
CALIBRATION_LOOPS = 2_000_000


def calibrate() -> float:
    """Wall time of a fixed pure-Python integer loop: the host's speed now."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _lines(rows) -> str:
    return "\n".join(rows) + "\n"


def job_mine(inp: Path, out: Path, workers: int, counters) -> None:
    pairs = corpus_io.read_manifest(inp / "manifest.tsv")
    lexicon = word_align.read_lexicon((inp / "lexicon.tsv").read_text("utf-8"))
    config = mine.MiningConfig(workers=workers, **MINE_CONFIG)
    cpu_start = _cpu_s()
    mined, report = mine.mine_collection(pairs, lexicon, config)
    counters["mine.cpu_s"] += _cpu_s() - cpu_start
    corpus_io.atomic_write(out / "mined.tsv", corpus_io.mined_tsv(mined))
    corpus_io.atomic_write(out / "mine_report.txt", _lines(report.as_lines(include_timings=False)))

    gold_links = corpus_io.read_gold_links(inp / "gold.tsv")
    by_id = {p.source.id: p for p in pairs}
    gold = [(by_id[doc_id], links) for doc_id, links in sorted(gold_links.items())]
    result = mine.tune(gold, lexicon, min_prob=MINE_CONFIG["min_prob"])
    rows = ["threshold\tgap_penalty\tprecision\trecall\tf1"]
    rows += [f"{t:g}\t{g:g}\t{p:.6f}\t{r:.6f}\t{f:.6f}" for t, g, p, r, f in result.grid]
    corpus_io.atomic_write(out / "tuning.tsv", _lines(rows))

    for p in pairs:
        n, m = len(p.source.sentences), len(p.target.sentences)
        counters["mine.cells"] += n * m
        counters["mine.min_side_sentences"] += min(n, m)


def job_select(inp: Path, out: Path, workers: int, counters) -> None:
    in_domain = corpus_io.read_corpus(inp / "in_domain.txt")
    candidates = corpus_io.read_parallel_tsv(inp / "general.tsv").pairs
    profile = selection.build_profile(in_domain, [tgt for _, tgt in candidates], lm_order=3)
    config = selection.SelectionConfig(acceptance_rate=SELECT_RATE, pair_mode="target-side")
    selected, table = selection.combine_and_resample(candidates, profile, config)
    corpus_io.atomic_write(
        out / "selected.tsv", corpus_io.parallel_tsv(text_pipeline.ParallelCorpus(pairs=selected))
    )
    corpus_io.atomic_write(out / "score_table.tsv", selection.score_table_tsv(table))


def job_score(inp: Path, out: Path, workers: int, counters) -> None:
    hyps = corpus_io.read_corpus(inp / "hyp.txt")
    refs = corpus_io.read_corpus(inp / "ref.txt")
    doc_map = corpus_io.read_doc_map(inp / "docmap.tsv")
    rep = eval_mt.report(eval_mt.EvalInput(hypotheses=hyps, references=refs, doc_map=doc_map))
    corpus_io.atomic_write(out / "eval_report.txt", eval_mt.render_report(rep, system="BENCH"))
    corpus_io.atomic_write(out / "eval_report.tsv", eval_mt.report_tsv(rep, system="BENCH"))


def job_train(inp: Path, out: Path, workers: int, counters) -> None:
    src_docs = text_pipeline.ingest_ted_xml((inp / "ted_source.xml").read_bytes())
    tgt_docs = text_pipeline.ingest_ted_xml((inp / "ted_target.xml").read_bytes())
    by_id = {d.id: d for d in tgt_docs}
    pairs = []
    for doc in src_docs:
        pairs.extend(zip(doc.sentences, by_id[doc.id].sentences, strict=True))
    cleaned, report = text_pipeline.clean_parallel(text_pipeline.ParallelCorpus(pairs=pairs))
    corpus_io.atomic_write(out / "clean_report.txt", _lines(report.as_lines()))

    forward, _ = word_align.train_model1(cleaned, iterations=EM_ITERATIONS)
    flipped = text_pipeline.ParallelCorpus(pairs=[(t, s) for s, t in cleaned.pairs])
    reverse, _ = word_align.train_model1(flipped, iterations=EM_ITERATIONS)
    corpus_io.atomic_write(out / "lexicon.fwd.tsv", word_align.write_lexicon(forward))
    corpus_io.atomic_write(out / "lexicon.rev.tsv", word_align.write_lexicon(reverse))
    links = []
    for src, tgt in cleaned.pairs:
        fwd = word_align.viterbi_align(forward, src, tgt)
        rev = word_align.viterbi_align(reverse, tgt, src)
        back = word_align.AlignmentLinks(links=frozenset((i, j) for j, i in rev.links))
        merged = word_align.symmetrize(fwd, back, "grow-diag", len(src.tokens), len(tgt.tokens))
        links.append(" ".join(f"{i}-{j}" for i, j in sorted(merged.links)))
    corpus_io.atomic_write(out / "align.txt", _lines(links))

    model = lm.train_lm(corpus_io.read_corpus(inp / "mono.txt"), order=LM_ORDER)
    arpa = lm.write_arpa(model)
    corpus_io.atomic_write(out / "lm.arpa", arpa)
    loaded = lm.read_arpa(arpa)
    total_lp = 0.0
    total_tokens = 0
    oov = 0
    for sent in corpus_io.read_corpus(inp / "heldout.txt"):
        r = lm.perplexity(loaded, sent)
        total_lp += r.log10_prob_sum
        total_tokens += r.token_count
        oov += r.oov_count
    ppl = 10 ** (-total_lp / total_tokens)
    corpus_io.atomic_write(
        out / "ppl.txt", _lines([f"tokens={total_tokens}", f"oov={oov}", f"perplexity={ppl:.6f}"])
    )


JOBS = {"mine": job_mine, "select": job_select, "score": job_score, "train": job_train}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(JOBS))
    parser.add_argument("inputs", type=Path)
    parser.add_argument("outputs", type=Path)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--job", type=int, default=0)
    args = parser.parse_args(argv)

    import corpusforge

    if not Path(corpusforge.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"corpusforge imported from {corpusforge.__file__}, not from {SRC}")

    tracer = None
    if args.trace is not None:
        import layers
        from spans import Tracer

        tracer = Tracer(args.job)
        layers.instrument(tracer)
    counters = tracer.counters if tracer is not None else defaultdict(float)

    args.outputs.mkdir(parents=True)
    calibration_s = calibrate()
    start = time.perf_counter()
    JOBS[args.workload](args.inputs, args.outputs, args.workers, counters)
    job_s = time.perf_counter() - start

    result = {
        "job_s": job_s,
        "calibration_s": calibration_s,
        "import_s": IMPORT_S,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        tracer.dump(args.trace)
        result["layers"] = layers.metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
