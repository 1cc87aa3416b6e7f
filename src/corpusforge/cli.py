"""The `corpusforge` command line: every pipeline stage as a subcommand.

Exit codes: 0 success, 1 usage error, 2 data or parse error. All outputs
are written atomically and never overwrite existing files unless --force
is given. A `key = value` config file can provide defaults for any flag;
explicit flags win, and every run logs the configuration it resolved.
"""

from __future__ import annotations

import argparse
import logging
import re
import sys
from pathlib import Path

from corpusforge import corpus_io, eval_mt, lm, mine, selection, word_align
from corpusforge.demo import demo_pipeline
from corpusforge.errors import CorpusForgeError, DataError, ParseError, SettingError
from corpusforge.text_pipeline import (
    ParallelCorpus,
    CleaningRules,
    clean_parallel,
    corpus_stats,
    ingest_ted_xml,
)

logger = logging.getLogger("corpusforge")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for data errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as a value only
        # when it looks like one negative number; no flag here starts with
        # a digit, so a list such as "-0.1,-0.2" passes as a value too
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _float_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty number list: {text!r}")
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"bad boolean: {text!r}")


def config_defaults(sub: argparse.ArgumentParser, path) -> dict[str, object]:
    """Read a `key = value` file into defaults for the optional flags of `sub`.

    A key is a flag's dest name (`-` may stand for `_`). Its value goes
    through the flag's own type and choices; a store-true flag takes a
    true/false word. An unknown key or a rejected value is a DataError.
    """
    flags = {
        action.dest: action
        for action in sub._actions
        if action.option_strings
        and not action.required
        and action.dest not in ("config", "help")
    }
    defaults: dict[str, object] = {}
    for lineno, line in enumerate(corpus_io.read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError("expected `key = value`", line=lineno)
        key, _, raw = stripped.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        if key not in flags:
            raise DataError(f"unknown config key: {key!r}")
        action = flags[key]
        try:
            value = _parse_bool(raw) if action.nargs == 0 else (action.type or str)(raw)
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"choose from {', '.join(action.choices)}")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DataError(f"bad config value for {key}: {raw!r} ({exc})") from exc
        defaults[key] = value
    return defaults


def _int_at_least(args: argparse.Namespace, name: str, low: int) -> None:
    value = getattr(args, name)
    if value < low:
        raise SettingError(f"{name.replace('_', '-')} must be >= {low}, got {value}")


def _begin(args: argparse.Namespace, outputs=()) -> None:
    """Log the parsed options, refuse two outputs that name one file, then
    refuse existing outputs unless --force."""
    options = " ".join(
        f"{k}={v}" for k, v in sorted(vars(args).items()) if k not in ("command", "handler")
    )
    logger.info("resolved config [%s]: %s", args.command, options)
    named = [path for path in outputs if path]
    if len({Path(path).resolve() for path in named}) < len(named):
        raise SettingError(f"two outputs name one file: {' and '.join(named)}")
    if outputs:
        corpus_io.check_overwrite(outputs, args.force)


def _read_parallel(inputs: list[str], lowercase: bool) -> ParallelCorpus:
    if len(inputs) == 1:
        return corpus_io.read_parallel_tsv(inputs[0], lowercase)
    if len(inputs) == 2:
        return corpus_io.read_parallel_files(inputs[0], inputs[1], lowercase)
    raise DataError("expected one TSV file or two line-aligned text files")


# ----------------------------------------------------------------- handlers


def _cmd_ingest_ted(args: argparse.Namespace) -> None:
    outdir = Path(args.outdir)
    _begin(args)
    with open(args.xml, "rb") as handle:
        documents = ingest_ted_xml(handle.read(), not args.no_lowercase)
    for doc in documents:
        if doc.id in (".", "..") or any(c in doc.id for c in "/\\\0"):
            raise DataError(f"talk id {doc.id!r} is not a plain file name")
    corpus_io.check_overwrite(
        [outdir / f"{doc.id}.txt" for doc in documents], args.force
    )
    for doc in documents:
        corpus_io.atomic_write(
            outdir / f"{doc.id}.txt", corpus_io.corpus_text(doc.sentences)
        )
    print(f"talks={len(documents)}")
    print(f"sentences={sum(len(d.sentences) for d in documents)}")


def _cmd_clean(args: argparse.Namespace) -> None:
    rules = CleaningRules(max_ratio=args.max_ratio)
    _begin(args, [args.output, args.report])
    corpus = _read_parallel(args.inputs, not args.no_lowercase)
    cleaned, report = clean_parallel(corpus, rules)
    corpus_io.atomic_write(args.output, corpus_io.parallel_tsv(cleaned))
    report_text = "\n".join(report.as_lines()) + "\n"
    if args.report:
        corpus_io.atomic_write(args.report, report_text)
    print(report_text, end="")


def _cmd_stats(args: argparse.Namespace) -> None:
    if args.tsv and len(args.inputs) > 1:
        raise SettingError("--tsv takes exactly one input")
    _begin(args)
    if args.tsv or len(args.inputs) > 1:
        corpus = _read_parallel(args.inputs, not args.no_lowercase)
        sides = (("source_", corpus.source_sentences), ("target_", corpus.target_sentences))
    else:
        sides = (("", corpus_io.read_corpus(args.inputs[0], not args.no_lowercase)),)
    for prefix, sentences in sides:
        s = corpus_stats(sentences)
        print(f"{prefix}sentences={s.sentences}")
        print(f"{prefix}tokens={s.tokens}")
        print(f"{prefix}unique_tokens={s.unique_tokens}")


def _cmd_train_lex(args: argparse.Namespace) -> None:
    _int_at_least(args, "iters", 1)
    _begin(args, [args.output])
    corpus = _read_parallel(args.inputs, not args.no_lowercase)
    if args.reverse:
        corpus = ParallelCorpus(pairs=[(t, s) for s, t in corpus.pairs])
    lexicon, log_likelihoods = word_align.train_model1(corpus, iterations=args.iters)
    corpus_io.atomic_write(args.output, word_align.write_lexicon(lexicon))
    print(f"iterations={args.iters}")
    print(f"final_log_likelihood={log_likelihoods[-1]:.6f}")


def _cmd_align(args: argparse.Namespace) -> None:
    _begin(args, [args.output])
    corpus = _read_parallel(args.inputs, not args.no_lowercase)
    forward_lex = word_align.read_lexicon(corpus_io.read_text(args.forward_lex))
    reverse_lex = word_align.read_lexicon(corpus_io.read_text(args.reverse_lex))
    lines = word_align.align_corpus(corpus, forward_lex, reverse_lex, args.heuristic)
    corpus_io.atomic_write(args.output, "".join(line + "\n" for line in lines))
    print(f"pairs={len(corpus.pairs)}")


def _cmd_mine(args: argparse.Namespace) -> None:
    config = mine.MiningConfig(
        threshold=args.threshold,
        gap_penalty=args.gap_penalty,
        min_prob=args.min_prob,
        workers=args.workers,
    )
    _begin(args, [args.output, args.report])
    pairs = corpus_io.read_manifest(args.manifest, not args.no_lowercase)
    lexicon = word_align.read_lexicon(corpus_io.read_text(args.lexicon))
    mined, report = mine.mine_collection(pairs, lexicon, config)
    logger.info("mining took %.3f s", report.wall_time_s)
    corpus_io.atomic_write(args.output, corpus_io.mined_tsv(mined))
    report_text = "\n".join(report.as_lines(include_timings=False)) + "\n"
    if args.report:
        corpus_io.atomic_write(args.report, report_text)
    print(f"document_pairs={report.document_pairs}")
    print(f"pairs_emitted={report.pairs_emitted}")


def _cmd_tune_mine(args: argparse.Namespace) -> None:
    for threshold in args.thresholds:
        mine.MiningConfig(threshold=threshold)
    for penalty in args.penalties:
        mine.MiningConfig(gap_penalty=penalty)
    mine.MiningConfig(min_prob=args.min_prob)
    _begin(args, [args.output])
    pairs = corpus_io.read_manifest(args.manifest, not args.no_lowercase)
    gold = mine.gold_pairs(pairs, corpus_io.read_gold_links(args.gold))
    lexicon = word_align.read_lexicon(corpus_io.read_text(args.lexicon))
    result = mine.tune(
        gold, lexicon, args.thresholds, args.penalties, min_prob=args.min_prob
    )
    if args.output:
        corpus_io.atomic_write(args.output, corpus_io.tuning_tsv(result))
    print(f"best_threshold={result.best_threshold:g}")
    print(f"best_gap_penalty={result.best_gap_penalty:g}")
    print(f"precision={result.precision:.6f}")
    print(f"recall={result.recall:.6f}")
    print(f"f1={result.f1:.6f}")


def _cmd_train_lm(args: argparse.Namespace) -> None:
    _int_at_least(args, "order", 1)
    _begin(args, [args.output])
    corpus = corpus_io.read_corpus(args.corpus, not args.no_lowercase)
    model = lm.train_lm(corpus, order=args.order, min_count=args.min_count)
    corpus_io.atomic_write(args.output, lm.write_arpa(model))
    print(f"order={model.order}")
    print(f"vocab={len(model.vocab)}")
    print(f"ngrams={len(model.probs)}")


def _cmd_ppl(args: argparse.Namespace) -> None:
    _begin(args, [args.output])
    model = lm.read_arpa(corpus_io.read_text(args.model))
    corpus = corpus_io.read_corpus(args.corpus, not args.no_lowercase)
    results = [lm.perplexity(model, sent) for sent in corpus]
    if args.output:
        rows = ["index\tperplexity\tlog10_prob\ttokens\toov"]
        rows += [
            f"{idx}\t{r.perplexity:.4f}\t{r.log10_prob_sum:.6f}\t{r.token_count}\t{r.oov_count}"
            for idx, r in enumerate(results)
        ]
        corpus_io.atomic_write(args.output, "\n".join(rows) + "\n")
    print(f"sentences={len(corpus)}")
    print(f"tokens={sum(r.token_count for r in results)}")
    print(f"oov={sum(r.oov_count for r in results)}")
    print(f"perplexity={lm.pooled_perplexity(results):.4f}")


def _cmd_select(args: argparse.Namespace) -> None:
    _int_at_least(args, "lm_order", 1)
    _int_at_least(args, "edit_sample", 0)
    config = selection.SelectionConfig(
        acceptance_rate=args.rate,
        pair_mode=args.pair_mode,
        weights=tuple(args.weights),
    )
    _begin(args, [args.output, args.table])
    in_domain = corpus_io.read_corpus(args.in_domain, not args.no_lowercase)
    general = corpus_io.read_corpus(args.general, not args.no_lowercase)
    profile = selection.build_profile(
        in_domain,
        general,
        lm_order=args.lm_order,
        edit_sample_size=args.edit_sample,
        seed=args.seed,
    )
    if args.parallel:
        candidates = corpus_io.read_parallel_tsv(args.parallel, not args.no_lowercase).pairs
    else:
        candidates = general
    selected, table = selection.combine_and_resample(candidates, profile, config)
    if args.parallel:
        out_text = corpus_io.parallel_tsv(ParallelCorpus(pairs=selected))
    else:
        out_text = corpus_io.corpus_text(selected)
    corpus_io.atomic_write(args.output, out_text)
    if args.table:
        corpus_io.atomic_write(args.table, selection.score_table_tsv(table))
    print(f"candidates={len(table)}")
    print(f"selected={len(selected)}")


def _cmd_score(args: argparse.Namespace) -> None:
    if set("\t\r\n") & set(args.system):  # a field of every row it writes
        raise SettingError(f"system name {args.system!r} holds a tab or line break")
    _begin(args, [args.output])
    hyps = corpus_io.read_corpus(args.hyp, not args.no_lowercase)
    refs = corpus_io.read_corpus(args.ref, not args.no_lowercase)
    doc_map = corpus_io.read_doc_map(args.docs) if args.docs else None
    inp = eval_mt.EvalInput(hypotheses=hyps, references=refs, doc_map=doc_map)
    rep = eval_mt.report(inp, smooth=args.smooth, allow_shifts=not args.no_shifts)
    rendered = eval_mt.render_report(rep, system=args.system)
    print(rendered, end="")
    if args.output:
        corpus_io.atomic_write(args.output, eval_mt.report_tsv(rep, system=args.system))


def _cmd_demo(args: argparse.Namespace) -> None:
    _begin(args)
    summary = demo_pipeline(
        args.workdir, seed=args.seed, workers=args.workers, rate=args.rate, force=args.force
    )
    print(summary, end="")


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corpusforge", description=__doc__)
    subs = parser.add_subparsers(dest="command")

    def command(handler, help_text):
        """A subcommand named after its handler: _cmd_train_lm is train-lm."""
        name = handler.__name__.removeprefix("_cmd_").replace("_", "-")
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        return sub

    p = command(_cmd_ingest_ted, "split TED-like XML into per-talk text")
    p.add_argument("xml")
    p.add_argument("-o", "--outdir", required=True)

    p = command(_cmd_clean, "structurally clean a parallel corpus")
    p.add_argument("inputs", nargs="+", help="one TSV or two line-aligned files")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report")
    p.add_argument("--max-ratio", type=float, default=4.0)

    p = command(_cmd_stats, "corpus statistics")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--tsv", action="store_true", help="input is a parallel TSV")

    p = command(_cmd_train_lex, "train an IBM Model 1 lexicon")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--reverse", action="store_true", help="swap source and target")

    p = command(_cmd_align, "symmetrized word alignments")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--forward-lex", required=True)
    p.add_argument("--reverse-lex", required=True)
    p.add_argument(
        "--heuristic", choices=("intersection", "union", "grow-diag"), default="grow-diag"
    )

    p = command(_cmd_mine, "mine parallel pairs from comparable documents")
    p.add_argument("manifest")
    p.add_argument("--lexicon", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--gap-penalty", type=float, default=-0.2)
    p.add_argument("--min-prob", type=float, default=0.1)
    p.add_argument("--workers", type=int, default=1, help="worker process count")

    p = command(_cmd_tune_mine, "grid-tune threshold and gap penalty")
    p.add_argument("manifest")
    p.add_argument("gold")
    p.add_argument("--lexicon", required=True)
    p.add_argument("-o", "--output", help="grid TSV")
    p.add_argument("--thresholds", type=_float_list, default=mine.DEFAULT_THRESHOLD_GRID)
    p.add_argument("--penalties", type=_float_list, default=mine.DEFAULT_PENALTY_GRID)
    p.add_argument("--min-prob", type=float, default=0.1)

    p = command(_cmd_train_lm, "train a Kneser-Ney n-gram model")
    p.add_argument("corpus")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--min-count", type=int, default=1)

    p = command(_cmd_ppl, "perplexity of a corpus under an ARPA model")
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("-o", "--output", help="per-sentence TSV")

    p = command(_cmd_select, "pseudo in-domain data selection")
    p.add_argument("--in-domain", required=True)
    p.add_argument("--general", required=True)
    p.add_argument("--parallel")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--table", help="score table TSV")
    p.add_argument("--rate", type=float, default=0.2)
    p.add_argument("--weights", type=_float_list, default=[1.0, 1.0, 1.0])
    p.add_argument("--pair-mode", choices=selection.PAIR_MODES, default="target-side")
    p.add_argument("--lm-order", type=int, default=3)
    p.add_argument("--edit-sample", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0, help="seed for sampled steps")

    p = command(_cmd_score, "BLEU/NIST/TER with per-document breakdown")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--docs", help="segment_index<TAB>doc_id map")
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--no-shifts", action="store_true")
    p.add_argument("--system", default="SYSTEM")
    p.add_argument("-o", "--output")

    p = command(_cmd_demo, "end-to-end pipeline on the bundled toy data")
    p.add_argument("--workdir", required=True)
    p.add_argument("--rate", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0, help="seed for sampled steps")
    p.add_argument("--workers", type=int, default=1, help="worker process count")

    # flags every subcommand shares, last in each one's usage; stats writes
    # nothing to force over, and the demo reads only its bundled data
    for name, sub in subs.choices.items():
        if name != "stats":
            sub.add_argument("--force", action="store_true", help="overwrite existing outputs")
        sub.add_argument("--config", help="key = value config file")
        if name != "demo":
            sub.add_argument(
                "--no-lowercase", action="store_true", help="keep case while tokenizing"
            )

    subs.metavar = "|".join(subs.choices)
    parser.subcommands = subs.choices
    return parser


def parse_args(parser: argparse.ArgumentParser, argv=None) -> argparse.Namespace:
    """Parse argv. A --config file's values become the subcommand's
    defaults, and argv is parsed again, so explicit flags win."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        sub = parser.subcommands[args.command]
        sub.set_defaults(**config_defaults(sub, args.config))
        args = parser.parse_args(argv)
    return args


def run(argv=None) -> int:
    """Parse and execute; returns the process exit code."""
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parse_args(parser, argv)
        if not getattr(args, "handler", None):
            parser.print_usage(sys.stderr)
            return 1
        args.handler(args)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except SettingError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except (CorpusForgeError, OSError) as exc:
        logger.error("%s", exc)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
