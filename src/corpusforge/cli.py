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
from corpusforge.errors import CorpusForgeError, DataError, ParseError
from corpusforge.text_pipeline import (
    ParallelCorpus,
    TokenizationProfile,
    CleaningRules,
    clean_parallel,
    corpus_stats,
    ingest_ted_xml,
)

logger = logging.getLogger("corpusforge")


class _UsageError(Exception):
    """A flag or config value outside its valid range: exit code 1."""


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


def load_config_file(path) -> dict[str, str]:
    """Parse a line-oriented `key = value` file."""
    config: dict[str, str] = {}
    for lineno, line in enumerate(corpus_io.read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError("expected `key = value`", line=lineno)
        key, _, value = stripped.partition("=")
        config[key.strip().replace("-", "_")] = value.strip()
    return config


class RunContext:
    """Resolves option values from flags, then config file, then defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config_file(args.config) if args.config else {}
        self.resolved: dict[str, object] = {}

    def get(self, name: str, default, convert=None):
        value = getattr(self.args, name, None)
        if value is None:
            raw = self.config.get(name)
            if raw is None:
                value = default
            else:
                try:
                    if convert is not None:
                        value = convert(raw)
                    else:
                        value = type(default)(raw) if default is not None else raw
                except Exception as exc:
                    raise DataError(
                        f"bad config value for {name}: {raw!r} ({exc})"
                    ) from exc
        self.resolved[name] = value
        return value

    def begin(self, outputs=()):
        """Log the resolved config, then refuse existing outputs unless --force."""
        pairs = " ".join(f"{k}={v}" for k, v in sorted(self.resolved.items()))
        logger.info("resolved config [%s]: %s", self.args.command, pairs)
        corpus_io.check_overwrite(outputs, self.args.force)


def _valid(config_class, **values):
    """Build a config object; a value outside its range is a usage error."""
    try:
        return config_class(**values)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _int_at_least(ctx: RunContext, name: str, default: int, low: int) -> int:
    value = ctx.get(name, default, int)
    if value < low:
        raise _UsageError(f"{name.replace('_', '-')} must be >= {low}, got {value}")
    return value


def _profile(ctx: RunContext) -> TokenizationProfile:
    lowercase = not ctx.get("no_lowercase", False, _parse_bool)
    return TokenizationProfile(lowercase=lowercase)


def _read_parallel(inputs: list[str], profile) -> ParallelCorpus:
    if len(inputs) == 1:
        return corpus_io.read_parallel_tsv(inputs[0], profile)
    if len(inputs) == 2:
        return corpus_io.read_parallel_files(inputs[0], inputs[1], profile)
    raise DataError("expected one TSV file or two line-aligned text files")


# ----------------------------------------------------------------- handlers


def _cmd_ingest_ted(ctx: RunContext) -> int:
    args = ctx.args
    profile = _profile(ctx)
    outdir = Path(args.outdir)
    ctx.begin()
    with open(args.xml, "rb") as handle:
        documents = ingest_ted_xml(handle.read(), profile)
    corpus_io.check_overwrite(
        [outdir / f"{doc.id}.txt" for doc in documents], args.force
    )
    for doc in documents:
        corpus_io.atomic_write(
            outdir / f"{doc.id}.txt", corpus_io.corpus_text(doc.sentences)
        )
    print(f"talks={len(documents)}")
    print(f"sentences={sum(len(d.sentences) for d in documents)}")
    return 0


def _cmd_clean(ctx: RunContext) -> int:
    args = ctx.args
    profile = _profile(ctx)
    rules = _valid(CleaningRules, max_ratio=ctx.get("max_ratio", 4.0, float))
    ctx.begin([args.output, args.report])
    corpus = _read_parallel(args.inputs, profile)
    cleaned, report = clean_parallel(corpus, rules)
    corpus_io.atomic_write(args.output, corpus_io.parallel_tsv(cleaned))
    report_text = "\n".join(report.as_lines()) + "\n"
    if args.report:
        corpus_io.atomic_write(args.report, report_text)
    print(report_text, end="")
    return 0


def _cmd_stats(ctx: RunContext) -> int:
    args = ctx.args
    profile = _profile(ctx)
    ctx.begin()
    if args.tsv or len(args.inputs) == 2:
        stats = corpus_stats(_read_parallel(args.inputs, profile))
        sides = (("source_", stats.source), ("target_", stats.target))
    else:
        sides = (("", corpus_stats(corpus_io.read_corpus(args.inputs[0], profile))),)
    for prefix, s in sides:
        print(f"{prefix}sentences={s.sentences}")
        print(f"{prefix}tokens={s.tokens}")
        print(f"{prefix}unique_tokens={s.unique_tokens}")
    return 0


def _cmd_train_lex(ctx: RunContext) -> int:
    args = ctx.args
    profile = _profile(ctx)
    iterations = _int_at_least(ctx, "iters", 10, 1)
    ctx.begin([args.output])
    corpus = _read_parallel(args.inputs, profile)
    if args.reverse:
        corpus = ParallelCorpus(pairs=[(t, s) for s, t in corpus.pairs])
    lexicon, log_likelihoods = word_align.train_model1(corpus, iterations=iterations)
    corpus_io.atomic_write(args.output, word_align.write_lexicon(lexicon))
    print(f"iterations={iterations}")
    print(f"final_log_likelihood={log_likelihoods[-1]:.6f}")
    return 0


def _cmd_align(ctx: RunContext) -> int:
    args = ctx.args
    profile = _profile(ctx)
    heuristic = ctx.get("heuristic", "grow-diag")
    ctx.begin([args.output])
    corpus = _read_parallel(args.inputs, profile)
    forward_lex = word_align.read_lexicon(corpus_io.read_text(args.forward_lex))
    reverse_lex = word_align.read_lexicon(corpus_io.read_text(args.reverse_lex))
    lines = []
    for src, tgt in corpus.pairs:
        forward = word_align.viterbi_align(forward_lex, src, tgt)
        backward_rev = word_align.viterbi_align(reverse_lex, tgt, src)
        backward = word_align.AlignmentLinks(
            links=frozenset((i, j) for j, i in backward_rev.links)
        )
        merged = word_align.symmetrize(
            forward, backward, heuristic, len(src.tokens), len(tgt.tokens)
        )
        lines.append(" ".join(f"{i}-{j}" for i, j in sorted(merged.links)))
    corpus_io.atomic_write(args.output, "\n".join(lines) + "\n")
    print(f"pairs={len(corpus.pairs)}")
    return 0


def _cmd_mine(ctx: RunContext) -> int:
    args = ctx.args
    profile = _profile(ctx)
    config = _valid(
        mine.MiningConfig,
        threshold=ctx.get("threshold", 0.5, float),
        gap_penalty=ctx.get("gap_penalty", -0.2, float),
        min_prob=ctx.get("min_prob", 0.1, float),
        workers=ctx.get("workers", 1, int),
    )
    ctx.begin([args.output, args.report])
    pairs = corpus_io.read_manifest(args.manifest, profile)
    lexicon = word_align.read_lexicon(corpus_io.read_text(args.lexicon))
    mined, report = mine.mine_collection(pairs, lexicon, config)
    corpus_io.atomic_write(args.output, corpus_io.mined_tsv(mined))
    report_text = "\n".join(report.as_lines()) + "\n"
    if args.report:
        corpus_io.atomic_write(args.report, report_text)
    print(f"document_pairs={report.document_pairs}")
    print(f"pairs_emitted={report.pairs_emitted}")
    return 0


def _cmd_tune_mine(ctx: RunContext) -> int:
    args = ctx.args
    profile = _profile(ctx)
    thresholds = ctx.get(
        "thresholds", list(mine.DEFAULT_THRESHOLD_GRID), _float_list
    )
    penalties = ctx.get("penalties", list(mine.DEFAULT_PENALTY_GRID), _float_list)
    min_prob = ctx.get("min_prob", 0.1, float)
    ctx.begin([args.output])
    pairs = corpus_io.read_manifest(args.manifest, profile)
    gold = mine.gold_pairs(pairs, corpus_io.read_gold_links(args.gold))
    lexicon = word_align.read_lexicon(corpus_io.read_text(args.lexicon))
    result = mine.tune(gold, lexicon, thresholds, penalties, min_prob=min_prob)
    if args.output:
        corpus_io.atomic_write(args.output, corpus_io.tuning_tsv(result))
    print(f"best_threshold={result.best_threshold:g}")
    print(f"best_gap_penalty={result.best_gap_penalty:g}")
    print(f"precision={result.precision:.6f}")
    print(f"recall={result.recall:.6f}")
    print(f"f1={result.f1:.6f}")
    return 0


def _cmd_train_lm(ctx: RunContext) -> int:
    args = ctx.args
    profile = _profile(ctx)
    order = _int_at_least(ctx, "order", 6, 1)
    min_count = ctx.get("min_count", 1, int)
    ctx.begin([args.output])
    corpus = corpus_io.read_corpus(args.corpus, profile)
    model = lm.train_lm(corpus, order=order, min_count=min_count)
    corpus_io.atomic_write(args.output, lm.write_arpa(model))
    print(f"order={model.order}")
    print(f"vocab={len(model.vocab)}")
    print(f"ngrams={len(model.probs)}")
    return 0


def _cmd_ppl(ctx: RunContext) -> int:
    args = ctx.args
    profile = _profile(ctx)
    ctx.begin([args.output])
    model = lm.read_arpa(corpus_io.read_text(args.model))
    corpus = corpus_io.read_corpus(args.corpus, profile)
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
    return 0


def _cmd_select(ctx: RunContext) -> int:
    args = ctx.args
    profile = _profile(ctx)
    rate = ctx.get("rate", 0.2, float)
    lm_order = _int_at_least(ctx, "lm_order", 3, 1)
    edit_sample = _int_at_least(ctx, "edit_sample", 2000, 0)
    pair_mode = ctx.get("pair_mode", "target-side")
    weights = ctx.get("weights", [1.0, 1.0, 1.0], _float_list)
    seed = ctx.get("seed", 0, int)
    if len(weights) != 3:
        raise DataError("--weights needs exactly three comma-separated numbers")
    config = _valid(
        selection.SelectionConfig,
        acceptance_rate=rate,
        pair_mode=pair_mode,
        weights=tuple(weights),
    )
    ctx.begin([args.output, args.table])
    in_domain = corpus_io.read_corpus(args.in_domain, profile)
    general = corpus_io.read_corpus(args.general, profile)
    domain_profile = selection.build_profile(
        in_domain,
        general,
        lm_order=lm_order,
        edit_sample_size=edit_sample,
        seed=seed,
    )
    if args.parallel:
        candidates = corpus_io.read_parallel_tsv(args.parallel, profile).pairs
    else:
        candidates = general
    selected, table = selection.combine_and_resample(candidates, domain_profile, config)
    if args.parallel:
        out_text = corpus_io.parallel_tsv(ParallelCorpus(pairs=selected))
    else:
        out_text = corpus_io.corpus_text(selected)
    corpus_io.atomic_write(args.output, out_text)
    if args.table:
        corpus_io.atomic_write(args.table, selection.score_table_tsv(table))
    print(f"candidates={len(table)}")
    print(f"selected={len(selected)}")
    return 0


def _cmd_score(ctx: RunContext) -> int:
    args = ctx.args
    profile = _profile(ctx)
    ctx.begin([args.output])
    hyps = corpus_io.read_corpus(args.hyp, profile)
    refs = corpus_io.read_corpus(args.ref, profile)
    doc_map = corpus_io.read_doc_map(args.docs) if args.docs else None
    inp = eval_mt.EvalInput(hypotheses=hyps, references=refs, doc_map=doc_map)
    rep = eval_mt.report(inp, smooth=args.smooth, allow_shifts=not args.no_shifts)
    rendered = eval_mt.render_report(rep, system=args.system)
    print(rendered, end="")
    if args.output:
        corpus_io.atomic_write(args.output, eval_mt.report_tsv(rep, system=args.system))
    return 0


def _cmd_demo(ctx: RunContext) -> int:
    args = ctx.args
    seed = ctx.get("seed", 0, int)
    workers = ctx.get("workers", 1, int)
    rate = ctx.get("rate", 0.2, float)
    # The demo's stages write files as they go: check its values first.
    _valid(mine.MiningConfig, workers=workers)
    _valid(selection.SelectionConfig, acceptance_rate=rate)
    ctx.begin()
    summary = demo_pipeline(
        args.workdir, seed=seed, workers=workers, rate=rate, force=args.force
    )
    print(summary, end="")
    return 0


# ------------------------------------------------------------------ parser


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--force", action="store_true", help="overwrite existing outputs")
    sub.add_argument("--config", default=None, help="key = value config file")
    sub.add_argument(
        "--no-lowercase",
        action="store_const",
        const=True,
        default=None,
        dest="no_lowercase",
        help="keep case while tokenizing",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corpusforge", description=__doc__)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("ingest-ted", help="split TED-like XML into per-talk text")
    p.add_argument("xml")
    p.add_argument("-o", "--outdir", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_ingest_ted)

    p = subs.add_parser("clean", help="structurally clean a parallel corpus")
    p.add_argument("inputs", nargs="+", help="one TSV or two line-aligned files")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--max-ratio", type=float, default=None, dest="max_ratio")
    _add_common(p)
    p.set_defaults(handler=_cmd_clean)

    p = subs.add_parser("stats", help="corpus statistics")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--tsv", action="store_true", help="input is a parallel TSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_stats)

    p = subs.add_parser("train-lex", help="train an IBM Model 1 lexicon")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--reverse", action="store_true", help="swap source and target")
    _add_common(p)
    p.set_defaults(handler=_cmd_train_lex)

    p = subs.add_parser("align", help="symmetrized word alignments")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--forward-lex", required=True, dest="forward_lex")
    p.add_argument("--reverse-lex", required=True, dest="reverse_lex")
    p.add_argument(
        "--heuristic",
        choices=("intersection", "union", "grow-diag"),
        default=None,
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_align)

    p = subs.add_parser("mine", help="mine parallel pairs from comparable documents")
    p.add_argument("manifest")
    p.add_argument("--lexicon", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--gap-penalty", type=float, default=None, dest="gap_penalty")
    p.add_argument("--min-prob", type=float, default=None, dest="min_prob")
    p.add_argument("--workers", type=int, default=None, help="worker process count")
    _add_common(p)
    p.set_defaults(handler=_cmd_mine)

    p = subs.add_parser("tune-mine", help="grid-tune threshold and gap penalty")
    p.add_argument("manifest")
    p.add_argument("gold")
    p.add_argument("--lexicon", required=True)
    p.add_argument("-o", "--output", default=None, help="grid TSV")
    p.add_argument("--thresholds", type=_float_list, default=None)
    p.add_argument("--penalties", type=_float_list, default=None)
    p.add_argument("--min-prob", type=float, default=None, dest="min_prob")
    _add_common(p)
    p.set_defaults(handler=_cmd_tune_mine)

    p = subs.add_parser("train-lm", help="train a Kneser-Ney n-gram model")
    p.add_argument("corpus")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--min-count", type=int, default=None, dest="min_count")
    _add_common(p)
    p.set_defaults(handler=_cmd_train_lm)

    p = subs.add_parser("ppl", help="perplexity of a corpus under an ARPA model")
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("-o", "--output", default=None, help="per-sentence TSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_ppl)

    p = subs.add_parser("select", help="pseudo in-domain data selection")
    p.add_argument("--in-domain", required=True, dest="in_domain")
    p.add_argument("--general", required=True)
    p.add_argument("--parallel", default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--table", default=None, help="score table TSV")
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--weights", type=_float_list, default=None)
    p.add_argument("--pair-mode", choices=selection.PAIR_MODES, default=None, dest="pair_mode")
    p.add_argument("--lm-order", type=int, default=None, dest="lm_order")
    p.add_argument("--edit-sample", type=int, default=None, dest="edit_sample")
    p.add_argument("--seed", type=int, default=None, help="seed for sampled steps")
    _add_common(p)
    p.set_defaults(handler=_cmd_select)

    p = subs.add_parser("score", help="BLEU/NIST/TER with per-document breakdown")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--docs", default=None, help="segment_index<TAB>doc_id map")
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--no-shifts", action="store_true", dest="no_shifts")
    p.add_argument("--system", default="SYSTEM")
    p.add_argument("-o", "--output", default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_score)

    p = subs.add_parser("demo", help="end-to-end pipeline on the bundled toy data")
    p.add_argument("--workdir", required=True)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="seed for sampled steps")
    p.add_argument("--workers", type=int, default=None, help="worker process count")
    _add_common(p)
    p.set_defaults(handler=_cmd_demo)

    subs.metavar = "|".join(subs.choices)
    return parser


def run(argv=None) -> int:
    """Parse and execute; returns the process exit code."""
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "handler", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        ctx = RunContext(args)
        return args.handler(ctx)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except CorpusForgeError as exc:
        logger.error("%s", exc)
        return 2
    except OSError as exc:
        logger.error("%s", exc)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
