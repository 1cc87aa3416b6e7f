"""File formats shared by the CLI subcommands.

Plain-text corpora are UTF-8, one sentence per line. Parallel corpora are
either one TSV (`source<TAB>target`) or two line-aligned text files.
All output paths are written atomically (temp file + rename).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from corpusforge.errors import DataError, ParseError
from corpusforge.mine import DocumentPair, MinedPair, TuningResult
from corpusforge.text_pipeline import (
    Document,
    ParallelCorpus,
    Sentence,
    TokenizationProfile,
    DEFAULT_PROFILE,
)


def check_overwrite(paths, force: bool) -> None:
    """Refuse to replace an existing output file unless `force` is set."""
    for path in paths:
        if path and Path(path).exists() and not force:
            raise DataError(f"refusing to overwrite {path} (use --force)")


def atomic_write(path, text: str) -> None:
    """Write text to path via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_text(path) -> str:
    """The file's contents as UTF-8; undecodable bytes raise ParseError."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError(
            f"{path}: not UTF-8: {exc.reason}",
            line=head.count(b"\n") + 1,
            byte_offset=exc.start,
        ) from exc


def read_lines(path) -> list[str]:
    """Lines split on universal newlines (\\n, \\r\\n, \\r), without terminators."""
    text = read_text(path).replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_corpus(path, profile: TokenizationProfile = DEFAULT_PROFILE) -> list[Sentence]:
    return [Sentence.from_raw(line, profile) for line in read_lines(path)]


def read_parallel_tsv(path, profile: TokenizationProfile = DEFAULT_PROFILE) -> ParallelCorpus:
    pairs = []
    for lineno, line in enumerate(read_lines(path), start=1):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(
                f"expected `source<TAB>target`, got {len(fields)} fields",
                line=lineno,
            )
        pairs.append(
            (Sentence.from_raw(fields[0], profile), Sentence.from_raw(fields[1], profile))
        )
    return ParallelCorpus(pairs=pairs)


def read_parallel_files(
    source_path, target_path, profile: TokenizationProfile = DEFAULT_PROFILE
) -> ParallelCorpus:
    source = read_lines(source_path)
    target = read_lines(target_path)
    if len(source) != len(target):
        raise DataError(
            f"line counts differ: {source_path} has {len(source)}, "
            f"{target_path} has {len(target)}"
        )
    return ParallelCorpus(
        pairs=[
            (Sentence.from_raw(s, profile), Sentence.from_raw(t, profile))
            for s, t in zip(source, target)
        ]
    )


def parallel_tsv(corpus: ParallelCorpus) -> str:
    return "".join(f"{src.raw}\t{tgt.raw}\n" for src, tgt in corpus.pairs)


def corpus_text(sentences) -> str:
    return "".join(f"{s.raw}\n" for s in sentences)


def read_document(path, profile: TokenizationProfile = DEFAULT_PROFILE) -> Document:
    doc_id = Path(path).stem
    return Document(id=doc_id, sentences=read_corpus(path, profile))


def read_manifest(
    path, profile: TokenizationProfile = DEFAULT_PROFILE
) -> list[DocumentPair]:
    """`source_doc_path<TAB>target_doc_path` rows, paths relative to the manifest."""
    base = Path(path).parent
    pairs = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError("expected 2 tab-separated paths", line=lineno)
        if "\0" in line:
            raise ParseError("NUL byte in a path", line=lineno)
        src_path = base / fields[0]
        tgt_path = base / fields[1]
        pairs.append(
            DocumentPair(
                source=read_document(src_path, profile),
                target=read_document(tgt_path, profile),
            )
        )
    return pairs


def mined_tsv(mined: list[MinedPair]) -> str:
    """`similarity<TAB>source<TAB>target` with six-decimal similarities."""
    return "".join(
        f"{mp.similarity:.6f}\t{' '.join(mp.source.tokens)}\t{' '.join(mp.target.tokens)}\n"
        for mp in mined
    )


def tuning_tsv(result: TuningResult) -> str:
    """`threshold gap_penalty precision recall f1` rows, one per grid cell."""
    rows = ["threshold\tgap_penalty\tprecision\trecall\tf1"]
    rows += [
        f"{t:g}\t{g:g}\t{p:.6f}\t{r:.6f}\t{f:.6f}" for t, g, p, r, f in result.grid
    ]
    return "\n".join(rows) + "\n"


def read_gold_links(path) -> dict[str, set[tuple[int, int]]]:
    """`doc_id<TAB>i<TAB>j` rows keyed by source document id."""
    gold: dict[str, set[tuple[int, int]]] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError("expected `doc_id<TAB>i<TAB>j`", line=lineno)
        try:
            i, j = int(fields[1]), int(fields[2])
        except ValueError as exc:
            raise ParseError(f"bad link indices: {line!r}", line=lineno) from exc
        gold.setdefault(fields[0], set()).add((i, j))
    return gold


def read_doc_map(path) -> dict[int, str]:
    """`segment_index<TAB>doc_id` rows."""
    mapping: dict[int, str] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError("expected `segment_index<TAB>doc_id`", line=lineno)
        try:
            index = int(fields[0])
        except ValueError as exc:
            raise ParseError(f"bad segment index: {fields[0]!r}", line=lineno) from exc
        if index in mapping:
            raise ParseError(f"segment {index} is listed twice", line=lineno)
        mapping[index] = fields[1]
    return mapping
