"""Output checks for benchmark jobs.

For the default seed every output file must match the sha256 recorded in
``digests.json``, which was taken from the program before any performance
change. For every seed the workload's invariants must hold as well:

* mine: the 1-worker and 2-worker outputs are byte-identical;
* select: exactly ceil(rate * N) candidates are kept;
* score: every document in the map has a row, plus the corpus row;
* train: the ARPA text survives a read/write round trip and every
  lexicon's rows for one source word sum to 1.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

DEFAULT_SEED = 0
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def recorded_digests(key: str) -> dict[str, str]:
    return json.loads(DIGESTS.read_text("utf-8"))[key]


def compare_digests(found: dict[str, str], expected: dict[str, str], what: str) -> list[str]:
    if found == expected:
        return []
    differing = sorted(
        name for name in set(found) | set(expected) if found.get(name) != expected.get(name)
    )
    return [f"{what} differs in {', '.join(differing)}"]


def _mine(out: Path, ctx) -> list[str]:
    return compare_digests(tree_digests(out), ctx["one_worker"], "2-worker output vs 1-worker output")


def _select(out: Path, ctx) -> list[str]:
    keep = math.ceil(ctx["rate"] * ctx["items"])
    problems = []
    selected = (out / "selected.tsv").read_text("utf-8").splitlines()
    if len(selected) != keep:
        problems.append(f"selected {len(selected)} candidates, expected {keep}")
    rows = (out / "score_table.tsv").read_text("utf-8").splitlines()[1:]
    flagged = sum(row.split("\t")[-1] == "1" for row in rows)
    if len(rows) != ctx["items"] or flagged != keep:
        problems.append(f"score table has {len(rows)} rows with {flagged} selected")
    return problems


def _score(out: Path, ctx) -> list[str]:
    rows = {line.split("\t")[0] for line in (out / "eval_report.tsv").read_text("utf-8").splitlines()[1:]}
    missing = sorted((set(ctx["doc_ids"]) | {"ALL"}) - rows)
    return [f"report has no row for {', '.join(missing)}"] if missing else []


def _train(out: Path, ctx) -> list[str]:
    from corpusforge import lm

    problems = []
    arpa = (out / "lm.arpa").read_text("utf-8")
    if lm.write_arpa(lm.read_arpa(arpa)) != arpa:
        problems.append("ARPA text changes on a read/write round trip")
    for name in ("lexicon.fwd.tsv", "lexicon.rev.tsv"):
        totals: dict[str, float] = defaultdict(float)
        for line in (out / name).read_text("utf-8").splitlines():
            source, _, prob = line.split("\t")
            totals[source] += float(prob)
        bad = [s for s, total in totals.items() if abs(total - 1.0) > 1e-6]
        if not totals or bad:
            problems.append(f"{name}: {len(bad)} of {len(totals)} source words do not sum to 1")
    return problems


INVARIANTS = {"mine": _mine, "select": _select, "score": _score, "train": _train}


def check_job(workload: str, seed: int, out: Path, ctx) -> list[str]:
    """Problems with one job's outputs: recorded digests, then invariants."""
    problems = []
    if seed == DEFAULT_SEED:
        problems += compare_digests(tree_digests(out), recorded_digests(workload), "output")
    return problems + INVARIANTS[workload](out, ctx)
