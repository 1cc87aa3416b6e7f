import random
import tracemalloc

import pytest

from corpusforge.text_pipeline import ParallelCorpus, Sentence, line_slices


def make_sentence(text: str) -> Sentence:
    return Sentence.from_raw(text)


def make_corpus(lines) -> list[Sentence]:
    return [Sentence.from_raw(line) for line in lines]


def make_parallel(pairs) -> ParallelCorpus:
    return ParallelCorpus(
        pairs=[(Sentence.from_raw(s), Sentence.from_raw(t)) for s, t in pairs]
    )


def random_corpus(rng: random.Random, n_sentences, vocab, max_len=6) -> list[Sentence]:
    lines = [
        " ".join(rng.choice(vocab) for _ in range(rng.randint(1, max_len)))
        for _ in range(n_sentences)
    ]
    return make_corpus(lines)


def allocation(call) -> tuple[int, int]:
    """Bytes ``call()`` leaves allocated, its result alive, and the bytes its
    peak held beyond those."""
    tracemalloc.start()
    try:
        result = call()  # noqa: F841 - kept alive for the measurement
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept, peak - kept


def assert_streams_its_lines(monkeypatch, module, read, text: str) -> None:
    """``read(text)``, whose module splits with ``split_lines`` or
    ``line_slices``, holds at its peak at most a quarter of a list of every
    line more than it does when handed those lines, or those slices,
    ready-made: its own growing tables are the floor."""
    lines = text.split("\n")[:-1]
    slices = list(line_slices(text))
    line_list, _ = allocation(lambda: text.split("\n"))
    ready_made = {"split_lines": lambda _: iter(lines), "line_slices": lambda _: iter(slices)}
    with monkeypatch.context() as m:
        patched = [name for name in ready_made if hasattr(module, name)]
        assert patched, f"{module.__name__} reads lines with neither splitter"
        for name in patched:
            m.setattr(module, name, ready_made[name])
        _, floor = allocation(lambda: read(text))
    _, transient = allocation(lambda: read(text))
    assert transient - floor < line_list / 4, (transient - floor, line_list)


@pytest.fixture
def kn_corpus():
    """The hand-checked bigram Kneser-Ney fixture corpus."""
    return make_corpus(["a b", "a b", "a c"])


@pytest.fixture
def classic_m1_corpus():
    """The classic two-pair Model 1 instance."""
    return make_parallel([("a b", "x y"), ("a", "x")])
