import builtins
import filecmp
import logging
import multiprocessing
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

from corpusforge.cli import build_parser, config_defaults, parse_args, run
from corpusforge import corpus_io, lm, mine, selection, word_align
from corpusforge.demo import OUTPUTS as DEMO_OUTPUTS
from corpusforge.errors import CorpusForgeError, ParseError, SettingError
from corpusforge.text_pipeline import (
    CleaningRules, Document, ParallelCorpus, float_sum, ingest_ted_xml,
)
from conftest import make_corpus, make_sentence
from oracles import compensated_sum


DATA = Path(__file__).resolve().parents[1] / "src" / "corpusforge" / "data"


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def parallel_tsv(tmp_path):
    return write(
        tmp_path / "corpus.tsv",
        "The water flows .\tLa aqua fluye .\n"
        "The water flows .\tLa aqua fluye .\n"
        "A bird sings .\tUna pajaro canta .\n"
        "Old story .\t\n",
    )


class TestExitCodes:
    def test_stats_on_empty_file(self, tmp_path, capsys):
        empty = write(tmp_path / "empty.txt", "")
        assert run(["stats", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "sentences=0" in out
        assert "tokens=0" in out

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["bogus"]) == 1

    def test_no_subcommand_is_usage_error(self):
        assert run([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert run(["stats", "--frobnicate", "x"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["stats", str(tmp_path / "nope.txt")]) == 2

    def test_malformed_tsv_is_data_error(self, tmp_path):
        bad = write(tmp_path / "bad.tsv", "only one field\n")
        assert run(["clean", str(bad), "-o", str(tmp_path / "out.tsv")]) == 2

    def test_malformed_xml_is_data_error(self, tmp_path):
        bad = write(tmp_path / "bad.xml", "<talk id='1'><seg>")
        assert run(["ingest-ted", str(bad), "-o", str(tmp_path / "docs")]) == 2


class TestClean:
    def test_clean_tsv(self, tmp_path, parallel_tsv, capsys):
        out = tmp_path / "clean.tsv"
        report = tmp_path / "report.txt"
        code = run(["clean", str(parallel_tsv), "-o", str(out), "--report", str(report)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "kept_pairs=2" in stdout
        assert "dropped_duplicates=1" in stdout
        assert "dropped_empty_or_control=1" in stdout
        assert len(out.read_text().splitlines()) == 2
        assert "kept_pairs=2" in report.read_text()

    def test_clean_two_files(self, tmp_path, capsys):
        src = write(tmp_path / "s.txt", "a b\na b\n")
        tgt = write(tmp_path / "t.txt", "x y\nx y\n")
        out = tmp_path / "clean.tsv"
        assert run(["clean", str(src), str(tgt), "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1

    def test_mismatched_files_rejected(self, tmp_path):
        src = write(tmp_path / "s.txt", "a\nb\n")
        tgt = write(tmp_path / "t.txt", "x\n")
        assert run(["clean", str(src), str(tgt), "-o", str(tmp_path / "o.tsv")]) == 2

    def test_overwrite_needs_force(self, tmp_path, parallel_tsv):
        out = write(tmp_path / "exists.tsv", "old\n")
        assert run(["clean", str(parallel_tsv), "-o", str(out)]) == 2
        assert out.read_text() == "old\n"
        assert run(["clean", str(parallel_tsv), "-o", str(out), "--force"]) == 0
        assert out.read_text() != "old\n"

    def test_max_ratio_flag(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.tsv", "a\tx x x\n")
        out = tmp_path / "o.tsv"
        assert run(["clean", str(corpus), "-o", str(out), "--max-ratio", "2.0"]) == 0
        assert "dropped_length_ratio=1" in capsys.readouterr().out


class TestIngestTed:
    def test_ingest_writes_per_talk_files(self, tmp_path, capsys):
        xml = write(
            tmp_path / "talks.xml",
            '<corpus><talk id="2183"><seg>Hello there.</seg><seg>Bye.</seg></talk></corpus>',
        )
        outdir = tmp_path / "docs"
        assert run(["ingest-ted", str(xml), "-o", str(outdir)]) == 0
        assert (outdir / "2183.txt").read_text() == "Hello there.\nBye.\n"
        out = capsys.readouterr().out
        assert "talks=1" in out
        assert "sentences=2" in out


class TestLmCommands:
    def test_train_and_query_round_trip(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.txt", "a b\na b\na c\n")
        model_path = tmp_path / "m.arpa"
        assert run(["train-lm", str(corpus), "-o", str(model_path), "--order", "2"]) == 0
        model = lm.read_arpa(model_path.read_text())
        assert model.order == 2
        capsys.readouterr()
        assert run(["ppl", str(corpus), "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "perplexity=" in out
        assert "oov=0" in out

    def test_ppl_per_sentence_table(self, tmp_path):
        corpus = write(tmp_path / "c.txt", "a b\n")
        model_path = tmp_path / "m.arpa"
        run(["train-lm", str(corpus), "-o", str(model_path), "--order", "2"])
        table = tmp_path / "ppl.tsv"
        assert run(["ppl", str(corpus), "--model", str(model_path), "-o", str(table)]) == 0
        lines = table.read_text().splitlines()
        assert lines[0].startswith("index\tperplexity")
        assert len(lines) == 2

    def test_bad_arpa_is_data_error(self, tmp_path):
        corpus = write(tmp_path / "c.txt", "a\n")
        bad = write(tmp_path / "bad.arpa", "not an arpa file\n")
        assert run(["ppl", str(corpus), "--model", str(bad)]) == 2


class TestLexAndAlign:
    def test_train_lex_then_align(self, tmp_path, capsys):
        corpus = write(
            tmp_path / "p.tsv",
            "the water\tla aqua\nthe bird\tla pajaro\nwater bird\taqua pajaro\n",
        )
        fwd = tmp_path / "fwd.tsv"
        rev = tmp_path / "rev.tsv"
        assert run(["train-lex", str(corpus), "-o", str(fwd), "--iters", "12"]) == 0
        assert run(["train-lex", str(corpus), "-o", str(rev), "--iters", "12", "--reverse"]) == 0
        links = tmp_path / "links.txt"
        assert (
            run(
                [
                    "align",
                    str(corpus),
                    "-o",
                    str(links),
                    "--forward-lex",
                    str(fwd),
                    "--reverse-lex",
                    str(rev),
                    "--heuristic",
                    "grow-diag",
                ]
            )
            == 0
        )
        lines = links.read_text().splitlines()
        assert len(lines) == 3
        assert "0-0" in lines[0].split()

    @pytest.mark.parametrize("pairs", [0, 1, 2])
    def test_align_writes_one_line_per_pair_and_nothing_for_none(self, tmp_path, pairs):
        # no pairs give an empty file, not the one empty line of a pair without links
        corpus = write(tmp_path / "p.tsv", "a b\tx y\n" * pairs)
        lex = write(tmp_path / "lex.tsv", "a\tx\t1.0\n")
        links = tmp_path / "links.txt"
        argv = ["align", str(corpus), "-o", str(links), "--forward-lex", str(lex),
                "--reverse-lex", str(lex)]
        assert run(argv) == 0
        text = links.read_text()
        assert text.count("\n") == pairs
        assert text.endswith("\n") or text == ""


class TestMineAndTune:
    def test_mine_and_tune_on_bundled_data(self, tmp_path, capsys):
        lex_path = tmp_path / "lex.tsv"
        ted = tmp_path / "ted.tsv"
        # build the in-domain corpus from the bundled XML via ingest + paste
        src_dir = tmp_path / "src_docs"
        tgt_dir = tmp_path / "tgt_docs"
        assert run(["ingest-ted", str(DATA / "ted_source.xml"), "-o", str(src_dir)]) == 0
        assert run(["ingest-ted", str(DATA / "ted_target.xml"), "-o", str(tgt_dir)]) == 0
        pairs = []
        for src_file in sorted(src_dir.iterdir()):
            tgt_file = tgt_dir / src_file.name
            for s, t in zip(
                src_file.read_text().splitlines(), tgt_file.read_text().splitlines()
            ):
                pairs.append(f"{s}\t{t}")
        write(ted, "\n".join(pairs) + "\n")
        assert run(["train-lex", str(ted), "-o", str(lex_path)]) == 0

        for workers in ("2", "1"):
            mined = tmp_path / f"mined{workers}.tsv"
            report = tmp_path / f"report{workers}.txt"
            code = run(
                [
                    "mine",
                    str(DATA / "comparable" / "manifest.tsv"),
                    "--lexicon",
                    str(lex_path),
                    "-o",
                    str(mined),
                    "--report",
                    str(report),
                    "--threshold",
                    "0.4",
                    "--workers",
                    workers,
                ]
            )
            assert code == 0
        assert mined.read_text().strip()
        report_text = report.read_text()
        assert "document_pairs=6" in report_text
        # the report holds no timing, so it is the same bytes for any run
        assert report.read_bytes() == (tmp_path / "report2.txt").read_bytes()
        assert "yield." in report_text

        capsys.readouterr()
        grid = tmp_path / "grid.tsv"
        code = run(
            [
                "tune-mine",
                str(DATA / "comparable" / "manifest.tsv"),
                str(DATA / "gold.tsv"),
                "--lexicon",
                str(lex_path),
                "-o",
                str(grid),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best_threshold=" in out
        assert "f1=" in out
        assert grid.read_text().startswith("threshold\tgap_penalty")

    def test_gold_for_unknown_document_rejected(self, tmp_path):
        lex = write(tmp_path / "lex.tsv", "a\tx\t1.0\n")
        gold = write(tmp_path / "gold.tsv", "missing.doc\t0\t0\n")
        code = run(
            [
                "tune-mine",
                str(DATA / "comparable" / "manifest.tsv"),
                str(gold),
                "--lexicon",
                str(lex),
            ]
        )
        assert code == 2

    def test_repeated_source_document_id_rejected(self, tmp_path, caplog):
        comparable = DATA / "comparable"
        manifest = write(
            tmp_path / "manifest.tsv",
            f"{comparable / 'doc01.src.txt'}\t{comparable / 'doc01.tgt.txt'}\n"
            f"{comparable / 'doc01.src.txt'}\t{comparable / 'doc02.tgt.txt'}\n",
        )
        lex = write(tmp_path / "lex.tsv", "a\tx\t1.0\n")
        gold = write(tmp_path / "gold.tsv", "doc01.src\t0\t0\n")
        code = run(["tune-mine", str(manifest), str(gold), "--lexicon", str(lex)])
        assert code == 2
        assert "source document id 'doc01.src' appears more than once" in caplog.text

    def test_negative_number_lists_after_a_space(self, tmp_path):
        lex = write(tmp_path / "lex.tsv", "a\tx\t1.0\n")
        grid = tmp_path / "grid.tsv"
        code = run(
            [
                "tune-mine",
                str(DATA / "comparable" / "manifest.tsv"),
                str(DATA / "gold.tsv"),
                "--lexicon",
                str(lex),
                "--thresholds",
                "0.2,0.4",
                "--penalties",
                "-0.1,-0.2",
                "-o",
                str(grid),
            ]
        )
        assert code == 0
        rows = [line.split("\t")[:2] for line in grid.read_text().splitlines()[1:]]
        assert rows == [["0.2", "-0.1"], ["0.2", "-0.2"], ["0.4", "-0.1"], ["0.4", "-0.2"]]


class TestMiningUsageErrors:
    @pytest.mark.parametrize(
        "flags",
        [["--workers", "0"], ["--gap-penalty", "0.5"], ["--threshold", "-1"]],
    )
    def test_mine_out_of_range_value(self, tmp_path, capsys, flags):
        lex = write(tmp_path / "lex.tsv", "a\tx\t1.0\n")
        out = tmp_path / "mined.tsv"
        argv = ["mine", str(DATA / "comparable" / "manifest.tsv"), "--lexicon", str(lex)]
        assert run(argv + ["-o", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("corpusforge: error: ")
        assert not out.exists()

    def test_demo_zero_workers(self, tmp_path, capsys):
        assert run(["demo", "--workdir", str(tmp_path / "w"), "--workers", "0"]) == 1
        err = capsys.readouterr().err
        assert err == "corpusforge: error: workers must be >= 1, got 0\n"
        assert not (tmp_path / "w").exists()


class TestSelect:
    def test_monolingual_selection(self, tmp_path, capsys):
        in_domain = write(tmp_path / "ted.txt", "alpha beta\nbeta gamma\nalpha gamma\n")
        general = write(
            tmp_path / "general.txt",
            "\n".join(["alpha beta"] * 2 + ["kron plim vass"] * 8) + "\n",
        )
        out = tmp_path / "selected.txt"
        table = tmp_path / "table.tsv"
        code = run(
            [
                "select",
                "--in-domain",
                str(in_domain),
                "--general",
                str(general),
                "--rate",
                "0.2",
                "-o",
                str(out),
                "--table",
                str(table),
            ]
        )
        assert code == 0
        assert "selected=2" in capsys.readouterr().out
        assert out.read_text().splitlines() == ["alpha beta", "alpha beta"]
        assert table.read_text().startswith("index\ttfidf")

    def test_parallel_selection(self, tmp_path, capsys):
        in_domain = write(tmp_path / "ted.txt", "alpha beta\nbeta gamma\n")
        general = write(tmp_path / "gen.txt", "alpha beta\nkron plim\n")
        pairs = write(
            tmp_path / "pairs.tsv",
            "s1\talpha beta\ns2\tkron plim\ns3\tbeta gamma\ns4\tplim kron\n",
        )
        out = tmp_path / "sel.tsv"
        code = run(
            [
                "select",
                "--in-domain",
                str(in_domain),
                "--general",
                str(general),
                "--parallel",
                str(pairs),
                "--rate",
                "0.5",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        selected = out.read_text().splitlines()
        assert len(selected) == 2
        assert all("\t" in line for line in selected)
        targets = {line.split("\t")[1] for line in selected}
        assert targets == {"alpha beta", "beta gamma"}

    def test_bad_weights_rejected(self, tmp_path):
        f = write(tmp_path / "x.txt", "a\n")
        code = run(
            ["select", "--in-domain", str(f), "--general", str(f), "-o",
             str(tmp_path / "o.txt"), "--weights", "1,2"]
        )
        assert code == 1


class TestScore:
    def test_score_bundled_files(self, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        code = run(
            [
                "score",
                "--hyp",
                str(DATA / "hyp.txt"),
                "--ref",
                str(DATA / "ref.txt"),
                "--docs",
                str(DATA / "docmap.tsv"),
                "-o",
                str(out),
            ]
        )
        assert code == 0
        rendered = capsys.readouterr().out
        assert rendered.startswith("TALK ID | SYSTEM | BLEU")
        assert "1922" in rendered
        assert out.read_text().startswith("doc_id\tsystem")

    def test_hyp_ref_length_mismatch(self, tmp_path):
        h = write(tmp_path / "h.txt", "a\nb\n")
        r = write(tmp_path / "r.txt", "a\n")
        assert run(["score", "--hyp", str(h), "--ref", str(r)]) == 2


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.txt", "a b c\nd e f\n")
        config = write(tmp_path / "cf.cfg", "# demo config\norder = 3\nmin_count = 1\n")
        out1 = tmp_path / "m1.arpa"
        assert run(["train-lm", str(corpus), "-o", str(out1), "--config", str(config)]) == 0
        assert "order=3" in capsys.readouterr().out
        out2 = tmp_path / "m2.arpa"
        assert (
            run(
                [
                    "train-lm",
                    str(corpus),
                    "-o",
                    str(out2),
                    "--config",
                    str(config),
                    "--order",
                    "2",
                ]
            )
            == 0
        )
        assert "order=2" in capsys.readouterr().out

    def test_malformed_config_rejected(self, tmp_path):
        corpus = write(tmp_path / "c.txt", "a\n")
        config = write(tmp_path / "cf.cfg", "no equals sign here\n")
        assert (
            run(["train-lm", str(corpus), "-o", str(tmp_path / "m.arpa"),
                 "--config", str(config)])
            == 2
        )

    def test_bad_config_value_is_data_error(self, tmp_path):
        corpus = write(tmp_path / "c.txt", "a b\n")
        config = write(tmp_path / "cf.cfg", "order = banana\n")
        assert (
            run(["train-lm", str(corpus), "-o", str(tmp_path / "m.arpa"),
                 "--config", str(config)])
            == 2
        )


class TestNoLowercase:
    def test_case_preserved_in_stats(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.txt", "Hello hello\n")
        assert run(["stats", str(corpus)]) == 0
        assert "unique_tokens=1" in capsys.readouterr().out
        assert run(["stats", str(corpus), "--no-lowercase"]) == 0
        assert "unique_tokens=2" in capsys.readouterr().out


class TestDemo:
    def test_demo_runs_and_reruns_deterministically(self, tmp_path, capsys):
        d1 = tmp_path / "w1"
        d2 = tmp_path / "w2"
        assert run(["demo", "--workdir", str(d1)]) == 0
        assert run(["demo", "--workdir", str(d2)]) == 0
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        assert files1 == files2 == sorted(DEMO_OUTPUTS)
        match, mismatch, errors = filecmp.cmpfiles(d1, d2, files1, shallow=False)
        assert mismatch == []
        assert errors == []

    def test_demo_refuses_rerun_without_force(self, tmp_path):
        d = tmp_path / "w"
        assert run(["demo", "--workdir", str(d)]) == 0
        assert run(["demo", "--workdir", str(d)]) == 2
        assert run(["demo", "--workdir", str(d), "--force"]) == 0

    @pytest.mark.parametrize("name", DEMO_OUTPUTS)
    def test_demo_refuses_any_existing_output_before_writing(self, tmp_path, name):
        d = tmp_path / "w"
        d.mkdir()
        (d / name).write_bytes(b"keep\n")
        assert run(["demo", "--workdir", str(d)]) == 2
        assert [p.name for p in d.iterdir()] == [name]
        assert (d / name).read_bytes() == b"keep\n"

    def test_demo_rate_one_selects_everything(self, tmp_path, capsys):
        d = tmp_path / "w"
        assert run(["demo", "--workdir", str(d), "--rate", "1.0"]) == 0
        summary = (d / "summary.txt").read_text()
        candidates = int(summary.split("selection_candidates=")[1].split()[0])
        kept = int(summary.split("selection_kept=")[1].split()[0])
        assert candidates == kept > 0

    def test_demo_lets_a_programming_error_through(self, tmp_path, monkeypatch):
        def broken_tune(*args, **kwargs):
            raise RuntimeError("bug in tune")

        monkeypatch.setattr("corpusforge.mine.tune", broken_tune)
        with pytest.raises(RuntimeError, match="bug in tune"):
            run(["demo", "--workdir", str(tmp_path / "w")])


def test_demo_writes_the_same_bytes_under_the_compensated_sum(tmp_path, monkeypatch):
    assert compensated_sum([0.1] * 10) == 1.0 != float_sum([0.1] * 10)
    assert compensated_sum([1, 2, True]) == 4 and compensated_sum([], 0.5) == 0.5
    plain, compensated = tmp_path / "plain", tmp_path / "compensated"
    assert run(["demo", "--workdir", str(plain)]) == 0
    with monkeypatch.context() as m:
        m.setattr(builtins, "sum", compensated_sum)
        assert run(["demo", "--workdir", str(compensated)]) == 0
    names = sorted(DEMO_OUTPUTS)
    assert filecmp.cmpfiles(plain, compensated, names, shallow=False) == (names, [], [])


class TestReaders:
    def test_read_lines_splits_on_universal_newlines_only(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes("a\r\nb\rc\n\nd\x85e\u2028f\x0cg\r".encode("utf-8"))
        assert list(corpus_io.read_lines(path)) == ["a", "b", "c", "", "d\x85e\u2028f\x0cg"]
        path.write_bytes(b"")
        assert list(corpus_io.read_lines(path)) == []
        path.write_bytes(b"x")
        assert list(corpus_io.read_lines(path)) == ["x"]

    def test_undecodable_byte_is_parse_error_with_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"one\r\ntwo\rthree\n\xc3(\n")
        with pytest.raises(ParseError) as info:
            corpus_io.read_lines(path)
        assert (info.value.line, info.value.byte_offset) == (4, 15)

    def test_doc_map_segment_listed_twice_is_parse_error_with_its_line(self, tmp_path):
        path = write(tmp_path / "docs.tsv", "0\td1\n\n1\td1\n1\td2\n")
        with pytest.raises(ParseError, match="segment 1 is listed twice") as info:
            corpus_io.read_doc_map(path)
        assert info.value.line == 4


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_gives_the_mode_open_gives_under_the_umask(tmp_path, umask):
    written, plain = tmp_path / "written.txt", tmp_path / "plain.txt"
    caller = os.umask(umask)
    try:
        corpus_io.atomic_write(written, "x\n")
        plain.write_text("x\n")
    finally:
        left = os.umask(caller)
    assert left == umask
    modes = [stat.S_IMODE(p.stat().st_mode) for p in (written, plain)]
    assert modes == [0o666 & ~umask] * 2


def _write_every_output(work: Path, hash_seed: str, workers: str) -> dict[str, bytes]:
    """Run each file-writing subcommand on the bundled data in its own
    process, inside `work`; return every file written there, by path."""
    paths = [str(DATA.parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, paths)),
        PYTHONHASHSEED=hash_seed,
    )

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "corpusforge.cli", *argv],
            cwd=work, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    work.mkdir()
    cli("ingest-ted", str(DATA / "ted_source.xml"), "-o", "src_docs")
    cli("ingest-ted", str(DATA / "ted_target.xml"), "-o", "tgt_docs")
    for side in ("src", "tgt"):
        talks = sorted((work / f"{side}_docs").iterdir())
        (work / f"{side}.txt").write_bytes(b"".join(p.read_bytes() for p in talks))
    cli("clean", "src.txt", "tgt.txt", "-o", "clean.tsv", "--report", "clean_report.txt")
    cli("train-lex", "clean.tsv", "-o", "fwd.lex")
    cli("train-lex", "clean.tsv", "-o", "rev.lex", "--reverse")
    cli("align", "clean.tsv", "-o", "links.txt", "--forward-lex", "fwd.lex",
        "--reverse-lex", "rev.lex")
    cli("mine", _MANIFEST, "--lexicon", "fwd.lex", "-o", "mined.tsv",
        "--report", "mine_report.txt", "--threshold", "0.4", "--workers", workers)
    cli("tune-mine", _MANIFEST, _GOLD, "--lexicon", "fwd.lex", "-o", "grid.tsv")
    cli("train-lm", "tgt.txt", "-o", "lm.arpa", "--order", "3")
    cli("ppl", str(DATA / "ref.txt"), "--model", "lm.arpa", "-o", "ppl.tsv")
    cli("select", "--in-domain", str(DATA / "ref.txt"), "--general", "tgt.txt",
        "--parallel", "clean.tsv", "-o", "selected.tsv", "--table", "table.tsv", "--rate", "0.5")
    cli("score", "--hyp", str(DATA / "hyp.txt"), "--ref", str(DATA / "ref.txt"),
        "--docs", str(DATA / "docmap.tsv"), "-o", "score.tsv")
    cli("demo", "--workdir", "demo", "--workers", workers)
    return {
        str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()
    }


def test_every_output_is_the_same_bytes_for_any_hash_seed_and_worker_count(tmp_path):
    first = _write_every_output(tmp_path / "a", hash_seed="0", workers="1")
    second = _write_every_output(tmp_path / "b", hash_seed="12345", workers="2")
    assert list(first) == list(second)
    assert "mine_report.txt" in first and "demo/summary.txt" in first
    assert [name for name in first if first[name] != second[name]] == []


def _write_manifest_lexicon(path: Path) -> None:
    """A lexicon giving each source word of the bundled manifest three
    target words of it, at probabilities 0.05, 0.2 and 0.6."""
    pairs = corpus_io.read_manifest(_MANIFEST)
    src_vocab = sorted({w for p in pairs for s in p.source.sentences for w in s.tokens})
    tgt_vocab = sorted({w for p in pairs for s in p.target.sentences for w in s.tokens})
    rows = [
        f"{e}\t{tgt_vocab[(7 * i + 13 * k) % len(tgt_vocab)]}\t{p}\n"
        for i, e in enumerate(src_vocab)
        for k, p in enumerate((0.05, 0.2, 0.6))
    ]
    write(path, "".join(rows))


def test_mine_writes_the_same_bytes_for_any_hash_seed(tmp_path):
    """Mining packs its counts from words it iterates in set order, which
    the hash seed decides; the output must not depend on that order."""
    _write_manifest_lexicon(tmp_path / "lex.tsv")
    paths = [str(DATA.parents[1]), os.environ.get("PYTHONPATH")]
    outputs = {}
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)),
                   PYTHONHASHSEED=hash_seed)
        out = f"mined-{hash_seed}.tsv"
        proc = subprocess.run(
            [sys.executable, "-m", "corpusforge.cli", "mine", _MANIFEST,
             "--lexicon", "lex.tsv", "-o", out, "--threshold", "0.1", "--min-prob", "0.1"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[hash_seed] = (tmp_path / out).read_bytes()
    assert outputs["0"] == outputs["1"]
    assert outputs["0"].count(b"\n") > 1


# Sets the start method named by its first argument and gives every share a
# helper process however few cells it holds, then runs the CLI on the rest.
_WITH_START_METHOD = (
    "import multiprocessing, sys; multiprocessing.set_start_method(sys.argv.pop(1)); "
    "from corpusforge import cli, mine; mine._MIN_SHARE_CELLS = 1; cli.main()"
)


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_mine_with_two_workers_writes_one_workers_bytes_under_every_start_method(
    tmp_path, method
):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    _write_manifest_lexicon(tmp_path / "lex.tsv")
    paths = [str(DATA.parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    outputs = {}
    for workers, launch in (("1", ["-m", "corpusforge.cli"]), ("2", ["-c", _WITH_START_METHOD, method])):
        proc = subprocess.run(
            [sys.executable, *launch, "mine", _MANIFEST, "--lexicon", "lex.tsv",
             "-o", f"mined-{workers}.tsv", "--report", f"report-{workers}.txt",
             "--threshold", "0.1", "--workers", workers],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[workers] = [(tmp_path / f"{name}-{workers}.{ext}").read_bytes()
                            for name, ext in (("mined", "tsv"), ("report", "txt"))]
    assert outputs["1"] == outputs["2"]
    assert outputs["1"][0].count(b"\n") > 1


def _error_files(tmp: Path) -> None:
    write(tmp / "c.txt", "a b c\nd e f\n")
    write(tmp / "p.tsv", "a b\tx y\n")
    write(tmp / "lex.tsv", "a\tx\t1.0\n")
    write(tmp / "oov.txt", "zzz\n")
    write(tmp / "nounk.arpa", "\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n")
    (tmp / "bad.txt").write_bytes(b"fine\n\xff\tx\t1.0\n")
    write(tmp / "typo.cfg", "max_ration = 0.5\n")
    write(tmp / "h.cfg", "heuristic = diagonal\n")
    write(tmp / "zero.cfg", "order = 0\n")
    write(tmp / "system.cfg", "system = A\tB\n")
    write(tmp / "extra.tsv", "0\td1\n1\td1\n7\td9\n")
    write(tmp / "twice.tsv", "0\td1\n1\td1\n1\td2\n")
    write(tmp / "all.tsv", "0\tALL\n1\td1\n")
    write(tmp / "blank.tsv", "0\t\n1\t \n")
    write(tmp / "spaced.tsv", "0\td1\n1\td1 \n")
    write(tmp / "nul.tsv", "c\0.txt\tc.txt\n")
    write(tmp / "escape.xml", '<talks><talk id="../escaped"><seg>a</seg></talk></talks>')
    write(tmp / "dots.xml", '<talks><talk id=".."><seg>a</seg></talk></talks>')
    write(tmp / "same.xml", '<talks><talk id="a"><seg>x</seg></talk><talk id="b"><seg>y</seg>'
          '</talk><talk id="a"><seg>z</seg></talk></talks>')
    write(tmp / "talk_in_talk.xml", '<talks><talk id="a"><seg>x</seg>\n<talk id="b"><seg>y</seg>'
          "</talk></talk></talks>")
    write(tmp / "seg_in_seg.xml", '<talks><talk id="a"><seg>x<seg>y</seg></seg></talk></talks>')
    write(tmp / "stray_seg.xml", '<talks><seg>x</seg><talk id="a"><seg>y</seg></talk></talks>')
    write(tmp / "summary.txt", "an earlier demo's summary\n")
    write(tmp / "encoding.xml", '<?xml version="1.0" encoding="bogus"?><talks></talks>')


_SELECT = ["select", "--in-domain", "c.txt", "--general", "c.txt", "-o", "o.txt"]
_MANIFEST = str(DATA / "comparable" / "manifest.tsv")
_GOLD = str(DATA / "gold.tsv")
_ALIGN = ["align", "p.tsv", "-o", "links.txt"]
_TUNE = ["tune-mine", _MANIFEST, _GOLD, "--lexicon", "lex.tsv", "-o", "grid.tsv"]
_SCORE = ["score", "--hyp", "c.txt", "--ref", "c.txt", "-o", "s.tsv"]

# (argv, exit code, fragment of the last stderr line)
ERROR_CASES = [
    (_SELECT + ["--rate", "0"], 1, "acceptance rate must be in (0, 1], got 0.0"),
    (_SELECT + ["--weights", "0,0,0"], 1, "weights must be >= 0 with a positive"),
    (_SELECT + ["--weights=-1,1,1"], 1, "weights must be >= 0 with a positive"),
    (_SELECT + ["--weights", "1,2"], 1, "weights needs exactly three"),
    (_SELECT + ["--lm-order", "0"], 1, "lm-order must be >= 1, got 0"),
    (_SELECT + ["--edit-sample=-1"], 1, "edit-sample must be >= 0, got -1"),
    (["train-lm", "c.txt", "-o", "m.arpa", "--order", "0"], 1, "order must be >= 1, got 0"),
    (["train-lex", "p.tsv", "-o", "l.tsv", "--iters", "0"], 1, "iters must be >= 1, got 0"),
    (["clean", "p.tsv", "-o", "c.tsv", "--max-ratio", "0.5"], 1, "max ratio must be >= 1"),
    (["mine", _MANIFEST, "--lexicon", "lex.tsv", "-o", "m.tsv", "--threshold", "nan"], 1,
     "threshold must be >= 0, got nan"),
    (["mine", _MANIFEST, "--lexicon", "lex.tsv", "-o", "m.tsv", "--gap-penalty", "nan"], 1,
     "gap penalty must be <= 0, got nan"),
    (["tune-mine", _MANIFEST, _GOLD, "--lexicon", "lex.tsv", "--thresholds", ""], 1,
     "empty number list"),
    (["demo", "--workdir", "w", "--rate", "0"], 1, "acceptance rate must be in (0, 1]"),
    (["stats", "bad.txt"], 2, "bad.txt: not UTF-8: invalid start byte (line 2, byte 5)"),
    (["train-lm", "c.txt", "-o", "m.arpa", "--config", "bad.txt"], 2, "(line 2, byte 5)"),
    (["mine", "bad.txt", "--lexicon", "lex.tsv", "-o", "m.tsv"], 2, "bad.txt: not UTF-8"),
    (["mine", _MANIFEST, "--lexicon", "bad.txt", "-o", "m.tsv"], 2, "bad.txt: not UTF-8"),
    (["tune-mine", _MANIFEST, _GOLD, "--lexicon", "bad.txt"], 2, "bad.txt: not UTF-8"),
    (_ALIGN + ["--forward-lex", "bad.txt", "--reverse-lex", "lex.tsv"], 2, "bad.txt: not UTF-8"),
    (_ALIGN + ["--forward-lex", "lex.tsv", "--reverse-lex", "bad.txt"], 2, "bad.txt: not UTF-8"),
    (["ppl", "c.txt", "--model", "bad.txt"], 2, "bad.txt: not UTF-8"),
    (["ppl", "oov.txt", "--model", "nounk.arpa"], 2, "model has no unigram '<unk>'"),
    (_SELECT + ["--weights", "-1,1,1"], 1, "weights must be >= 0 with a positive"),
    (["clean", "p.tsv", "-o", "c.tsv", "--seed", "3"], 1, "unrecognized arguments: --seed 3"),
    (["tune-mine", _MANIFEST, _GOLD, "--lexicon", "lex.tsv", "-o", "grid.tsv", "--workers", "2"],
     1, "unrecognized arguments: --workers 2"),
    (["stats", "c.txt", "--force"], 1, "unrecognized arguments: --force"),
    (["demo", "--workdir", "w", "--no-lowercase"], 1, "unrecognized arguments: --no-lowercase"),
    (["clean", "p.tsv", "-o", "c.tsv", "--config", "typo.cfg"], 2,
     "unknown config key: 'max_ration'"),
    (_ALIGN + ["--forward-lex", "lex.tsv", "--reverse-lex", "lex.tsv", "--config", "h.cfg"], 2,
     "bad config value for heuristic: 'diagonal'"),
    (["train-lm", "c.txt", "-o", "m.arpa", "--config", "zero.cfg"], 1, "order must be >= 1, got 0"),
    (_TUNE + ["--thresholds", "0.3,nan"], 1, "threshold must be >= 0, got nan"),
    (_TUNE + ["--penalties", "0.5"], 1, "gap penalty must be <= 0, got 0.5"),
    (_SCORE + ["--docs", "extra.tsv"], 2, "document map lists segment 7, outside 0..1"),
    (_SCORE + ["--docs", "twice.tsv"], 2, "segment 1 is listed twice (line 3)"),
    (["mine", "nul.tsv", "--lexicon", "lex.tsv", "-o", "m.tsv"], 2, "(line 1)"),
    (["ingest-ted", "escape.xml", "-o", "out"], 2,
     "talk id '../escaped' is not a plain file name"),
    (["ingest-ted", "dots.xml", "-o", "out"], 2, "talk id '..' is not a plain file name"),
    (["ingest-ted", "same.xml", "-o", "out"], 2, "talk id 'a' is repeated"),
    (["ingest-ted", "talk_in_talk.xml", "-o", "out"], 2,
     "<talk> nested in <talk> (line 2, byte 33)"),
    (["ingest-ted", "seg_in_seg.xml", "-o", "out"], 2, "<seg> nested in <seg> (line 1, byte 26)"),
    (["ingest-ted", "stray_seg.xml", "-o", "out"], 2,
     "<seg> outside every <talk> (line 1, byte 7)"),
    (["stats", "c.txt", "c.txt", "c.txt"], 2,
     "expected one TSV file or two line-aligned text files"),
    (["stats", "--tsv", "p.tsv", "p.tsv"], 1, "--tsv takes exactly one input"),
    (["clean", "p.tsv", "-o", "same.txt", "--report", "same.txt"], 1,
     "two outputs name one file: same.txt and same.txt"),
    (["mine", _MANIFEST, "--lexicon", "lex.tsv", "-o", "m.tsv", "--report", "./m.tsv"], 1,
     "two outputs name one file: m.tsv and ./m.tsv"),
    (_SELECT + ["--table", "sub/../o.txt"], 1, "two outputs name one file: o.txt and sub/../o.txt"),
    (_SCORE + ["--system", "A\tB"], 1, "system name 'A\\tB' holds a tab or line break"),
    (_SCORE + ["--system", "A\nB"], 1, "system name 'A\\nB' holds a tab or line break"),
    (_SCORE + ["--config", "system.cfg"], 1, "system name 'A\\tB' holds a tab or line break"),
    (_SCORE + ["--docs", "all.tsv"], 2, "document id 'ALL' is the corpus row's id"),
    # two faults: the setting is reported, not the existing output
    (["clean", "p.tsv", "-o", "c.txt", "--max-ratio", "0.5"], 1, "max ratio must be >= 1"),
    (["demo", "--workdir", ".", "--rate", "0"], 1, "acceptance rate must be in (0, 1]"),
    (_SCORE + ["--docs", "blank.tsv"], 2, "document id '' is blank"),
    (_SCORE + ["--docs", "spaced.tsv"], 2,
     "document id 'd1 ' has leading or trailing whitespace"),
    (["ingest-ted", "encoding.xml", "-o", "out"], 2,
     "unsupported encoding 'bogus' in the XML declaration (line 1, byte 30)"),
    (["mine", _MANIFEST, "--lexicon", "lex.tsv", "-o", "m.tsv", "--min-prob", "nan"], 1,
     "min prob must be > 0, got nan"),
    (_TUNE + ["--min-prob", "nan"], 1, "min prob must be > 0, got nan"),
    (["train-lm", "c.txt", "-o", "m.arpa", "--min-count", "0"], 1,
     "min-count must be >= 1, got 0"),
    (["mine", _MANIFEST, "--lexicon", "lex.tsv", "-o", "m.tsv", "--min-prob", "0"], 1,
     "min prob must be > 0, got 0.0"),
    (_TUNE + ["--min-prob", "-1"], 1, "min prob must be > 0, got -1.0"),
]


@pytest.mark.parametrize("argv, code, fragment", ERROR_CASES)
def test_error_exit_code_and_one_line_message(tmp_path, argv, code, fragment):
    _error_files(tmp_path)
    before = sorted(tmp_path.iterdir())
    paths = [str(DATA.parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "corpusforge.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert fragment in proc.stderr.splitlines()[-1]
    assert sorted(tmp_path.iterdir()) == before


SUBCOMMANDS = [
    "ingest-ted", "clean", "stats", "train-lex", "align", "mine",
    "tune-mine", "train-lm", "ppl", "select", "score", "demo",
]


def test_help_lists_every_subcommand_in_order(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "|".join(SUBCOMMANDS) in out.split("positional arguments:")[0]
    section = out.split("positional arguments:")[1].split("options:")[0]
    listed = [line.split()[0] for line in section.splitlines()[2:] if line.strip()]
    assert listed == SUBCOMMANDS


# One run of each subcommand that succeeds and writes every output it can.
START_CASES = [
    ["ingest-ted", str(DATA / "ted_source.xml"), "-o", "docs"],
    ["clean", "p.tsv", "-o", "c.tsv", "--report", "r.txt"],
    ["stats", "c.txt"],
    ["train-lex", "p.tsv", "-o", "l.tsv"],
    _ALIGN + ["--forward-lex", "lex.tsv", "--reverse-lex", "lex.tsv"],
    ["mine", _MANIFEST, "--lexicon", "lex.tsv", "-o", "m.tsv", "--report", "mr.txt"],
    ["tune-mine", _MANIFEST, _GOLD, "--lexicon", "lex.tsv", "-o", "grid.tsv"],
    ["train-lm", "c.txt", "-o", "new.arpa"],
    ["ppl", "c.txt", "--model", "m.arpa", "-o", "ppl.tsv"],
    _SELECT + ["--table", "t.tsv"],
    ["score", "--hyp", "c.txt", "--ref", "c.txt", "-o", "s.tsv"],
    ["demo", "--workdir", "w"],
]


@pytest.mark.parametrize("argv", START_CASES, ids=lambda argv: argv[0])
def test_resolved_config_is_logged_before_any_output(tmp_path, monkeypatch, caplog, argv):
    _error_files(tmp_path)
    model = lm.train_lm(corpus_io.read_corpus(tmp_path / "c.txt"), order=2)
    write(tmp_path / "m.arpa", lm.write_arpa(model))
    monkeypatch.chdir(tmp_path)
    caplog.set_level(logging.INFO)
    marker = f"resolved config [{argv[0]}]"
    logged_at_write = []
    atomic_write = corpus_io.atomic_write

    def recording_write(path, text):
        logged_at_write.append(marker in caplog.text)
        atomic_write(path, text)

    monkeypatch.setattr(corpus_io, "atomic_write", recording_write)
    assert run(argv) == 0
    assert marker in caplog.text
    assert all(logged_at_write)
    assert logged_at_write or argv[0] == "stats"


# The required arguments of each subcommand, in SUBCOMMANDS order.
REQUIRED_ARGV = {
    "ingest-ted": ["t.xml", "-o", "docs"],
    "clean": ["p.tsv", "-o", "c.tsv"],
    "stats": ["c.txt"],
    "train-lex": ["p.tsv", "-o", "l.tsv"],
    "align": ["p.tsv", "-o", "a.txt", "--forward-lex", "f.tsv", "--reverse-lex", "r.tsv"],
    "mine": ["m.tsv", "--lexicon", "lex.tsv", "-o", "o.tsv"],
    "tune-mine": ["m.tsv", "g.tsv", "--lexicon", "lex.tsv"],
    "train-lm": ["c.txt", "-o", "m.arpa"],
    "ppl": ["c.txt", "--model", "m.arpa"],
    "select": ["--in-domain", "c.txt", "--general", "c.txt", "-o", "o.txt"],
    "score": ["--hyp", "c.txt", "--ref", "c.txt"],
    "demo": ["--workdir", "w"],
}


def _config_flags(sub):
    """The flags a config file may set: optional ones, minus --config and --help."""
    return [
        action
        for action in sub._actions
        if action.option_strings
        and not action.required
        and action.dest not in ("config", "help")
    ]


CONFIG_FLAGS = [
    pytest.param(command, action.dest, id=f"{command}-{action.dest}")
    for command, sub in build_parser().subcommands.items()
    for action in _config_flags(sub)
]


def _sample_value(action) -> str:
    """A value for the flag that differs from its default."""
    if action.choices:
        return next(c for c in action.choices if c != action.default)
    return {int: "7", float: "0.25", None: "x.out"}.get(action.type, "0.25,-0.5")


class TestConfigMatchesFlags:
    def test_every_subcommand_is_walked(self):
        assert list(build_parser().subcommands) == list(REQUIRED_ARGV) == SUBCOMMANDS

    @pytest.mark.parametrize("command, dest", CONFIG_FLAGS)
    def test_config_line_parses_like_its_flag(self, tmp_path, command, dest):
        sub = build_parser().subcommands[command]
        action = next(a for a in _config_flags(sub) if a.dest == dest)
        if action.nargs == 0:
            flag, line = [action.option_strings[-1]], f"{dest} = true"
        else:
            value = _sample_value(action)
            flag, line = [action.option_strings[-1], value], f"{dest} = {value}"
        config = write(tmp_path / "c.cfg", line + "\n")
        argv = [command, *REQUIRED_ARGV[command]]
        default = vars(parse_args(build_parser(), argv))
        by_flag = vars(parse_args(build_parser(), argv + flag))
        by_config = vars(parse_args(build_parser(), argv + ["--config", str(config)]))
        assert by_flag[dest] != default[dest]
        assert by_config == dict(by_flag, config=str(config))

    def test_score_smooth_and_system_from_config(self, tmp_path, capsys):
        # two-token segments have no 4-grams: only smoothing lifts BLEU above 0
        short = write(tmp_path / "short.txt", "a b\n")
        config = write(tmp_path / "s.cfg", "smooth = true\nsystem = FOO\n")
        argv = ["score", "--hyp", str(short), "--ref", str(short)]
        assert run(argv + ["--smooth", "--system", "FOO"]) == 0
        by_flags = capsys.readouterr().out
        assert run(argv + ["--config", str(config)]) == 0
        assert capsys.readouterr().out == by_flags
        assert [cell.strip() for cell in by_flags.splitlines()[1].split("|")][1:3] == [
            "FOO", "100.00"
        ]

    def test_train_lex_reverse_from_config(self, tmp_path):
        corpus = write(tmp_path / "p.tsv", "the water\tla aqua\nthe bird\tla pajaro\n")
        config = write(tmp_path / "r.cfg", "reverse = yes\n")
        plain, by_flag, by_config = (tmp_path / f"{n}.tsv" for n in ("plain", "flag", "cfg"))
        assert run(["train-lex", str(corpus), "-o", str(plain)]) == 0
        assert run(["train-lex", str(corpus), "-o", str(by_flag), "--reverse"]) == 0
        assert run(["train-lex", str(corpus), "-o", str(by_config), "--config", str(config)]) == 0
        assert by_config.read_bytes() == by_flag.read_bytes() != plain.read_bytes()

    def test_explicit_flag_overrides_config(self, tmp_path):
        config = write(tmp_path / "s.cfg", "system = FOO\nno-shifts = on\n")
        argv = ["score", "--hyp", "h.txt", "--ref", "r.txt", "--config", str(config)]
        assert parse_args(build_parser(), argv + ["--system", "BAR"]).system == "BAR"
        assert parse_args(build_parser(), argv).no_shifts is True


@pytest.mark.parametrize("command", SUBCOMMANDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_config_reader_parses_or_raises_corpusforge_error(tmp_path_factory, command, data):
    sub = build_parser().subcommands[command]
    keys = [action.dest for action in _config_flags(sub)] + ["config", "bogus"]
    line = st.tuples(st.sampled_from(keys), st.text(max_size=12)).map(" = ".join)
    text = st.lists(line, max_size=4).map("\n".join).map(lambda t: t.encode("utf-8"))
    raw = data.draw(st.one_of(st.binary(max_size=80), text))
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(raw)
    try:
        values = config_defaults(sub, path)
    except CorpusForgeError:
        return
    assert set(values) <= set(keys[:-2])


# Each file reader as the CLI calls it, on a path.
READERS = {
    "lexicon": lambda path: word_align.read_lexicon(corpus_io.read_text(path)),
    "gold_links": corpus_io.read_gold_links,
    "doc_map": corpus_io.read_doc_map,
    "manifest": corpus_io.read_manifest,
    "ted_xml": lambda path: ingest_ted_xml(path.read_bytes()),
    "parallel_tsv": corpus_io.read_parallel_tsv,
    "parallel_files": lambda path: corpus_io.read_parallel_files(path, path),
    "corpus": corpus_io.read_corpus,
}
# Arbitrary bytes; rows of fields that pass the first checks, naming the
# fuzzed file itself among others; and talks with arbitrary ids and segments.
_FIELD = st.sampled_from(["fuzz.in", "missing.txt", "", ".", "0", "-3", "1.5", "x y", "nan"])
_ROWS = st.lists(st.lists(_FIELD, min_size=1, max_size=4).map("\t".join), max_size=4)
_TALK = st.tuples(st.binary(max_size=12), st.binary(max_size=40)).map(
    lambda t: b'<talk id="' + t[0] + b'"><seg>' + t[1] + b"</seg></talk>"
)
_READER_INPUT = st.one_of(
    st.binary(max_size=120), _ROWS.map(lambda rows: "\n".join(rows).encode("utf-8")), _TALK
)


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=200, deadline=None)
@given(raw=_READER_INPUT)
def test_reader_parses_or_raises_corpusforge_error(tmp_path_factory, reader, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.in"
    path.write_bytes(raw)
    try:
        READERS[reader](path)
    except CorpusForgeError:
        pass
    except OSError:
        assert reader == "manifest"  # a path it names cannot be opened


# Every check of a setting in the library, each given one value outside its range.
_PAIR = ParallelCorpus(pairs=[(make_sentence("a b"), make_sentence("x y"))])
_LINKS = word_align.AlignmentLinks(links=frozenset({(0, 0)}))
_DOCS = mine.DocumentPair(Document("d", [make_sentence("a")]), Document("d", [make_sentence("x")]))
_GOLD_PAIRS = [(_DOCS, {(0, 0)})]
_LEXICON = word_align.read_lexicon("a\tx\t1.0\n")
SETTING_CHECKS = {
    "mining-threshold": lambda: mine.MiningConfig(threshold=-1),
    "mining-gap-penalty": lambda: mine.MiningConfig(gap_penalty=0.5),
    "mining-workers": lambda: mine.MiningConfig(workers=0),
    "mining-min-prob": lambda: mine.MiningConfig(min_prob=float("nan")),
    "mining-min-prob-zero": lambda: mine.MiningConfig(min_prob=0.0),
    "mining-min-prob-negative": lambda: mine.MiningConfig(min_prob=-1.0),
    "mining-min-prob-minus-inf": lambda: mine.MiningConfig(min_prob=float("-inf")),
    "selection-rate": lambda: selection.SelectionConfig(acceptance_rate=0),
    "selection-pair-mode": lambda: selection.SelectionConfig(pair_mode="both"),
    "selection-weight-count": lambda: selection.SelectionConfig(weights=(1.0, 2.0)),
    "selection-weight-sum": lambda: selection.SelectionConfig(weights=(0.0, 0.0, 0.0)),
    "selection-edit-sample": lambda: selection.build_profile(
        [make_sentence("a")], [make_sentence("a")], edit_sample_size=-1
    ),
    # two in-domain sentences, so that 1.5 reaches the sampling step
    "selection-edit-sample-fraction": lambda: selection.build_profile(
        make_corpus(["a", "b"]), [make_sentence("a")], edit_sample_size=1.5
    ),
    "selection-edit-sample-none": lambda: selection.build_profile(
        [make_sentence("a")], [make_sentence("a")], edit_sample_size=None
    ),
    "cleaning-max-ratio": lambda: CleaningRules(max_ratio=0.5),
    "lm-order": lambda: lm.train_lm([make_sentence("a")], order=0),
    "model1-iterations": lambda: word_align.train_model1(_PAIR, iterations=0),
    "symmetrize-heuristic": lambda: word_align.symmetrize(_LINKS, _LINKS, "diagonal", 2, 2),
    "tune-thresholds": lambda: mine.tune(_GOLD_PAIRS, _LEXICON, [], [-0.2]),
    "tune-penalties": lambda: mine.tune(_GOLD_PAIRS, _LEXICON, [0.5], []),
    "tune-min-prob": lambda: mine.tune(_GOLD_PAIRS, _LEXICON, min_prob=float("nan")),
    "tune-min-prob-zero": lambda: mine.tune(_GOLD_PAIRS, _LEXICON, min_prob=0),
    "model1-iterations-fraction": lambda: word_align.train_model1(_PAIR, iterations=2.5),
    "lm-order-fraction": lambda: lm.train_lm([make_sentence("a")], order=2.5),
    "lm-min-count-nan": lambda: lm.train_lm([make_sentence("a")], min_count=float("nan")),
    "mining-workers-float": lambda: mine.MiningConfig(workers=2.0),
    "tune-threshold-negative": lambda: mine.tune(_GOLD_PAIRS, _LEXICON, [-1.0], [-0.2]),
    "tune-threshold-nan": lambda: mine.tune(_GOLD_PAIRS, _LEXICON, [float("nan")], [-0.2]),
    "tune-penalty-positive": lambda: mine.tune(_GOLD_PAIRS, _LEXICON, [0.5], [0.5]),
    "tune-penalty-nan": lambda: mine.tune(_GOLD_PAIRS, _LEXICON, [0.5], [float("nan")]),
    "mining-threshold-string": lambda: mine.MiningConfig(threshold="0.5"),
    "mining-threshold-bool": lambda: mine.MiningConfig(threshold=True),
    "mining-min-prob-string": lambda: mine.MiningConfig(min_prob="x"),
    "mining-gap-penalty-none": lambda: mine.MiningConfig(gap_penalty=None),
    "selection-rate-none": lambda: selection.SelectionConfig(acceptance_rate=None),
    "selection-weight-none": lambda: selection.SelectionConfig(weights=(1.0, None, 1.0)),
    "cleaning-max-ratio-none": lambda: CleaningRules(max_ratio=None),
}


@pytest.mark.parametrize("check", SETTING_CHECKS)
def test_every_setting_check_raises_setting_error(check):
    with pytest.raises(SettingError) as caught:
        SETTING_CHECKS[check]()
    assert isinstance(caught.value, ValueError)
    assert isinstance(caught.value, CorpusForgeError)


# Low enough log-probabilities overflow the power 10 ** (-lp / n).
OVERFLOW_ARPA = "\\data\\\nngram 1=3\n\n\\1-grams:\n-400\t</s>\n-99\t<s>\n-400\ta\n\n\\end\\\n"


def test_ppl_reports_an_overflowing_perplexity_as_inf(tmp_path, capsys):
    model = write(tmp_path / "m.arpa", OVERFLOW_ARPA)
    corpus = write(tmp_path / "a.txt", "a\n")
    table = tmp_path / "ppl.tsv"
    assert run(["ppl", str(corpus), "--model", str(model), "-o", str(table)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "perplexity=inf"
    assert table.read_text().splitlines()[1] == "0\tinf\t-800.000000\t2\t0"


# The exit-code contract on mutated inputs: each subcommand but the demo, run
# in process with one worker, on small slices of the bundled data. An argument
# that names a contract input is read; one after an output flag is written.
CONTRACT_ARGV = {
    "ingest-ted": ["t.xml", "-o", "docs"],
    "clean": ["p.tsv", "-o", "clean.tsv", "--report", "r.txt"],
    "stats": ["src.txt", "tgt.txt"],
    "train-lex": ["src.txt", "tgt.txt", "-o", "l.tsv", "--iters", "2"],
    "align": ["p.tsv", "--forward-lex", "fwd.tsv", "--reverse-lex", "rev.tsv", "-o", "a.txt"],
    "mine": ["manifest.tsv", "--lexicon", "fwd.tsv", "-o", "m.tsv", "--report", "mr.txt",
             "--workers", "1"],
    "tune-mine": ["manifest.tsv", "gold.tsv", "--lexicon", "fwd.tsv", "-o", "g.tsv",
                  "--thresholds", "0.3,0.5", "--penalties=-0.1,-0.2"],
    "train-lm": ["c.txt", "-o", "new.arpa", "--order", "3"],
    "ppl": ["c.txt", "--model", "m.arpa", "-o", "ppl.tsv"],
    "select": ["--in-domain", "c.txt", "--general", "tgt.txt", "--parallel", "p.tsv",
               "-o", "sel.tsv", "--table", "t.tsv", "--lm-order", "2"],
    "score": ["--hyp", "c.txt", "--ref", "ref.txt", "--docs", "docmap.tsv", "-o", "s.tsv"],
}
_OUTPUT_FLAGS = ("-o", "--report", "--table")
# files the manifest names, which mine and tune-mine read too
_NAMED_BY_MANIFEST = ["doc01.src.txt", "doc01.tgt.txt", "doc03.src.txt", "doc03.tgt.txt"]


def _head(path: Path, lines: int) -> str:
    return "".join(path.read_text("utf-8").splitlines(keepends=True)[:lines])


@pytest.fixture(scope="module")
def contract_inputs() -> dict[str, bytes]:
    """Every file CONTRACT_ARGV reads, by name."""
    xml = (DATA / "ted_source.xml").read_text("utf-8").splitlines(keepends=True)
    source, target = (ingest_ted_xml((DATA / f"ted_{side}.xml").read_bytes())[0]
                      for side in ("source", "target"))
    pairs = ParallelCorpus(pairs=list(zip(source.sentences[:8], target.sentences[:8])))
    flipped = ParallelCorpus(pairs=[(t, s) for s, t in pairs.pairs])
    texts = {
        "t.xml": "".join(xml[:28]) + "</corpus>\n",
        "src.txt": corpus_io.corpus_text(pairs.source_sentences),
        "tgt.txt": corpus_io.corpus_text(pairs.target_sentences),
        "p.tsv": corpus_io.parallel_tsv(pairs),
        "fwd.tsv": word_align.write_lexicon(word_align.train_model1(pairs, iterations=2)[0]),
        "rev.tsv": word_align.write_lexicon(word_align.train_model1(flipped, iterations=2)[0]),
        "manifest.tsv": "doc01.src.txt\tdoc01.tgt.txt\ndoc03.src.txt\tdoc03.tgt.txt\n",
        "gold.tsv": "".join(
            line for line in (DATA / "gold.tsv").read_text("utf-8").splitlines(keepends=True)
            if line.startswith(("doc01.src\t", "doc03.src\t"))
        ),
        "c.txt": _head(DATA / "hyp.txt", 6),
        "ref.txt": _head(DATA / "ref.txt", 6),
        "docmap.tsv": _head(DATA / "docmap.tsv", 6),
        "m.arpa": lm.write_arpa(lm.train_lm(corpus_io.read_corpus(DATA / "hyp.txt"), order=2)),
    }
    texts.update((name, (DATA / "comparable" / name).read_text("utf-8"))
                 for name in _NAMED_BY_MANIFEST)
    return {name: text.encode("utf-8") for name, text in texts.items()}


class _ErrorRecords(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(self.format(record))


# Bytes that readers split or parse on, and arbitrary ones.
_PIECE = st.one_of(
    st.sampled_from([b"\t", b"\n", b"\r", b" ", b"0", b"-1", b"nan", b"1e400", b"\xff", b"\0",
                     b"<seg>", b"</talk>", b'<talk id="1001">', b"\\end\\", b"ngram 1=", b"-400"]),
    st.binary(max_size=4),
)


@pytest.mark.parametrize("command", CONTRACT_ARGV)
@settings(max_examples=100, deadline=None)
@given(victim=st.integers(0, 7), start=st.integers(0, 10**4), length=st.integers(0, 10**4),
       payload=st.lists(_PIECE, max_size=4).map(b"".join))
@example(victim=0, start=0, length=0, payload=b"")  # the inputs as they are
# ppl's model replaced by one whose perplexity overflows a float
@example(victim=1, start=0, length=10**4,
         payload=OVERFLOW_ARPA.replace("\ta\n", "\t<unk>\n").encode("utf-8"))
def test_cli_exit_code_contract_on_one_mutated_input(
    tmp_path_factory, contract_inputs, command, victim, start, length, payload
):
    # splice the payload over `length` bytes at `start` of one input file
    args = CONTRACT_ARGV[command]
    names = [arg for arg in args if arg in contract_inputs]
    names += _NAMED_BY_MANIFEST if "manifest.tsv" in names else []
    work = tmp_path_factory.mktemp(command)
    for each in names:
        (work / each).write_bytes(contract_inputs[each])
    name = names[victim % len(names)]
    raw = contract_inputs[name]
    start %= len(raw) + 1
    (work / name).write_bytes(raw[:start] + payload + raw[start + length:])
    paths = [arg in names or flag in _OUTPUT_FLAGS for flag, arg in zip([None] + args, args)]
    argv = [command] + [str(work / arg) if path else arg for arg, path in zip(args, paths)]
    errors = _ErrorRecords()
    logging.getLogger().addHandler(errors)
    try:
        code = run(argv)
    finally:
        logging.getLogger().removeHandler(errors)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert code == 0 or length or payload, "the unmutated inputs must pass"
    if code == 2:
        assert len(errors.messages) == 1 and "\n" not in errors.messages[0], errors.messages
