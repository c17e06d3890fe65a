"""Command-line pipeline: artifacts, manifests, exit codes, config handling."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import iprank
from iprank.cli import main, read_manifest, read_score_columns
from iprank.graphs import graph_from_tsv
from iprank.ingest import clicks_to_tsv, events_to_tsv, follows_to_tsv, ClickTable
from iprank.testkit import SynthParams, synth_trace

RT_FIXTURE = (
    "1\tposter\tl-a\tM\n"
    "2\tposter\tl-b\tM\n"
    "3\tposter\tl-c\tM\n"
    "9\treader\tl-a\tRT\tposter\n"
)


@pytest.fixture
def trace_dir(tmp_path):
    log, follows = synth_trace(
        SynthParams(
            users=25,
            broadcasters=6,
            follow_prob=0.35,
            mention_rate=4.0,
            retweet_prob=0.5,
            url_pool=15,
            seed=41,
        )
    )
    (tmp_path / "events.tsv").write_text(events_to_tsv(log), encoding="utf-8")
    (tmp_path / "follows.tsv").write_text(follows_to_tsv(follows), encoding="utf-8")
    clicks = ClickTable({f"url{i:03d}": (i * 37) % 991 + 1 for i in range(15)})
    (tmp_path / "clicks.tsv").write_text(clicks_to_tsv(clicks), encoding="utf-8")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestBuild:
    def test_three_user_retweet_fixture(self, tmp_path):
        events = tmp_path / "events.tsv"
        events.write_text(RT_FIXTURE + "4\tthird\tl-z\tM\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            "build", "--events", events, "--graph-type", "rt",
            "--min-urls", "1", "--out-dir", out,
        )
        assert code == 0
        g = graph_from_tsv((out / "graph.tsv").read_text(encoding="utf-8"))
        assert g.num_arcs == 1
        assert g.weight("poster", "reader") == 1.0 / 3.0
        raw = (out / "graph.tsv").read_text(encoding="utf-8")
        assert "poster\treader\t0.3333333333333333\n" in raw

    def test_stats_artifact(self, trace_dir):
        out = trace_dir / "out"
        assert run(
            "build", "--events", trace_dir / "events.tsv", "--graph-type", "rt",
            "--min-urls", "1", "--out-dir", out,
        ) == 0
        stats = (out / "graph_stats.tsv").read_text(encoding="utf-8")
        assert "nodes\t" in stats and "mean_weight\t" in stats

    def test_comention_requires_follows(self, trace_dir):
        code = run(
            "build", "--events", trace_dir / "events.tsv",
            "--graph-type", "comention", "--out-dir", trace_dir / "out",
        )
        assert code == 2  # MissingInput


class TestIp:
    def test_scores_and_trace(self, trace_dir):
        out = trace_dir / "out"
        assert run(
            "ip", "--events", trace_dir / "events.tsv", "--graph-type", "rt",
            "--min-urls", "1", "--out-dir", out,
        ) == 0
        label, columns = read_score_columns(str(out / "ip_scores.tsv"))
        assert label == "ip"
        assert set(columns) == {"influence", "passivity"}
        assert abs(columns["influence"].values.sum() - 1.0) < 1e-12
        trace_text = (out / "ip_trace.tsv").read_text(encoding="utf-8")
        assert any(line[0].isdigit() for line in trace_text.splitlines())

    def test_empty_graph_exit_code(self, tmp_path):
        # nobody retweets, so the rt graph has no arcs
        events = tmp_path / "events.tsv"
        events.write_text("1\ta\tx\tM\n2\tb\ty\tM\n", encoding="utf-8")
        code = run(
            "ip", "--events", events, "--graph-type", "rt",
            "--min-urls", "1", "--out-dir", tmp_path / "out",
        )
        assert code == 1

    def test_prebuilt_graph_input(self, trace_dir):
        out = trace_dir / "out"
        run(
            "build", "--events", trace_dir / "events.tsv", "--graph-type", "rt",
            "--min-urls", "1", "--out-dir", out,
        )
        out2 = trace_dir / "out2"
        assert run("ip", "--graph", out / "graph.tsv", "--out-dir", out2) == 0
        assert (out2 / "ip_scores.tsv").exists()


class TestReports:
    def setup_scores(self, trace_dir):
        out = trace_dir / "out"
        for cmd in ("ip", "pagerank"):
            assert run(
                cmd, "--events", trace_dir / "events.tsv", "--graph-type", "rt",
                "--min-urls", "1", "--out-dir", out,
            ) == 0
        return out

    def test_pagerank_hindex_vectors(self, trace_dir):
        out = self.setup_scores(trace_dir)
        assert run("hindex", "--events", trace_dir / "events.tsv", "--out-dir", out) == 0
        label, cols = read_score_columns(str(out / "pagerank.tsv"))
        assert label == "pagerank"
        assert abs(cols["pagerank"].values.sum() - 1.0) < 1e-12
        label, cols = read_score_columns(str(out / "hindex.tsv"))
        assert label == "hindex"

    def test_rank_from_scores_file(self, trace_dir):
        out = self.setup_scores(trace_dir)
        assert run(
            "rank", "--scores", out / "ip_scores.tsv", "--column", "influence",
            "--top-k", "5", "--out-dir", out,
        ) == 0
        text = (out / "rank.tsv").read_text(encoding="utf-8")
        assert "#report=top5_influence" in text

    def test_rank_with_computed_measure_and_predicate(self, trace_dir):
        out = trace_dir / "out"
        assert run(
            "rank", "--measure", "followers", "--follows", trace_dir / "follows.tsv",
            "--events", trace_dir / "events.tsv", "--min-posted", "2",
            "--top-k", "3", "--out-dir", out,
        ) == 0
        assert (out / "measure_followers.tsv").exists()
        assert (out / "rank.tsv").exists()

    def test_compare(self, trace_dir):
        out = self.setup_scores(trace_dir)
        assert run(
            "compare",
            "--scores-a", out / "ip_scores.tsv", "--column-a", "influence",
            "--scores-b", out / "pagerank.tsv",
            "--out-dir", out,
        ) == 0
        text = (out / "compare.tsv").read_text(encoding="utf-8")
        assert "#spearman=" in text
        assert "#report=influence_vs_pagerank" in text

    def test_rates(self, trace_dir):
        out = trace_dir / "out"
        assert run(
            "rates", "--events", trace_dir / "events.tsv",
            "--follows", trace_dir / "follows.tsv", "--out-dir", out,
        ) == 0
        assert "#user_rate mean=" in (out / "rates.tsv").read_text(encoding="utf-8")

    def test_curve(self, trace_dir):
        out = self.setup_scores(trace_dir)
        assert run(
            "curve", "--scores", out / "ip_scores.tsv", "--column", "influence",
            "--events", trace_dir / "events.tsv", "--clicks", trace_dir / "clicks.tsv",
            "--bin-count", "5", "--out-dir", out,
        ) == 0
        text = (out / "curve.tsv").read_text(encoding="utf-8")
        assert text.rstrip().splitlines()[-1].startswith("#fit slope=")


class TestScoreFiles:
    # characters str.splitlines() breaks lines at, but the event parser keeps in an id
    ODD_IDS = ("po\x0cster", "re\x85ader", "x\x1cy", "a\u2028b")

    def test_scores_with_line_break_like_ids_read_back(self, tmp_path):
        poster, reader, third, fourth = self.ODD_IDS
        events = tmp_path / "events.tsv"
        events.write_text(
            f"1\t{poster}\tl-a\tM\n2\t{poster}\tl-b\tM\n3\t{third}\tl-c\tM\n"
            f"4\t{fourth}\tl-a\tM\n"
            f"9\t{reader}\tl-a\tRT\t{poster}\n10\t{third}\tl-b\tRT\t{poster}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run("hindex", "--events", events, "--out-dir", out) == 0
        assert run("rank", "--scores", out / "hindex.tsv", "--top-k", "4", "--out-dir", out) == 0
        rank_text = (out / "rank.tsv").read_text(encoding="utf-8")
        rows = [line for line in rank_text.split("\n") if line and not line.startswith("#")]
        assert rows[0] == f"{poster}\t1\t1"
        assert sorted(row.split("\t")[0] for row in rows) == sorted(self.ODD_IDS)
        assert run(
            "compare", "--scores-a", out / "hindex.tsv", "--measure-b", "retweets",
            "--events", events, "--out-dir", out,
        ) == 0
        compare_text = (out / "compare.tsv").read_text(encoding="utf-8")
        assert len([line for line in compare_text.split("\n") if line[:1] not in ("#", "")]) == 4
        _, columns = read_score_columns(str(out / "hindex.tsv"))
        assert columns["hindex"].node_ids == tuple(sorted(self.ODD_IDS))

    @pytest.mark.parametrize("value", ["nope", "nan", "", "NaN"])
    def test_bad_score_value_is_config_error(self, tmp_path, capsys, value):
        scores = tmp_path / "scores.tsv"
        scores.write_text(f"#measure=m\na\t1\nb\t{value}\n", encoding="utf-8")
        assert run("rank", "--scores", scores, "--out-dir", tmp_path / "out") == 2
        assert "error: ConfigInvalid: line 3 of" in capsys.readouterr().err

    def test_bad_three_column_value_is_config_error(self, tmp_path):
        scores = tmp_path / "scores.tsv"
        scores.write_text("a\t0.5\t0.5\nb\t0.5\tnan\n", encoding="utf-8")
        assert run("rank", "--scores", scores, "--out-dir", tmp_path / "out") == 2

    def test_malformed_graph_line_is_unparsable(self, tmp_path, capsys):
        graph = tmp_path / "graph.tsv"
        graph.write_text("#nodes=3 arcs=2\na\tb\t0.5\na\tc\tzero\n", encoding="utf-8")
        assert run("ip", "--graph", graph, "--out-dir", tmp_path / "out") == 1
        assert "error: UnparsableLine: line 3:" in capsys.readouterr().err


class TestManifests:
    def test_manifest_round_trip(self, trace_dir):
        out = trace_dir / "out"
        run(
            "build", "--events", trace_dir / "events.tsv", "--graph-type", "rt",
            "--min-urls", "1", "--out-dir", out,
        )
        manifest = read_manifest(str(out / "graph.tsv"))
        assert manifest["command"] == "build"
        assert manifest["tool"].startswith("iprank/")
        assert manifest["input.events"].startswith("sha256:")
        assert manifest["param.min_urls"] == "1"
        # re-rendering the parsed entries reproduces the original header block
        raw = [
            line
            for line in (out / "graph.tsv").read_text(encoding="utf-8").splitlines()
            if line.startswith("#manifest ")
        ]
        rebuilt = [f"#manifest {k}={v}" for k, v in manifest.items()]
        assert sorted(raw) == sorted(rebuilt)


class TestConfigHandling:
    def test_config_file_and_flag_override(self, trace_dir):
        cfg = trace_dir / "run.cfg"
        cfg.write_text(
            "events={}\ngraph_type=rt\nmin_urls=1\ntop_k=4\n".format(
                trace_dir / "events.tsv"
            ),
            encoding="utf-8",
        )
        out = trace_dir / "out"
        assert run(
            "rank", "--config", cfg, "--measure", "retweets",
            "--top-k", "2", "--out-dir", out,
        ) == 0
        text = (out / "rank.tsv").read_text(encoding="utf-8")
        assert "#report=top2_retweets" in text  # flag beat the config value

    def test_unknown_config_key(self, trace_dir):
        cfg = trace_dir / "bad.cfg"
        cfg.write_text("nonsense=1\n", encoding="utf-8")
        assert run("build", "--config", cfg, "--events", trace_dir / "events.tsv") == 2

    def test_out_of_range_min_urls(self, trace_dir):
        assert (
            run(
                "build", "--events", trace_dir / "events.tsv",
                "--graph-type", "rt", "--min-urls", "0",
            )
            == 2
        )

    def test_missing_events(self, tmp_path):
        assert run("build", "--events", tmp_path / "nope.tsv") == 2

    def test_lenient_mode_flag(self, tmp_path):
        events = tmp_path / "events.tsv"
        events.write_text("garbage line\n" + RT_FIXTURE, encoding="utf-8")
        strict_code = run(
            "build", "--events", events, "--min-urls", "1",
            "--out-dir", tmp_path / "o1",
        )
        lenient_code = run(
            "build", "--events", events, "--min-urls", "1", "--lenient",
            "--out-dir", tmp_path / "o2",
        )
        assert strict_code == 1
        assert lenient_code == 0

    def test_threads_flag_accepted(self, trace_dir):
        out = trace_dir / "out"
        assert run(
            "build", "--events", trace_dir / "events.tsv", "--min-urls", "1",
            "--threads", "4", "--out-dir", out,
        ) == 0


class TestDeterminism:
    def test_repeat_run_byte_identical(self, trace_dir):
        outs = []
        for name in ("a", "b"):
            out = trace_dir / name
            assert run(
                "ip", "--events", trace_dir / "events.tsv", "--graph-type", "rt",
                "--min-urls", "1", "--out-dir", out,
            ) == 0
            outs.append((out / "ip_scores.tsv").read_bytes())
        assert outs[0] == outs[1]


def test_cli_import_loads_no_scipy():
    # scipy.sparse is imported inside the two kernels that use it
    code = "import sys, iprank.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(iprank.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
