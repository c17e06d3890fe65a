"""Command-line pipeline: artifacts, manifests, exit codes, config handling."""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import iprank
from iprank import cli
from iprank.cli import load_config, main, read_manifest, read_score_columns
from iprank.graphs import graph_from_tsv
from iprank.ingest import clicks_to_tsv, events_to_tsv, follows_to_tsv, ClickTable
from iprank.testkit import SynthParams, arc_weights, synth_trace

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
        assert arc_weights(g)[("poster", "reader")] == 1.0 / 3.0
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

    def test_id_listed_twice_is_config_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("#measure=m\na\t1\nb\t2\na\t3\n", encoding="utf-8")
        assert run("rank", "--scores", scores, "--out-dir", tmp_path / "out") == 2
        assert "error: ConfigInvalid: line 4 of" in capsys.readouterr().err
        scores.write_text("a\t0.5\t0.5\nb\t0.5\t0.5\nb\t0.5\t0.5\n", encoding="utf-8")
        assert run("rank", "--scores", scores, "--out-dir", tmp_path / "out") == 2
        assert "error: ConfigInvalid: line 3 of" in capsys.readouterr().err

    def test_hash_led_user_is_rejected_before_any_score_file(self, tmp_path, capsys):
        # written out, "#a" would read back as a comment and drop out of the ranking
        events = tmp_path / "events.tsv"
        events.write_text("1\t#a\tl-a\tM\n2\tb\tl-b\tM\n3\tc\tl-a\tRT\t#a\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("hindex", "--events", events, "--out-dir", out) == 1
        assert "error: UnparsableLine: line 1: id starts with '#'" in capsys.readouterr().err
        assert not (out / "hindex.tsv").exists()
        assert run("hindex", "--events", events, "--lenient", "--out-dir", out) == 0
        assert "skipped 2 malformed events line(s)" in capsys.readouterr().err
        _, columns = read_score_columns(str(out / "hindex.tsv"))
        assert columns["hindex"].node_ids == ("b",)

    def test_repeated_graph_arc_is_unparsable(self, tmp_path, capsys):
        graph = tmp_path / "graph.tsv"
        graph.write_text("a\tb\t0.5\nb\ta\t0.5\na\tb\t0.5\n", encoding="utf-8")
        assert run("ip", "--graph", graph, "--out-dir", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "error: UnparsableLine: line 3: duplicate arc: 'a\\tb\\t0.5'" in err

    def test_hash_led_graph_id_is_unparsable(self, tmp_path, capsys):
        # scored, "#b" would start a line of the score file and drop out of the ranking
        graph = tmp_path / "graph.tsv"
        graph.write_text("a\tc\t0.5\na\t#b\t0.5\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("pagerank", "--graph", graph, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert "error: UnparsableLine: line 2: id starts with '#': 'a\\t#b\\t0.5'" in err
        assert not (out / "pagerank.tsv").exists()

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

    def test_label_with_line_break_like_characters_reads_back(self, tmp_path):
        scores = tmp_path / "scores.tsv"
        scores.write_text("#measure=a\x85b\u2028c\nu\t1\nv\t2\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("rank", "--scores", scores, "--out-dir", out) == 0
        assert read_manifest(str(out / "rank.tsv"))["param.measure"] == "a\x85b\u2028c"


class TestEachInputReadOnce:
    """A command parses each input file once and hashes each path once, however
    many measures and artifacts use it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of the CLI's parse and hash calls, by function and path."""
        counts = Counter()
        for name in ("parse_events", "parse_follows", "parse_clicks", "_sha256"):

            def counted(source, *args, _name=name, _func=getattr(cli, name), **kwargs):
                counts[_name, getattr(source, "name", source)] += 1
                return _func(source, *args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        return counts

    def expect_once(self, calls, trace_dir, parsed):
        paths = {role: str(trace_dir / f"{role}.tsv") for role in parsed}
        expected = {(f"parse_{role}", path): 1 for role, path in paths.items()}
        expected.update({("_sha256", path): 1 for path in paths.values()})
        assert dict(calls) == expected

    def test_curve_over_a_comention_measure(self, trace_dir, calls):
        assert run(
            "curve", "--measure", "ip-influence", "--graph-type", "comention", "--min-urls", "1",
            "--events", trace_dir / "events.tsv", "--follows", trace_dir / "follows.tsv",
            "--clicks", trace_dir / "clicks.tsv", "--bin-count", "5", "--out-dir", trace_dir / "out",
        ) == 0
        self.expect_once(calls, trace_dir, ("events", "follows", "clicks"))

    def test_rank_by_hindex_of_users_who_posted(self, trace_dir, calls):
        assert run(
            "rank", "--measure", "hindex", "--min-posted", "1",
            "--events", trace_dir / "events.tsv", "--out-dir", trace_dir / "out",
        ) == 0
        self.expect_once(calls, trace_dir, ("events",))

    def test_compare_two_measures_of_one_trace(self, trace_dir, calls):
        assert run(
            "compare", "--measure-a", "ip-influence", "--measure-b", "retweets", "--min-urls", "1",
            "--events", trace_dir / "events.tsv", "--out-dir", trace_dir / "out",
        ) == 0
        self.expect_once(calls, trace_dir, ("events",))

    def test_lenient_curve_warns_once_per_input(self, trace_dir, capsys):
        events = trace_dir / "events.tsv"
        events.write_text(events.read_text(encoding="utf-8") + "garbage\n", encoding="utf-8")
        assert run(
            "curve", "--measure", "hindex", "--lenient", "--events", events,
            "--clicks", trace_dir / "clicks.tsv", "--bin-count", "5", "--out-dir", trace_dir / "out",
        ) == 0
        assert capsys.readouterr().err.count("skipped 1 malformed events line(s)") == 1


class TestIpConvergenceReported:
    """Every path that runs IP prints the convergence line ``iprank ip`` prints, once."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("curve", "--measure", "ip-influence", "--clicks", "clicks.tsv", "--bin-count", "5"),
            ("rank", "--measure", "ip-passivity"),
            ("compare", "--measure-a", "ip-influence", "--measure-b", "ip-passivity"),
        ],
    )
    def test_ip_measures_report_convergence_once(self, trace_dir, capsys, argv):
        flags = ("--events", trace_dir / "events.tsv", "--min-urls", "1", "--out-dir", trace_dir)
        assert run("ip", *flags) == 0
        ip_line = capsys.readouterr().out.strip()
        argv = [str(trace_dir / a) if a.endswith(".tsv") else a for a in argv]
        assert run(*argv, *flags) == 0
        out = capsys.readouterr().out.splitlines()
        assert ip_line.startswith("ip: ") and "converged=" in ip_line
        assert [line for line in out if line.startswith("ip: ")] == [ip_line]


def manifest_of(path):
    """The ``input.*`` digests and ``param.*`` values of an artifact's manifest."""
    manifest = read_manifest(str(path))
    inputs = {k[len("input."):]: v for k, v in manifest.items() if k.startswith("input.")}
    params = {k: v for k, v in manifest.items() if k.startswith("param.")}
    return inputs, params


def sha256_of(path):
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestManifestInputs:
    def test_each_artifact_lists_the_inputs_it_was_computed_from(self, trace_dir):
        events, follows = sha256_of(trace_dir / "events.tsv"), sha256_of(trace_dir / "follows.tsv")
        out = trace_dir / "out"
        flags = ("--min-urls", "1", "--out-dir", out)
        assert run("ip", "--events", trace_dir / "events.tsv", *flags) == 0
        assert run(
            "compare", "--measure-a", "ip-influence", "--measure-b", "followers",
            "--events", trace_dir / "events.tsv", "--follows", trace_dir / "follows.tsv", *flags,
        ) == 0
        assert manifest_of(out / "compare.tsv")[0] == {"a.events": events, "b.follows": follows}
        assert manifest_of(out / "measure_ip-influence.tsv")[0] == {"events": events}
        assert manifest_of(out / "measure_followers.tsv")[0] == {"follows": follows}
        assert run(
            "compare", "--scores-a", out / "ip_scores.tsv", "--scores-b", out / "ip_scores.tsv",
            "--column-b", "passivity", *flags,
        ) == 0
        scores = sha256_of(out / "ip_scores.tsv")
        assert manifest_of(out / "compare.tsv")[0] == {"a.scores": scores, "b.scores": scores}

    def test_a_measure_file_records_its_measure_settings(self, trace_dir):
        out = trace_dir / "out"
        events = ("--events", trace_dir / "events.tsv", "--min-urls", "1", "--out-dir", out)
        for command in ("ip", "pagerank", "hindex"):
            assert run(command, *events) == 0
        for measure, artifact in [
            ("ip-influence", "ip_scores.tsv"),
            ("pagerank", "pagerank.tsv"),
            ("hindex", "hindex.tsv"),
        ]:
            assert run("rank", "--measure", measure, *events) == 0
            assert manifest_of(out / f"measure_{measure}.tsv") == manifest_of(out / artifact)
        bodies = {}
        for iterations in ("3", "100"):
            assert run("rank", "--measure", "ip-influence", "--iterations", iterations, *events) == 0
            _, params = manifest_of(out / "measure_ip-influence.tsv")
            assert params["param.iterations"] == iterations
            bodies[iterations] = (out / "measure_ip-influence.tsv").read_text(encoding="utf-8")
        assert bodies["3"] != bodies["100"]


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

    def test_config_value_with_line_break_like_characters(self, tmp_path):
        events = tmp_path / "ev\x85ents\x1c.tsv"
        events.write_text(RT_FIXTURE, encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# paths\nevents={events}\n\n  min_urls = 1\n", encoding="utf-8")
        assert load_config(str(cfg)) == {"events": str(events), "min_urls": 1}
        assert run("build", "--config", cfg, "--out-dir", tmp_path / "out") == 0

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


def scipy_modules_after(code, *args):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter
    with ``args`` as ``sys.argv[1:]``."""
    report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(iprank.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{report}", *map(str, args)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]  # after anything the commands printed


def test_cli_import_loads_no_scipy():
    # iprank depends on numpy alone; importing the CLI must not pull scipy in
    assert scipy_modules_after("import iprank.cli") == "[]"


def test_ip_and_pagerank_load_no_scipy(trace_dir):
    # the IP and PageRank kernels are numpy only, so scoring loads no scipy either
    code = (
        "from iprank.cli import main\n"
        "for cmd in ('ip', 'pagerank'):\n"
        "    argv = [cmd, '--events', sys.argv[1], '--graph-type', 'rt', '--min-urls', '1']\n"
        "    assert main(argv + ['--out-dir', sys.argv[2]]) == 0, cmd"
    )
    out = trace_dir / "out"
    assert scipy_modules_after(code, trace_dir / "events.tsv", out) == "[]"
    assert (out / "ip_scores.tsv").exists() and (out / "pagerank.tsv").exists()
