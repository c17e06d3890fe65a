"""Command-line pipeline: artifacts, manifests, exit codes, config handling."""

import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import pytest

import iprank
from iprank import cli, graphs, ingest, ipcore
from iprank.cli import load_config, main, read_score_columns
from iprank.errors import ConfigInvalid
from iprank.graphs import graph_from_tsv
from iprank.ingest import clicks_to_tsv, events_to_tsv, follows_to_tsv, ClickTable
from iprank.testkit import SynthParams, synth_trace
from oracles import arc_weights, read_manifest

# main() binds the layer names on a command's first run; several tests below
# replace one of them in cli before any command has run
cli._bind_layers()

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

    @pytest.mark.parametrize(
        "min_posted,rows",
        [
            (1, "poster\t0.40000000000000002\t1\nreader\t0.10000000000000001\t2\n"),
            (2, "poster\t0.40000000000000002\t1\n"),
        ],
    )
    def test_min_posted_counts_only_what_a_user_posted(self, tmp_path, min_posted, rows):
        # "src" is only ever credited as a retweet source; "absent" is not in the log
        events = tmp_path / "events.tsv"
        events.write_text("1\tposter\tl-a\tM\n2\tposter\tl-b\tM\n3\treader\tl-a\tRT\tsrc\n")
        scores = tmp_path / "scores.tsv"
        scores.write_text("#measure=m\nposter\t0.4\nsrc\t0.3\nabsent\t0.2\nreader\t0.1\n")
        out = tmp_path / "out"
        assert run(
            "rank", "--scores", scores, "--events", events, "--min-posted", min_posted,
            "--out-dir", out,
        ) == 0
        body = (out / "rank.tsv").read_text(encoding="utf-8").split("#user\tm\trank\n")[1]
        assert body == rows

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

    def test_compare_of_files_that_share_some_ids(self, tmp_path, capsys):
        # ranks are over each whole file; the rows are the shared ids, by rank under a
        (tmp_path / "a.tsv").write_text("#measure=x\na\t3\nb\t2\nc\t1\n", encoding="utf-8")
        (tmp_path / "b.tsv").write_text("#measure=y\nb\t5\nc\t7\nd\t1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(
            "compare", "--scores-a", tmp_path / "a.tsv", "--scores-b", tmp_path / "b.tsv",
            "--out-dir", out,
        ) == 0
        text = (out / "compare.tsv").read_text(encoding="utf-8")
        assert text.endswith(
            "#spearman=-1.0\n#report=x_vs_y\n#user\trank_x\trank_y\nb\t2\t2\nc\t3\t1\n"
        )
        assert "compare: spearman -1 over 2 shared users" in capsys.readouterr().out

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

    @pytest.mark.parametrize(
        "scores,attribute",
        [("a\tinf\nb\t1\nc\t2\n", "inf"), ("a\tinf\nb\t-inf\nc\t2\n", "nan")],
        ids=["inf", "inf-and-minus-inf"],
    )
    def test_curve_over_an_infinite_score_is_an_error(self, tmp_path, capsys, scores, attribute):
        (tmp_path / "events.tsv").write_text(
            "1\ta\tx\tM\n2\tb\ty\tM\n3\tc\tz\tM\n4\tb\tx\tM\n", encoding="utf-8"
        )
        (tmp_path / "clicks.tsv").write_text("x\t5\ny\t6\nz\t7\n", encoding="utf-8")
        (tmp_path / "scores.tsv").write_text(f"#measure=m\n{scores}", encoding="utf-8")
        out = tmp_path / "out"
        assert run(
            "curve", "--scores", tmp_path / "scores.tsv", "--events", tmp_path / "events.tsv",
            "--clicks", tmp_path / "clicks.tsv", "--out-dir", out,
        ) == 1
        err = capsys.readouterr().err
        assert f"error: InvalidParams: attribute {attribute} is not finite" in err
        assert not (out / "curve.tsv").exists()

    @pytest.mark.parametrize(
        "scores,centers",
        [
            ("a\t1e-200\nb\t1\n", ["1.0000000000000001e-198", "0.01"]),
            ("a\t1e200\nb\t1e300\n", ["1e+201", "9.999999999999999e+298"]),
        ],
        ids=["edge-product-underflows", "edge-product-overflows"],
    )
    def test_curve_over_extreme_scores_writes_finite_centers(self, tmp_path, scores, centers):
        # two bins of 50 are filled, and their edges multiply to 0 or to inf
        (tmp_path / "events.tsv").write_text("1\ta\tx\tM\n2\tb\ty\tM\n", encoding="utf-8")
        (tmp_path / "clicks.tsv").write_text("x\t3\ny\t5\n", encoding="utf-8")
        (tmp_path / "scores.tsv").write_text(f"#measure=m\n{scores}", encoding="utf-8")
        out = tmp_path / "out"
        assert run(
            "curve", "--scores", tmp_path / "scores.tsv", "--events", tmp_path / "events.tsv",
            "--clicks", tmp_path / "clicks.tsv", "--out-dir", out,
        ) == 0
        lines = (out / "curve.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t") for line in lines if line[:1] != "#"] == [
            [centers[0], "3.0"], [centers[1], "5.0"],
        ]
        assert "inf" not in lines[-1] and "nan" not in lines[-1]  # the fit


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

    @pytest.mark.parametrize("rows", ["#measure=m\na\t1\n\t2\n", "a\t1\t2\nb\t1\t2\n\t2\t3\n"])
    def test_empty_id_is_config_error(self, tmp_path, capsys, rows):
        scores = tmp_path / "scores.tsv"
        scores.write_text(rows, encoding="utf-8")
        assert run("rank", "--scores", scores, "--out-dir", tmp_path / "out") == 2
        line = rows.split("\n")[2]
        err = capsys.readouterr().err
        assert f"error: ConfigInvalid: line 3 of {scores}: empty user id: {line!r}" in err

    def test_id_listed_twice_is_config_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("#measure=m\na\t1\nb\t2\na\t3\n", encoding="utf-8")
        assert run("rank", "--scores", scores, "--out-dir", tmp_path / "out") == 2
        assert "error: ConfigInvalid: line 4 of" in capsys.readouterr().err
        scores.write_text("a\t0.5\t0.5\nb\t0.5\t0.5\nb\t0.5\t0.5\n", encoding="utf-8")
        assert run("rank", "--scores", scores, "--out-dir", tmp_path / "out") == 2
        assert "error: ConfigInvalid: line 3 of" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows,line",
        [
            ("a\t1\nb\t2\t3\n", 3),
            ("a\t1\t2\nb\t2\t3\nc\t3\n", 4),
            ("a\t1\n# comment\n\nb\t2\t3\nc\t4\n", 5),
        ],
    )
    def test_rows_of_two_shapes_are_config_error(self, tmp_path, capsys, rows, line):
        # read as one shape, a two-column file with one stray three-column row
        # used to rank that row alone, as "influence"
        scores = tmp_path / "scores.tsv"
        scores.write_text("#measure=m\n" + rows, encoding="utf-8")
        assert run("rank", "--scores", scores, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: ConfigInvalid: line {line} of {scores}: " in err
        assert "columns, unlike the" in err and "of line 2" in err
        with pytest.raises(ConfigInvalid, match=f"^line {line} of "):
            read_score_columns(str(scores))

    @pytest.mark.parametrize(
        "text,line",
        [("#measure=a\n#measure=b\nx\t1\n", 2), ("x\t1\ny\t2\n#measure=b\nz\t3\n", 3)],
        ids=["second", "late"],
    )
    def test_a_second_or_late_header_is_config_error(self, tmp_path, capsys, text, line):
        # a late header used to start a column of its own, which rank then ranked alone
        scores = tmp_path / "scores.tsv"
        scores.write_text(text, encoding="utf-8")
        assert run("rank", "--scores", scores, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: ConfigInvalid: line {line} of {scores}: a second or late header" in err
        assert not (tmp_path / "out").exists()

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

    def test_manifest_line_without_equals_is_config_error(self, tmp_path):
        artifact = tmp_path / "rank.tsv"
        artifact.write_text("#manifest tool=iprank/0\n#manifest oops\nu\t1\t1\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid, match=r"^line 2 of .*: '#manifest oops'$"):
            read_manifest(str(artifact))

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

    def test_compare_of_two_columns_of_one_score_file(self, trace_dir, monkeypatch):
        out = trace_dir / "out"
        assert run("ip", "--events", trace_dir / "events.tsv", "--min-urls", "1",
                   "--out-dir", out) == 0
        reads = []

        def counted(path, _func=cli.read_score_columns):
            reads.append(path)
            return _func(path)

        monkeypatch.setattr(cli, "read_score_columns", counted)
        scores = out / "ip_scores.tsv"
        assert run(
            "compare", "--scores-a", scores, "--column-a", "influence",
            "--scores-b", scores, "--column-b", "passivity", "--out-dir", out,
        ) == 0
        assert reads == [str(scores)]

    def test_lenient_curve_warns_once_per_input(self, trace_dir, capsys):
        events = trace_dir / "events.tsv"
        events.write_text(events.read_text(encoding="utf-8") + "garbage\n", encoding="utf-8")
        assert run(
            "curve", "--measure", "hindex", "--lenient", "--events", events,
            "--clicks", trace_dir / "clicks.tsv", "--bin-count", "5", "--out-dir", trace_dir / "out",
        ) == 0
        assert capsys.readouterr().err.count("skipped 1 malformed events line(s)") == 1


def test_each_id_table_is_checked_once(tmp_path, trace_dir, monkeypatch):
    """The line rules check each id a command reads, once: ``ip`` and
    ``pagerank`` over a graph file, ``rank`` and ``compare`` over their
    score files, and ``rates`` over events and follows check none of them
    again. Nor do the builders, the baselines and ``rank --min-posted``,
    whose tables are taken in id order from the log's checked table."""
    full, given = [], []
    for module in (graphs, ingest, ipcore):

        def counted(ids, _check=module._sorted_ids):
            given.append(ids)
            if type(ids) is not ingest._Ids:
                full.append(len(ids))
            return _check(ids)

        monkeypatch.setattr(module, "_sorted_ids", counted)
    graph, out = tmp_path / "graph.tsv", tmp_path / "out"
    graph.write_text("a\tb\t0.5\nb\tc\t0.25\nc\ta\t0.5\nd\t-\t-\n", encoding="utf-8")
    assert run("ip", "--graph", graph, "--out-dir", out) == 0
    assert run("pagerank", "--graph", graph, "--out-dir", out) == 0
    assert full == []
    assert run("rank", "--scores", out / "ip_scores.tsv", "--out-dir", out) == 0
    scores = ("--scores-a", out / "ip_scores.tsv", "--scores-b", out / "pagerank.tsv")
    assert run("compare", *scores, "--out-dir", out) == 0
    assert full == []
    trace = [trace_dir / name for name in ("events.tsv", "follows.tsv", "clicks.tsv")]
    for argv in (
        ("build", "--graph-type", "rt"),
        ("build", "--graph-type", "rt-follower", "--follows", trace[1]),
        ("build", "--graph-type", "comention", "--follows", trace[1]),
        ("ip",),
        ("pagerank",),
        ("hindex",),
        ("curve", "--measure", "retweets", "--clicks", trace[2], "--bin-count", "5"),
        ("rank", "--measure", "hindex", "--min-posted", "1"),
    ):
        assert run(*argv, "--events", trace[0], "--min-urls", "1", "--out-dir", out) == 0
        assert full == [], argv
    # parse_events and parse_follows hand the constructors their tables as _Ids,
    # and rate_report its user and audience rate vectors
    events, follows = tmp_path / "events.tsv", tmp_path / "follows.tsv"
    events.write_text("1\ta\tx\tM\n2\tb\tx\tRT\ta\n", encoding="utf-8")
    follows.write_text("a\tb\nb\tc\n", encoding="utf-8")
    given.clear()
    assert run("rates", "--events", events, "--follows", follows, "--out-dir", out) == 0
    assert given == [("a", "b"), ("x",), ("a", "b", "c"), ("b", "c"), ("a", "b")]
    assert full == []


class TestIpConvergenceReported:
    """Every path that runs IP or PageRank runs it once and prints the
    convergence line its own command prints, once."""

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("pagerank",),
            ("rank", "--measure", "pagerank"),
            ("compare", "--measure-a", "pagerank", "--measure-b", "pagerank"),
        ],
    )
    def test_pagerank_measures_run_and_report_convergence_once(
        self, trace_dir, capsys, monkeypatch, argv
    ):
        runs = []

        def counted(g, params, _func=cli.weighted_pagerank):
            runs.append(params)
            return _func(g, params)

        monkeypatch.setattr(cli, "weighted_pagerank", counted)
        flags = ("--events", trace_dir / "events.tsv", "--min-urls", "1", "--out-dir", trace_dir)
        assert run("pagerank", *flags) == 0
        reports = [line for line in capsys.readouterr().out.splitlines() if "converged=" in line]
        assert run(*argv, *flags) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(reports) == 1
        assert re.fullmatch(r"pagerank: \d+ iterations, converged=True, last delta \S+", reports[0])
        assert [line for line in out if "converged=" in line] == reports
        assert len(runs) == 2


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

    @pytest.mark.parametrize("command", ["ip", "build"])
    @pytest.mark.parametrize(
        "setting",
        [("--epsilon", "nan"), ("epsilon=nan",), ("pagerank_epsilon=nan",)],
        ids=["flag", "config", "pagerank-config"],
    )
    def test_nan_epsilon_is_config_error(self, trace_dir, capsys, command, setting):
        flags = setting
        if "=" in setting[0]:  # a config key
            cfg = trace_dir / "run.cfg"
            cfg.write_text(setting[0] + "\n", encoding="utf-8")
            flags = ("--config", cfg)
        out = trace_dir / "out"
        assert run(command, "--events", trace_dir / "events.tsv", *flags, "--out-dir", out) == 2
        assert "error: ConfigInvalid: epsilon values must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("rank", "--measure", "hindex", "--column", "passivity"), "--column"),
            (
                ("curve", "--measure", "hindex", "--column", "passivity", "--clicks", "clicks.tsv"),
                "--column",
            ),
            (
                ("compare", "--measure-a", "hindex", "--column-a", "passivity",
                 "--measure-b", "retweets"),
                "--column-a",
            ),
            (
                ("compare", "--measure-a", "hindex", "--measure-b", "retweets",
                 "--column-b", "passivity"),
                "--column-b",
            ),
        ],
    )
    def test_column_without_its_score_file_is_config_error(self, trace_dir, capsys, argv, flag):
        argv = [str(trace_dir / a) if a.endswith(".tsv") else a for a in argv]
        events = ("--events", trace_dir / "events.tsv")
        assert run(*argv, *events, "--out-dir", trace_dir / "out") == 2
        assert f"error: ConfigInvalid: {flag} reads a score file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("compare", "--measure-a", "hindex", "--measure-b", "retweets",
                 "--column-b", "passivity", "--events", "events.tsv"),
                "ConfigInvalid: --column-b reads a score file",
            ),
            (
                ("compare", "--measure-a", "hindex", "--events", "events.tsv",
                 "--scores-b", "missing.tsv"),
                "MissingInput: scores file not found",
            ),
            (
                ("curve", "--measure", "hindex", "--events", "events.tsv"),
                "MissingInput: --clicks is required",
            ),
            (
                ("rank", "--measure", "followers", "--follows", "follows.tsv", "--min-posted", "2"),
                "MissingInput: --events is required",
            ),
            (
                ("build", "--graph-type", "comention", "--events", "events.tsv"),
                "MissingInput: --follows is required",
            ),
        ],
        ids=["compare-column", "compare-missing-scores", "curve", "rank", "build"],
    )
    def test_usage_errors_come_before_any_work(self, trace_dir, capsys, monkeypatch, argv, message):
        def parse_nothing(*args, **kwargs):
            raise AssertionError("an input was parsed")

        for name in ("parse_events", "parse_follows"):
            monkeypatch.setattr(cli, name, parse_nothing)
        out = trace_dir / "out"
        out.mkdir()
        argv = [str(trace_dir / a) if a.endswith(".tsv") else a for a in argv]
        assert run(*argv, "--out-dir", out) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "scores,column,message",
        [
            ("#measure=m\nu\t1\n", "nosuch", "column 'nosuch' not present in"),
            ("#measure=m\nu\tx\n", "m", "line 2 of {path}: score is not a number: 'u\\tx'"),
        ],
        ids=["missing-column", "malformed-row"],
    )
    def test_compare_reads_its_score_file_before_it_computes_a_measure(
        self, trace_dir, capsys, scores, column, message
    ):
        path = trace_dir / "scores.tsv"
        path.write_text(scores, encoding="utf-8")
        out = trace_dir / "out"
        out.mkdir()
        argv = (
            "compare", "--measure-a", "hindex", "--events", trace_dir / "events.tsv",
            "--scores-b", path, "--column-b", column, "--out-dir", out,
        )
        assert run(*argv) == 2
        assert f"error: ConfigInvalid: {message.format(path=path)}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,config,message",
        [
            ((), "strict=maybe", "not a boolean: 'maybe'"),
            ((), "min_urls=abc", "config line 1: bad value for 'min_urls': 'abc'"),
            ((), "graph_type=star", "graph_type must be one of"),
            (("--iterations", "0"), "", "iteration caps must be >= 1"),
            ((), "pagerank_iterations=0", "iteration caps must be >= 1"),
            (("--damping", "1"), "", "damping must be in (0, 1), got 1.0"),
            (("--q", "0"), "", "q must be in (0, 1], got 0.0"),
            (("--bin-count", "0"), "", "bin_count must be >= 1, got 0"),
            (("--top-k", "0"), "", "top_k must be >= 1, got 0"),
            (("--min-posted", "-1"), "", "min_posted must be >= 0, got -1"),
            (("--threads", "-1"), "", "threads must be >= 0, got -1"),
            (
                ("rank", "--scores", "scores.tsv", "--measure", "hindex"), "",
                "give either --scores or --measure, not both",
            ),
            (
                ("rank", "--scores", "scores.tsv", "--column", "nosuch"), "",
                "column 'nosuch' not present in",
            ),
            (("rank",), "", "a score source is required: --scores or --measure"),
            (
                ("compare", "--measure-a", "hindex"), "",
                "a score source is required: --scores-b or --measure-b",
            ),
        ],
    )
    def test_bad_settings_and_flags_exit_2(self, trace_dir, capsys, argv, config, message):
        (trace_dir / "scores.tsv").write_text("#measure=m\nu\t1\n", encoding="utf-8")
        cfg = trace_dir / "run.cfg"
        cfg.write_text(config + "\n", encoding="utf-8")
        argv = [str(trace_dir / a) if a.endswith(".tsv") else a for a in argv]
        if not argv or argv[0].startswith("--"):
            argv = ["build", *argv]
        flags = ("--events", trace_dir / "events.tsv", "--config", cfg)
        assert run(*argv, *flags, "--out-dir", trace_dir / "out") == 2
        assert message in capsys.readouterr().err

    def test_threads_flag_accepted(self, trace_dir):
        out = trace_dir / "out"
        assert run(
            "build", "--events", trace_dir / "events.tsv", "--min-urls", "1",
            "--threads", "4", "--out-dir", out,
        ) == 0


class TestUnreadableInput:
    """Input that cannot be read is an ``error:`` line and an exit code,
    reported before any work where no file needs reading to find it."""

    @pytest.mark.parametrize("mode", ["--strict", "--lenient"])
    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_events_that_are_not_utf8_name_their_line(self, tmp_path, capsys, mode, newline):
        events = tmp_path / "events.tsv"
        lines = ["1\tposter\tl-a\tM", "2\tposter\tl-b\tM", "3\tre\xffader\tl-a\tM"]
        events.write_bytes(newline.join(lines).encode("latin-1") + b"\n")
        code = run("build", "--events", events, "--min-urls", "1", mode, "--out-dir", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "error: UnparsableLine: line 3: not UTF-8: '3\\tre\ufffdader\\tl-a\\tM'" in err

    @pytest.mark.parametrize("block", [7, ingest._BLOCK])
    def test_line_faults_are_reported_in_file_order(self, tmp_path, capsys, block):
        events = tmp_path / "events.tsv"
        lines = ["1\tu\tx", *(f"{t}\tu\tx{t}\tM" for t in range(2, 3000)), "3000\tu\t\xff\tM"]
        events.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        with patch.object(ingest, "_BLOCK", block):
            assert run("build", "--events", events, "--out-dir", tmp_path / "out") == 1
        assert "error: UnparsableLine: line 1: expected 'time user url M'" in (
            capsys.readouterr().err
        )

    def test_a_leading_bom_is_not_quoted_with_the_line(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        events.write_bytes(b"\xef\xbb\xbf1\tpo\xffster\tl-a\tM\n")
        assert run("build", "--events", events, "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert "error: UnparsableLine: line 1: not UTF-8: '1\\tpo\ufffdster\\tl-a\\tM'" in err

    def test_clicks_that_are_not_utf8_name_their_line(self, trace_dir, capsys):
        clicks = trace_dir / "clicks.tsv"
        clicks.write_bytes(clicks.read_bytes() + b"\xfe\t3\n")
        lines = clicks.read_bytes().count(b"\n")
        code = run(
            "curve", "--measure", "hindex", "--events", trace_dir / "events.tsv",
            "--clicks", clicks, "--out-dir", trace_dir / "out",
        )
        assert code == 1
        assert f"error: UnparsableLine: line {lines}: not UTF-8" in capsys.readouterr().err

    def test_graph_that_is_not_utf8_names_its_line(self, tmp_path, capsys):
        graph = tmp_path / "graph.tsv"
        graph.write_bytes(b"a\tb\t0.5\nb\t\xc3\t0.5\n")
        assert run("ip", "--graph", graph, "--out-dir", tmp_path / "out") == 1
        assert "error: UnparsableLine: line 2: not UTF-8" in capsys.readouterr().err

    def test_score_file_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_bytes(b"#measure=m\nu\t1\nv\xff\t2\n")
        assert run("rank", "--scores", scores, "--out-dir", tmp_path / "out") == 2
        assert f"error: ConfigInvalid: line 3 of {scores}: not UTF-8" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_config_error(self, trace_dir, capsys):
        cfg = trace_dir / "run.cfg"
        cfg.write_bytes(b"min_urls=1\ngraph_type=\xffrt\n")
        code = run("build", "--events", trace_dir / "events.tsv", "--config", cfg)
        assert code == 2
        assert f"error: ConfigInvalid: line 2 of {cfg}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["events", "config"])
    def test_a_directory_is_no_input_file(self, trace_dir, capsys, monkeypatch, role):
        monkeypatch.setattr(cli, "parse_events", None)  # no input is parsed
        out = trace_dir / "out"
        out.mkdir()
        flags = {"events": trace_dir / "events.tsv", role: trace_dir}
        code = run("build", *(f"--{k}={v}" for k, v in flags.items()), "--out-dir", out)
        assert code == 2
        assert f"error: MissingInput: {role} is not a regular file: {trace_dir}" in (
            capsys.readouterr().err
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_out_dir_under_or_at_a_file_is_config_error(self, trace_dir, capsys, monkeypatch, sub):
        monkeypatch.setattr(cli, "parse_events", None)  # no input is parsed
        taken = trace_dir / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        out = taken / sub
        assert run("build", "--events", trace_dir / "events.tsv", "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert f"error: ConfigInvalid: out_dir {out}: {taken} is not a directory" in err
        assert taken.read_text(encoding="utf-8") == "kept\n"


class TestByteOrderMark:
    """A UTF-8 byte order mark opening an input file is no part of its first
    line: the artifacts are those of the same file without it, and only the
    manifest's digest, of the file's raw bytes, tells them apart."""

    ROLES = ("events", "follows", "clicks", "graph", "scores", "config")

    @staticmethod
    def artifacts(out):
        """Each artifact in ``out`` without its manifest lines."""
        return {
            path.name: [
                line for line in path.read_text(encoding="utf-8").splitlines()
                if not line.startswith("#manifest")
            ]
            for path in out.iterdir()
        }

    @pytest.mark.parametrize("role", ROLES)
    def test_a_leading_bom_reads_as_the_file_without_it(self, trace_dir, role):
        path = {name: trace_dir / f"{name}.tsv" for name in self.ROLES}
        path["graph"].write_text("#nodes=3 arcs=2\na\tb\t0.5\nb\tc\t1\n", encoding="utf-8")
        path["scores"].write_text("#measure=m\nu\t1\nv\t2\n", encoding="utf-8")
        path["config"].write_text("min_urls=1\ngraph_type=rt\n", encoding="utf-8")
        curve = (
            "curve", "--events", path["events"], "--follows", path["follows"],
            "--clicks", path["clicks"], "--measure", "ip-influence",
            "--graph-type", "comention", "--min-urls", "1",
        )
        argv = {
            "events": curve,
            "follows": curve,
            "clicks": curve,
            "graph": ("ip", "--graph", path["graph"]),
            "scores": ("rank", "--scores", path["scores"]),
            "config": ("build", "--events", path["events"], "--config", path["config"]),
        }[role]
        assert run(*argv, "--out-dir", trace_dir / "plain") == 0
        path[role].write_bytes(b"\xef\xbb\xbf" + path[role].read_bytes())
        assert run(*argv, "--out-dir", trace_dir / "bom") == 0
        assert self.artifacts(trace_dir / "bom") == self.artifacts(trace_dir / "plain")
        if role != "config":
            digests = [manifest_of(p)[0].get(role) for p in (trace_dir / "bom").iterdir()]
            assert sha256_of(path[role]) in digests


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


def last_line(code, *args):
    """The last line ``code`` prints in a fresh interpreter with ``args`` as
    ``sys.argv[1:]``, after anything the commands it runs printed."""
    src = str(Path(iprank.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}", *map(str, args)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def modules_after(package, code, *args):
    """The modules of ``package`` loaded once ``code`` has run in a fresh
    interpreter with ``args`` as ``sys.argv[1:]``."""
    report = f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))"
    return last_line(f"{code}\n{report}", *args)


# the CLI with the layers every command binds
LOAD_CLI = "from iprank import cli\ncli._bind_layers()"


def test_cli_import_loads_no_scipy():
    # iprank depends on numpy alone; importing the CLI must not pull scipy in
    assert modules_after("scipy", LOAD_CLI) == "[]"


@pytest.mark.parametrize("package", ["dataclasses", "fractions", "decimal"])
def test_cli_import_generates_no_code(package):
    # dataclasses write each record's methods as source and compile it, 11 ms
    # a process; fractions and decimal serve one line of the curve command
    assert modules_after(package, f"import numpy\n{LOAD_CLI}") == "[]"


COMMANDS = ("build", "ip", "pagerank", "hindex", "rates", "curve", "rank", "compare")
PARSES = [
    *([cmd, "--help"] for cmd in COMMANDS),
    [], ["nosuch"], ["--help"], ["--version"], ["--bogus", "rank", "--top-k", "3"],
]


def test_program_run_freezes_the_gc_and_parses_as_every_flag_does():
    # main() with no argv is the console script; it freezes the GC and builds
    # one command's flags. Called with a list, as tests and in-process runs do,
    # it freezes nothing. Either way it prints and exits as a parser with
    # every command's flags does.
    code = """
import contextlib, gc, io, json
from iprank import cli

def outcome(call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            call()
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()

parses = json.loads(sys.argv[1])
every_flag = [outcome(lambda: cli.build_parser().parse_args(argv)) for argv in parses]
given = [outcome(lambda: cli.main(list(argv))) for argv in parses]
frozen = [gc.get_freeze_count()]
program = []
for argv in parses:
    sys.argv[1:] = argv
    program.append(outcome(cli.main))
frozen.append(gc.get_freeze_count())
print(json.dumps([every_flag, given, program, frozen]))
"""
    every_flag, given, program, frozen = json.loads(last_line(code, json.dumps(PARSES)))
    assert frozen[0] == 0 < frozen[1]
    assert given == every_flag and program == every_flag
    codes = {" ".join(argv): code for argv, (code, _, _) in zip(PARSES, every_flag)}
    assert codes == {
        **{f"{cmd} --help": 0 for cmd in COMMANDS},
        "": 2, "nosuch": 2, "--help": 0, "--version": 0, "--bogus rank --top-k 3": 2,
    }
    for argv, (_, out, _) in zip(PARSES, every_flag):
        if argv[1:] == ["--help"]:
            assert out.startswith(f"usage: iprank {argv[0]} [-h]") and "--out-dir" in out


LOADED_BY_THE_PARSER = "['iprank', 'iprank.cli', 'iprank.errors']"
LOADED_BY_A_COMMAND = [
    "iprank", "iprank.analytics", "iprank.baselines", "iprank.cli", "iprank.errors",
    "iprank.graphs", "iprank.ingest", "iprank.ipcore",
]


@pytest.mark.parametrize("package,loaded", [("numpy", "[]"), ("iprank", LOADED_BY_THE_PARSER)])
def test_a_run_that_ends_in_the_parser_loads_no_numpy_and_no_layer(package, loaded):
    # numpy alone takes about 100 ms to import, which --version and --help need not pay
    code = """
import contextlib, io, json
from iprank import cli
for argv in json.loads(sys.argv[1]):
    for call in (lambda: cli.main(list(argv)), cli.main):
        sys.argv[1:] = argv
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                call()
                raise AssertionError(f"{argv} ran past the parser")
            except SystemExit:
                pass
"""
    assert modules_after(package, code, json.dumps(PARSES)) == loaded


def test_a_program_run_of_a_command_loads_every_layer_then_freezes_the_gc_again(trace_dir):
    # the second freeze keeps the objects of numpy and the layers out of the
    # collections at exit, as the first keeps those of the interpreter's start
    code = """
import gc, json
from iprank import cli
frozen = []
def bind(bind=cli._bind_layers):
    bind()
    frozen.append(gc.get_freeze_count())
cli._bind_layers = bind
sys.argv[1:] = ["hindex", "--events", sys.argv[1], "--out-dir", sys.argv[2]]
assert cli.main() == 0
frozen.append(gc.get_freeze_count())
loaded = [sorted(m for m in sys.modules if (m + ".").startswith(p + ".")) for p in ("iprank", "numpy")]
print(json.dumps([frozen, *loaded]))
"""
    frozen, iprank_modules, numpy_modules = json.loads(
        last_line(code, trace_dir / "events.tsv", trace_dir / "out")
    )
    assert 0 < frozen[0] < frozen[1]
    assert iprank_modules == LOADED_BY_A_COMMAND and "numpy" in numpy_modules
    assert (trace_dir / "out" / "hindex.tsv").exists()


EXPORTS = [
    "ActivityLog", "ClickTable", "FollowEdgeList", "GraphStats", "InfluenceGraph", "IpParams",
    "IpRankError", "IterationTrace", "PageRankParams", "PercentileCurve", "RankReport",
    "RateReport", "ScorePair", "ScoreVector", "TweetEvent", "build_comention", "build_retweet",
    "build_retweet_follower", "follower_count", "graph_stats", "h_index_scores", "parse_clicks",
    "parse_events", "parse_follows", "percentile_curve", "rank_correlation", "rank_join",
    "rate_report", "retweet_count", "run_ip", "top_k", "url_attribute_average",
    "weighted_pagerank",
]
SUBMODULES = ["analytics", "baselines", "cli", "errors", "graphs", "ingest", "ipcore", "testkit"]


@pytest.mark.parametrize("package,loaded", [("numpy", "[]"), ("iprank", "['iprank']")])
def test_package_import_loads_no_module(package, loaded):
    assert modules_after(package, "import iprank") == loaded


def test_each_public_name_is_its_modules_object():
    assert iprank.__all__ == EXPORTS
    for name in EXPORTS:
        obj = getattr(iprank, name)
        assert obj.__module__.startswith("iprank.") and obj.__name__ == name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_package_names_and_submodules_load_on_first_use():
    code = """
import json
import iprank
listed = dir(iprank)
submodule = iprank.ingest is sys.modules["iprank.ingest"]
star = {}
exec("from iprank import *", star)
try:
    iprank.nosuch
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([listed, submodule, sorted(star.keys() - {"__builtins__"}), unknown]))
"""
    listed, submodule, star, unknown = json.loads(last_line(code))
    assert set(listed) >= {*EXPORTS, *SUBMODULES, "__version__", "__all__"}
    assert submodule and star == EXPORTS
    assert unknown == "module 'iprank' has no attribute 'nosuch'"


def test_ip_and_pagerank_load_no_scipy(trace_dir):
    # the IP and PageRank kernels are numpy only, so scoring loads no scipy either
    code = (
        "from iprank.cli import main\n"
        "for cmd in ('ip', 'pagerank'):\n"
        "    argv = [cmd, '--events', sys.argv[1], '--graph-type', 'rt', '--min-urls', '1']\n"
        "    assert main(argv + ['--out-dir', sys.argv[2]]) == 0, cmd"
    )
    out = trace_dir / "out"
    assert modules_after("scipy", code, trace_dir / "events.tsv", out) == "[]"
    assert (out / "ip_scores.tsv").exists() and (out / "pagerank.tsv").exists()


def test_no_command_loads_numpy_ma(trace_dir):
    # importing numpy.ma costs 10-16 ms, and numpy.unique and numpy.median load it
    code = (
        "from iprank.cli import main\n"
        "events, follows, clicks, out = sys.argv[1:]\n"
        "trace = ['--events', events, '--min-urls', '1', '--out-dir', out]\n"
        "ip_scores, pagerank = f'{out}/ip_scores.tsv', f'{out}/pagerank.tsv'\n"
        "for argv in (\n"
        "    ['build', *trace], ['ip', *trace], ['pagerank', *trace],\n"
        "    ['hindex', '--events', events, '--out-dir', out],\n"
        "    ['rates', '--events', events, '--follows', follows, '--out-dir', out],\n"
        "    ['curve', '--scores', ip_scores, '--column', 'influence', '--events', events,\n"
        "     '--clicks', clicks, '--bin-count', '5', '--out-dir', out],\n"
        "    ['rank', '--scores', pagerank, '--events', events, '--min-posted', '2',\n"
        "     '--out-dir', out],\n"
        "    ['compare', '--scores-a', ip_scores, '--column-a', 'influence',\n"
        "     '--scores-b', f'{out}/hindex.tsv', '--out-dir', out],\n"
        "):\n"
        "    assert main(argv) == 0, argv"
    )
    inputs = (trace_dir / name for name in ("events.tsv", "follows.tsv", "clicks.tsv", "out"))
    assert modules_after("numpy.ma", code, *inputs) == "[]"
    assert len(list((trace_dir / "out").glob("*.tsv"))) == 10
