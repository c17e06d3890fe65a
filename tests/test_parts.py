"""Reading and writing in parts: a graph or score file read as line-aligned
byte ranges, each in a forked process, and rows formatted in contiguous
parts, against the same work done in one part.

The part sizes are patched to one byte or row, and the CPU count or the
cuts themselves are patched, so that small drawn files split anywhere."""

import os
import pickle
import tempfile
from contextlib import ExitStack, contextmanager
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from iprank import ingest
from iprank.cli import read_score_columns
from iprank.errors import ConfigInvalid, IpRankError, MissingInput, UnparsableLine
from iprank.graphs import graph_from_tsv, graph_to_tsv
from iprank.ingest import _tsv_rows

_REAL_CUT = ingest._cut


@contextmanager
def parts(cpus=1, cuts=None):
    """Every read and write splits wherever it may: parts of one byte or row
    at least, ``cpus`` CPUs, or, given ``cuts``, one part more than it holds
    offsets, each range ending after the first line end at or after one
    (or at the file's end)."""
    with ExitStack() as stack:
        stack.enter_context(patch.object(ingest, "_PART_BYTES", 1))
        stack.enter_context(patch.object(ingest, "_PART_FLOATS", 1))
        if cuts is not None:
            cpus = len(cuts) + 1
            at = iter(sorted(cuts))

            def cut(fd, pos):
                return _REAL_CUT(fd, min(next(at), os.fstat(fd).st_size))

            stack.enter_context(patch.object(ingest, "_cut", cut))
        stack.enter_context(patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))))
        yield


def _outcome(read):
    """What ``read()`` gives: its result, or its error's type, message and line number."""
    try:
        return read()
    except IpRankError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line_no", None)


def _graph(path):
    with open(path, "rb") as fh:
        return graph_to_tsv(graph_from_tsv(fh))


def _scores(path):
    label, columns = read_score_columns(path)
    return label, {name: (v.node_ids, v.values.tolist()) for name, v in columns.items()}


READERS = {"graph": _graph, "scores": _scores}


def _written(data):
    fd, path = tempfile.mkstemp(suffix=".tsv")
    with os.fdopen(fd, "wb") as fh:
        fh.write(data)
    return path


def _assert_parts_read_as_one(data, cuts):
    """Each reader gives the same result, or the same first error, from
    ``data`` in one part and cut after the first line end at or after each
    of ``cuts``, and leaves no child behind."""
    path = _written(data)
    try:
        for name, read in READERS.items():
            one = _outcome(lambda: read(path))
            with parts(cuts=cuts):
                assert _outcome(lambda: read(path)) == one, (name, cuts)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
    finally:
        os.unlink(path)


# ids of one and two key words, and over 15 UTF-8 bytes (interned as text)
IDS = ["a", "b", "n7", "é", "x" * 16, "y" * 15, "é" * 9, "z" * 24]
WEIGHTS = ["0.5", "1", "0.25", "1e-3"]
SCORES = ["0.5", "1", "-2", "1e300", "inf"]
GRAPH_FAULTS = [
    "a\ta\t0.5", "a\tb\t2", "a\tb\tx", "a\tb", "a\t#b\t0.5", "\tb\t0.5", "a\tb\tnan",
    "#nodes=2 arcs=1", "#nodes=8 arcs=0",
]
SCORE_FAULTS = ["a\tx", "a\t1\t2", "\t1", "a", "a\tnan", "#measure=m", "#measure=n"]
# lines every reader skips or that no format holds, and bytes that are not UTF-8
ODD = ["", " ", "#c", "#nodes=", b"\xff\xfe", "a\t-\t-", "n7\t-\t-", "q\tr\t0.5\tx"]
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def files(draw):
    """A graph or score file: mostly valid lines over a few ids, each line
    end drawn, a byte order mark or a header perhaps, and a few faulty or
    odd lines anywhere."""
    ids = st.sampled_from(IDS)
    if draw(st.booleans()):
        arcs = st.tuples(ids, ids, st.sampled_from(WEIGHTS)).filter(lambda a: a[0] != a[1])
        lines = ["\t".join(a) for a in draw(st.lists(arcs, max_size=24, unique_by=lambda a: a[:2]))]
        faults, header = GRAPH_FAULTS, "#nodes=8 arcs=3"
    else:
        width = draw(st.sampled_from([1, 2]))
        rows = st.tuples(ids, *[st.sampled_from(SCORES)] * width)
        lines = ["\t".join(r) for r in draw(st.lists(rows, max_size=24, unique_by=lambda r: r[0]))]
        faults, header = SCORE_FAULTS, "#measure=m"
    if draw(st.booleans()):
        lines.insert(0, header)
    for _ in range(draw(st.integers(0, 3))):
        odd = draw(st.sampled_from(faults + ODD + lines[:1]))  # the first line again: a repeat
        lines.insert(draw(st.integers(0, len(lines))), odd)
    out = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    for line in lines:
        out += (line if isinstance(line, bytes) else line.encode()) + draw(LINE_ENDS).encode()
    return out if draw(st.booleans()) else out.rstrip(b"\r\n")


@settings(max_examples=60, deadline=None)
@given(files(), st.lists(st.integers(0, 400), min_size=1, max_size=3))
@example(b"a\tb\t0.5\r\nb\ta\t1\r\n\xff\r\nb\ta\t1\n", [8])
@example(b"#nodes=2 arcs=1\na\tb\t0.5\n#nodes=2 arcs=1\n", [16])
@example(b"a\t1\n#measure=m\nb\t2\n", [3])
@example(b"\xef\xbb\xbfa\tb\t0.5\r" + b"x" * 16 + b"\tb\t1\rb\t" + b"x" * 16 + b"\t1\r", [10, 30])
def test_a_file_read_in_parts_reads_as_in_one(data, cuts):
    """Cuts land anywhere: inside a CRLF, a long id, a header, before a
    fault or after the file's end; the ranges may be empty."""
    _assert_parts_read_as_one(data, cuts)


def test_every_cut_of_a_file_reads_as_one_part():
    """Every line-aligned cut, into two and three parts, of files with a
    fault, a second header, a repeat across parts and long ids."""
    texts = [
        "a\tb\t0.5\r\n" + "x" * 16 + "\tb\t1\r\nb\ta\t0.25\rb\t" + "x" * 16 + "\t1\n",
        # long ids first seen in one order before the cut and in the other after it
        "".join(
            f"{u}\t{v}\t0.5\n"
            for u, v in [("x" * 16, "a"), ("z" * 24, "a"), ("z" * 24, "b"), ("x" * 16, "b")]
        ),
        "#nodes=3 arcs=2\na\tb\t0.5\nb\ta\t1\n#nodes=3 arcs=2\nc\t-\t-\n",
        "a\tb\t0.5\nb\ta\t1\nb\tc\t2\na\tb\t0.5\n",  # a fault, then a repeat
        "a\tb\t0.5\nb\ta\t1\nc\td\t1\na\tb\t0.5\n",  # a repeat of line 1 in the last part
        "#measure=m\na\t1\nb\t2\nc\t1\t2\n",
        "a\t1\nb\t2\n#measure=m\nc\t3\n",
        "a\t1\t2\nb\t3\t4\nc\t5\nd\t6\t7\n",
    ]
    for text in texts:
        data = text.encode()
        for cut in range(len(data)):
            _assert_parts_read_as_one(data, [cut])
        _assert_parts_read_as_one(data, [len(data) // 3, 2 * len(data) // 3])


def test_a_large_file_splits_one_part_per_cpu(tmp_path):
    """With the real cuts, one part per CPU: a fault in the last part is
    raised from its worker with the line number of the whole file."""
    lines = [f"n{k}\tn{k + 1}\t0.5" for k in range(300)]
    lines[250] = "n250\tn250\t0.5"
    path = tmp_path / "graph.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    for cpus in (1, 2, 4):
        forks.clear()
        with parts(cpus), patch.object(os, "fork", fork):
            with open(path, "rb") as fh, pytest.raises(UnparsableLine) as caught:
                graph_from_tsv(fh)
        assert (caught.value.line_no, caught.value.reason) == (251, "self-arc")
        assert len(forks) == cpus - 1
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)


def test_a_small_input_one_cpu_or_no_fork_is_one_part(tmp_path, monkeypatch):
    path = tmp_path / "scores.tsv"
    path.write_text("#measure=m\n" + "".join(f"u{k}\t{k}\n" for k in range(50)), encoding="utf-8")
    expected = read_score_columns(str(path))

    def no_fork():
        raise AssertionError("forked")

    with patch.object(os, "fork", no_fork):
        assert read_score_columns(str(path)) == expected  # under the real part size
        with parts(cpus=1):
            assert read_score_columns(str(path)) == expected
            assert _tsv_rows(("%r",), [0.5] * 100) == "0.5\n" * 100
        with parts(cpus=4):  # no float to format
            assert _tsv_rows(("%s", "%d"), ["x"] * 100, [1] * 100) == "x\t1\n" * 100
    monkeypatch.delattr(os, "fork")  # a platform without it
    with parts(cpus=4):
        assert read_score_columns(str(path)) == expected
        assert _tsv_rows(("%r",), [0.5] * 100) == "0.5\n" * 100


def test_a_stream_not_a_binary_file_is_one_part(tmp_path):
    path = tmp_path / "graph.tsv"
    path.write_text("a\tb\t0.5\nb\ta\t1\n", encoding="utf-8")
    with parts(cpus=4), patch.object(os, "fork", None):
        with open(path, encoding="utf-8") as fh:
            assert graph_from_tsv(fh).num_arcs == 2
        assert graph_from_tsv(path.read_bytes()).num_arcs == 2


def test_a_read_in_parts_starts_at_the_stream_position(tmp_path):
    path = tmp_path / "graph.tsv"
    path.write_bytes(b"x\ty\tz\na\tb\t0.5\nb\ta\t1\nb\tc\t2\n")
    for cpus in (1, 3):
        with parts(cpus), open(path, "rb") as fh:
            fh.readline()
            with pytest.raises(UnparsableLine) as caught:
                graph_from_tsv(fh)
        assert (caught.value.line_no, caught.value.line) == (3, "b\tc\t2")


def test_an_error_from_a_part_reaches_the_caller_as_itself():
    with parts(cpus=2):
        with pytest.raises(TypeError, match="must be real number, not str"):
            _tsv_rows(("%.17g",), [1, 2, "x", 4])  # the second part's first row
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_unparsable_line_survives_a_pickle_round_trip():
    error = UnparsableLine(3, "a\tb", "self-arc")
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is UnparsableLine
    assert (back.line_no, back.line, back.reason) == (3, "a\tb", "self-arc")
    assert str(back) == str(error) == "line 3: self-arc: 'a\\tb'"
    for error in (ConfigInvalid("line 2 of f: x"), MissingInput("no rows")):
        assert str(pickle.loads(pickle.dumps(error))) == str(error)


# the cells each format is given: ids, and floats at the edges of the format
CELLS = {
    "%s": st.sampled_from(["a", "é", "x" * 20, 7]),
    "%d": st.sampled_from([0, -3, 2**63]),
    "%r": st.sampled_from([0.1, -0.0, 1e300, 5e-324, float("inf")]),
    "%.17g": st.sampled_from([0.1, -0.0, 1e300, 5e-324, float("nan"), 7]),
}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 * ingest._ROW_BLOCK + 2), st.integers(1, 5), st.data())
def test_rows_written_in_parts_equal_one_part(rows, cpus, data):
    """Rows around the block of one ``%`` split into up to five parts, a
    literal column (as a graph's node lines have) among them."""
    formats = data.draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=2))
    formats += [data.draw(st.sampled_from(["%r", "%.17g"]))]  # a float makes parts
    columns = [data.draw(st.lists(CELLS[f], min_size=rows, max_size=rows)) for f in formats]
    formats += ["-"] * data.draw(st.integers(0, 1))
    one = _tsv_rows(formats, *columns)
    with parts(cpus):
        assert _tsv_rows(formats, *columns) == one
    assert one.count("\n") == rows


def test_a_part_that_ends_without_its_outcome_is_an_error():
    with pytest.raises(RuntimeError, match="ended without its outcome"):
        ingest._forked([lambda: 1, lambda: os._exit(3)])
    with pytest.raises(RuntimeError, match="ended without its outcome"):
        ingest._forked([lambda: 1, lambda: lambda: 2])  # a lambda does not pickle
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_fork_that_fails_leaves_no_child_and_no_pipe(tmp_path):
    path = tmp_path / "graph.tsv"
    path.write_text("".join(f"n{k}\tn{k + 1}\t0.5\n" for k in range(100)), encoding="utf-8")
    real_fork, forks = os.fork, []

    def fork():  # the second fork fails
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(1)
        return real_fork()

    fds = len(os.listdir("/proc/self/fd"))
    with parts(cpus=3), patch.object(os, "fork", fork), open(path, "rb") as fh:
        with pytest.raises(BlockingIOError):
            graph_from_tsv(fh)
    assert len(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
