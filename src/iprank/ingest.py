"""Parsers and containers for activity traces, follower edges, and click tables.

File formats (UTF-8, one record per line, TAB-separated):

  events:  ``time<TAB>user<TAB>url<TAB>M``                     plain mention
           ``time<TAB>user<TAB>url<TAB>RT<TAB>source``         retweet
  follows: ``followee<TAB>follower``
  clicks:  ``url<TAB>count``

``time`` is a base-10 integer (milliseconds) that fits in 64 bits.

Every reader in the package takes its lines from :func:`_records`, which
takes a binary or text stream, ``str`` or ``bytes``, and reads it as UTF-8 in
blocks of about 128 KiB. LF, CR and CRLF each end a line. A byte order mark
opening bytes input is dropped, and a line of bytes input that is not UTF-8
is an error, reported in file order with the other line faults. One line
rule applies to a whole block at once: a line is skipped when its first
character is ``#``, or when it has no TAB and is empty, whitespace only, or
whitespace then ``#``. No record of any format has that shape, so every line
a writer emits reads back; files may carry ``#`` headers, and no id may
start with ``#``. Each format is declared once, as an ordered list of column
checks (``_EVENTS``, ``_FOLLOWS`` and ``_CLICKS`` here, ``graphs._GRAPH``,
``cli._score_checks``), which :func:`_judge` runs over each block: a line's
error is the first check it fails, so the order decides which error a line
with several faults reports. Large row sets are written in parts on every
CPU (:func:`_tsv_rows`), and a large graph or score file is read so by one
protocol, :func:`_in_parts`: the reader gives only its block rules.
"""

from __future__ import annotations

import io
import math
import operator
import os
import pickle
import re
import signal
from array import array
from functools import cached_property, partial
from itertools import compress, repeat
from types import MappingProxyType
from typing import (
    IO, Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence, TypeVar,
)

import numpy as np

from .errors import EmptyInput, IpRankError, NegativeCount, UnparsableLine

MENTION = "M"
RETWEET = "RT"
T = TypeVar("T")
_Table = tuple[tuple[str, ...], np.ndarray]  # sorted ids, and the code of each number

# the reasons a record is rejected, by the readers and by the constructors alike
_EVENT_SHAPE = "expected 'time user url M' or 'time user url RT source'"
_EMPTY_USER = "empty user id"
_EMPTY_URL = "empty url"
_EMPTY_SOURCE = "empty retweet source"
_SELF_CREDIT = "retweet credits its own author"
_SELF_FOLLOW = "self-follow"
# a written id starting with "#" would read back as a comment
_HASH_ID = "id starts with '#'"


def _id_error(uid: str) -> str | None:
    """Why ``uid`` would not read back from a file, or None when it would."""
    if not uid:
        return _EMPTY_USER
    if uid[0] == "#":
        return _HASH_ID
    if "\t" in uid or "\r" in uid or "\n" in uid:
        return "id contains TAB, CR or LF"
    return None


def _check_ids(*ids: str) -> None:
    """Raise ``ValueError`` for the first of ``ids`` that :func:`_id_error` rejects."""
    for uid in ids:
        if reason := _id_error(uid):
            raise ValueError(f"{reason}: {uid!r}")


class _Ids(tuple):
    """Ids :func:`_sorted_ids` checked, which it takes back unchecked."""

    __slots__ = ()


def _sorted_ids(node_ids: Sequence[str]) -> _Ids:
    """``node_ids`` as a tuple, checked to be strictly ascending (so distinct)
    and to pass :func:`_id_error`, unless it was checked already."""
    if type(node_ids) is _Ids:
        return node_ids
    ids = tuple(node_ids)
    if not all(map(operator.lt, ids, ids[1:])):
        raise ValueError("node ids must be distinct and sorted ascending")
    text = "\n".join(("", *ids))  # each id after its own LF: one string holds them all
    bad = "\n#" in text or "\t" in text or "\r" in text or text.count("\n") != len(ids)
    if bad or ids[:1] == ("",):  # sorted, so an empty id comes first
        _check_ids(*ids)
    return _Ids(ids)


def _picked(ids: _Ids, codes: np.ndarray) -> _Ids:
    """The ids at ``codes``, which must ascend strictly, of the checked table
    ``ids``: ids taken in id order from a checked table are checked too."""
    return _Ids(map(ids.__getitem__, codes.tolist()))


_set = object.__setattr__  # how a frozen record's ``__init__`` stores a field


def _same(a: object, b: object) -> bool:
    """Whether two field values are equal: by ``np.array_equal`` when either
    is an array, item by item when both are tuples or lists (so a list of ids
    equals the tuple of them), by ``==`` otherwise. Two id tables hold no
    array, so they compare as tuples, without a call per id."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if type(a) is type(b) is _Ids:
        return a == b
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


class _Frozen:
    """Base of the records that refuse assignment: each names its fields in
    ``__slots__`` and stores them with ``_set``. Equality and ``repr`` read
    the public fields but ``skipped``: records of one class are equal when
    those are (:func:`_same`), and hash alike then unless they hold arrays
    or lists, which make them unhashable."""

    __slots__ = ()

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> dict[str, object]:
        return {k: getattr(self, k) for k in self.__slots__ if k[0] != "_" and k != "skipped"}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(map(_same, self._values().values(), other._values().values()))

    def __hash__(self) -> int:
        return hash(tuple(self._values().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._values().items())
        return f"{type(self).__name__}({fields})"


def _same_columns(self: tuple, other: object) -> bool:
    """Equality of a NamedTuple of arrays: column by column, by :func:`_same`."""
    return all(map(_same, self, other)) if type(other) is type(self) else NotImplemented


class TweetEvent(NamedTuple):
    """One row of an :class:`ActivityLog`, as iterating it yields them: a
    timestamped URL post, a plain mention or a retweet crediting ``source``."""

    time: int
    user: str
    url: str
    source: str | None = None


class Posts(NamedTuple):
    """Distinct (user, url) pairs of a log, sorted by (user, url).

    ``first`` and ``last`` are the earliest and latest time the user mentioned
    the URL (retweets count as mentions); ``key`` is the ascending
    :meth:`ActivityLog.post_key` of each row, for lookups.
    """

    user: np.ndarray
    url: np.ndarray
    first: np.ndarray
    last: np.ndarray
    key: np.ndarray

    # tuple's own == would ask each array pair for one bool
    __eq__, __ne__, __hash__ = _same_columns, object.__ne__, None


class Retweets(NamedTuple):
    """Distinct (source, retweeter, url) triples whose source posted the URL,
    sorted, with the number of retweet events behind each triple."""

    source: np.ndarray
    user: np.ndarray
    url: np.ndarray
    count: np.ndarray

    __eq__, __ne__, __hash__ = _same_columns, object.__ne__, None


def _sorted_codes(table: Iterable[str]) -> _Table:
    """Ids in sorted order, and the map from insertion code to sorted code;
    ``table`` codes its distinct ids 0, 1, ... in the order it gives them."""
    ids = list(table)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[order] = np.arange(len(ids))
    return tuple(map(ids.__getitem__, order)), rank


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """Start index of each run of equal rows in sorted, equal-length columns."""
    new = np.zeros(cols[0].size, dtype=bool)
    new[:1] = True
    for col in cols:
        new[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(new)


def _in_order(*cols: np.ndarray, keys: int | None = None) -> tuple[np.ndarray, ...]:
    """The rows of the equal-length ``cols`` sorted by their first ``keys``
    columns (all by default), the first deciding first. Rows already in
    order, as in a file that a writer here made, are not sorted again."""
    ok = True
    for col in reversed(cols[:keys]):  # whether the rows never decrease
        ok = (col[:-1] < col[1:]) | (col[:-1] == col[1:]) & ok
    if np.all(ok):
        return cols
    order = np.lexsort(cols[:keys][::-1])
    return tuple(col[order] for col in cols)


def _positions(table: Sequence[str], ids: Sequence[str]) -> np.ndarray:
    """Each id's position in ``table``, -1 where absent: the one id lookup."""
    index = dict(zip(table, range(len(table))))
    return np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each key in ``sorted_keys`` (clipped to a valid index) and
    whether it is present there."""
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=np.int64), np.zeros(keys.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return pos, sorted_keys[pos] == keys


def _columns(*cols: Sequence[int]) -> tuple[np.ndarray, ...]:
    """``cols`` as int64 arrays, an int64 array kept as given; ``ValueError``
    unless they hold integers, are 1-D and are of one length."""
    if any(np.asarray(col).dtype.kind not in "iu" and np.size(col) for col in cols):
        raise ValueError("columns must hold integers")  # not cast: 1.5 would read 1
    cols = tuple(np.asarray(col, dtype=np.int64) for col in cols)
    if any(col.ndim != 1 or col.size != cols[0].size for col in cols):
        raise ValueError("columns must be 1-D and of equal length")
    return cols


def _check_codes(ids: Sequence[str], *cols: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``cols`` hold codes into ``ids`` and name each id."""
    named = np.zeros(len(ids), dtype=bool)
    for col in cols:
        if col.size and (col.min() < 0 or col.max() >= len(ids)):
            raise ValueError(f"code out of range: {len(ids)} ids")
        named[col] = True
    if not named.all():
        raise ValueError(f"id named by no row: {ids[int(np.argmin(named))]!r}")


class ActivityLog(_Frozen):
    """Time-sorted events as columns of interned codes.

    ``user_ids`` (authors and retweet sources) and ``url_ids`` are sorted, so
    code order is id order, and hold just the ids the rows name. ``time``,
    ``user``, ``url`` and ``source`` are int64 columns, ``source`` being -1
    for a plain mention. Rows are ordered by (time, user, url, kind, source),
    so the log is identical no matter how its rows were given. An int64
    column is kept as given, not copied, and made read-only, unless its rows
    must be sorted. The log is a frozen record, its caches included.
    """

    __slots__ = (
        "user_ids", "url_ids", "time", "user", "url", "source", "skipped", "_posts", "_retweets",
    )

    def __init__(
        self, user_ids: Sequence[str], url_ids: Sequence[str], time: Sequence[int],
        user: Sequence[int], url: Sequence[int], source: Sequence[int], skipped: int = 0,
    ) -> None:
        user_ids, url_ids = _sorted_ids(user_ids), _sorted_ids(url_ids)
        time, user, url, source = _columns(time, user, url, source)
        _check_codes(user_ids, user, source[source != -1])
        _check_codes(url_ids, url)
        if np.any(source == user):
            raise ValueError(_SELF_CREDIT)
        for name, col in zip(("time", "user", "url", "source"), _in_order(time, user, url, source)):
            col.flags.writeable = False
            _set(self, name, col)
        _set(self, "user_ids", user_ids)
        _set(self, "url_ids", url_ids)
        _set(self, "skipped", skipped)
        _set(self, "_posts", None)
        _set(self, "_retweets", None)

    @property
    def by_user(self) -> dict[str, tuple[int, ...]]:
        """Row positions of each posting user, users in id order."""
        index: dict[int, list[int]] = {}
        for pos, code in enumerate(self.user.tolist()):
            index.setdefault(code, []).append(pos)
        return {self.user_ids[c]: tuple(index[c]) for c in sorted(index)}

    def post_key(self, user: np.ndarray, url: np.ndarray) -> np.ndarray:
        """Key of (user, url) code pairs that sorts like the pairs: under
        ``len(user_ids) * len(url_ids)``, so int64 holds it while each
        table has fewer than 3 billion ids."""
        return user * len(self.url_ids) + url

    @property
    def posts(self) -> Posts:
        if self._posts is None:
            key = self.post_key(self.user, self.url)
            order = np.argsort(key)  # unstable: equal keys are one pair
            key = key[order]
            starts = _run_starts(key)
            # rows are in time order, so a pair's lowest row is its first mention
            first, last = np.minimum.reduceat(order, starts), np.maximum.reduceat(order, starts)
            _set(self, "_posts", Posts(
                self.user[first], self.url[first], self.time[first], self.time[last], key[starts],
            ))
        return self._posts

    @property
    def retweets(self) -> Retweets:
        if self._retweets is None:
            rows = np.flatnonzero(self.source >= 0)
            source, user, url = self.source[rows], self.user[rows], self.url[rows]
            _, posted = _lookup(self.posts.key, self.post_key(source, url))
            n = len(self.user_ids)
            # a (source, user) key is under n**2, the bound ``rate_report``'s
            # follow keys rely on; the pairs ranked densely, a rank then takes
            # its url: under rows * len(url_ids), held while each is under 3e9
            pairs, rank = np.unique(source[posted] * n + user[posted], return_inverse=True)
            key, count = np.unique(rank * len(self.url_ids) + url[posted], return_counts=True)
            rank, url = np.divmod(key, len(self.url_ids))
            _set(self, "_retweets", Retweets(*np.divmod(pairs[rank], n), url, count))
        return self._retweets

    def follow_codes(
        self, follows: "FollowEdgeList"
    ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """Follow edges as (followee, follower) code arrays sorted by that pair.

        Ids the log never saw get codes from ``len(user_ids)`` up, in the
        order of the returned sorted tuple of extra ids.
        """
        codes = _positions(self.user_ids, follows.user_ids)
        missing = np.flatnonzero(codes < 0)
        codes[missing] = np.arange(len(self.user_ids), len(self.user_ids) + missing.size)
        extra = _picked(follows.user_ids, missing)
        # distinct edges, so distinct keys, each under m**2: int64 holds it
        # while the two tables together have fewer than 3 billion ids
        m = len(self.user_ids) + len(extra)
        key = np.sort(codes[follows.followee] * m + codes[follows.follower])
        return (*np.divmod(key, m), extra)

    def __len__(self) -> int:
        return int(self.time.size)

    def __iter__(self) -> Iterator[TweetEvent]:
        users = self.user_ids
        return map(
            TweetEvent, self.time.tolist(), map(users.__getitem__, self.user.tolist()),
            map(self.url_ids.__getitem__, self.url.tolist()),
            map((*users, None).__getitem__, self.source.tolist()),  # -1 reads None
        )

    def __repr__(self) -> str:
        return f"ActivityLog({len(self)} events, {np.count_nonzero(np.bincount(self.user))} users)"


class FollowEdgeList(_Frozen):
    """Directed follow relation as columns of interned codes.

    ``user_ids`` holds every edge endpoint, sorted; ``followee`` and
    ``follower`` are int64 codes into it, one row per distinct edge, rows
    sorted by (followee, follower). Repeated edges collapse to one. Columns
    are kept as given, as in :class:`ActivityLog`, when they need no sorting
    and hold no repeat.
    """

    __slots__ = ("user_ids", "followee", "follower", "skipped")

    def __init__(
        self, user_ids: Sequence[str], followee: Sequence[int], follower: Sequence[int],
        skipped: int = 0,
    ) -> None:
        user_ids = _sorted_ids(user_ids)
        followee, follower = _columns(followee, follower)
        _check_codes(user_ids, followee, follower)
        if np.any(followee == follower):
            raise ValueError(_SELF_FOLLOW)
        followee, follower = _in_order(followee, follower)
        first = _run_starts(followee, follower)
        if first.size < followee.size:
            followee, follower = followee[first], follower[first]
        followee.flags.writeable = follower.flags.writeable = False
        _set(self, "user_ids", user_ids)
        _set(self, "followee", followee)
        _set(self, "follower", follower)
        _set(self, "skipped", skipped)

    def __len__(self) -> int:
        return int(self.followee.size)


class ClickTable(_Frozen):
    """Total registered clicks per URL, as a read-only copy of the mapping given."""

    __slots__ = ("clicks", "skipped")

    def __init__(self, clicks: Mapping[str, int], skipped: int = 0) -> None:
        _check_ids(*clicks)
        for url, count in clicks.items():
            if count < 0:
                raise ValueError(f"negative count {count}: {url!r}")
        _set(self, "clicks", MappingProxyType(dict(clicks)))
        _set(self, "skipped", skipped)


_BLOCK = 1 << 17  # bytes, or characters of a text stream, read at a time: not a setting
# The least a part holds when a file is read, or rows are written, in parts:
# about the break-even of two parts against one, measured in-process on a
# 2-CPU host (Python 3.11.7, numpy 2.4.6), as min / median ms of 15 or 21
# alternating rounds at each size:
# - graph files of 1, 2 and 4 MiB: 29.7 / 32.2 -> 29.7 / 42.7,
#   58.6 / 66.1 -> 51.4 / 71.2 and 113.0 / 125.9 -> 92.5 / 124.3;
# - score files (3 columns) of 1, 2 and 4 MiB: 23.6 / 25.3 -> 22.5 / 26.3,
#   45.8 / 78.4 -> 40.9 / 58.5 and 95.4 / 157.1 -> 80.1 / 107.4;
# - rows written, counted in floats, since "%.17g" or "%r" of a float costs
#   about ten times an id or an integer: 16,384 and 32,768 rows of one float
#   took 8.9 / 11.2 -> 12.3 / 14.3 and 17.8 / 28.6 -> 16.6 / 23.7; 8,192
#   and 16,384 rows of two, 8.4 / 8.9 -> 9.9 / 13.8 and 17.3 / 19.4 ->
#   15.2 / 20.0; 100,000 rows of an id and two integers, 26.5 / 31.4 ->
#   31.3 / 38.8.
_PART_BYTES = 1 << 20
_PART_FLOATS = 1 << 14


def _part_count(size: int, least: int) -> int:
    """How many parts ``size`` bytes or floats split into: one per CPU this
    process may use, none under ``least``; one where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, size // least))


def _forked(tasks: Sequence[Callable[[], T]]) -> list[T]:
    """``[task() for task in tasks]``: the first task runs in this process
    while each other one runs in a child forked for it, which sends back its
    result, or the exception it raised, pickled through a pipe. The first
    exception in task order is raised here. Every child ends in ``os._exit``
    and is reaped before this returns or raises; the children are killed
    first when this process's own task, a fork or a pipe fails."""
    children: list[tuple[int, int]] = []  # each child's pid and the read end of its pipe
    try:
        for task in tasks[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: the pipe goes too
                os.close(read)
                os.close(write)
                raise
            if not pid:
                _child(task, write)
            os.close(write)
            children.append((pid, read))
        outcomes = [(True, tasks[0]())]
        for _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                try:
                    outcomes.append(pickle.load(pipe))
                except EOFError:  # the child was killed, or its outcome did not pickle
                    raise RuntimeError("a part's process ended without its outcome") from None
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _child(task: Callable[[], object], write: int) -> NoReturn:
    """Run ``task`` in a forked child, write its outcome to the pipe
    ``write``, and end the child without running any exit handler; an
    outcome that does not pickle is not written."""
    try:
        try:
            outcome = True, task()
        except BaseException as exc:
            outcome = False, exc
        data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


class _Range:
    """Bytes ``lo`` to ``hi`` of the file open as ``fd``, as a binary
    stream, read with ``os.pread``: no file offset moves."""

    def __init__(self, fd: int, lo: int, hi: int) -> None:
        self.fd, self.pos, self.hi = fd, lo, hi

    def read(self, size: int) -> bytes:
        data = os.pread(self.fd, min(size, self.hi - self.pos), self.pos)
        self.pos += len(data)
        return data


def _line_ends(data: _Range) -> int:
    """How many lines end in ``data``: at each LF, and at each CR not before an LF."""
    ends = 0
    while chunk := data.read(1 << 20):
        ends += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == 10)
        if b"\r" in chunk:  # with the byte after the chunk, a NUL at the file's end
            after = os.pread(data.fd, 1, data.pos) or b"\0"
            raw = np.frombuffer(chunk + after, dtype=np.uint8)
            ends += np.count_nonzero((raw[:-1] == 13) & (raw[1:] != 10))
    return ends


def _cut(fd: int, pos: int) -> int:
    """The offset just after the first line end at or after ``pos`` in the
    file ``fd``, or the file's size when there is none; a CRLF is one line end."""
    while window := os.pread(fd, 1 << 12, pos):
        end = min(i for i in (window.find(b"\n"), window.find(b"\r"), len(window)) if i >= 0)
        if end < len(window):
            after = window[end + 1 : end + 2] or os.pread(fd, 1, pos + end + 1)
            return pos + end + 1 + (window[end] == 13 and after == b"\n")
        pos += len(window)
    return pos


def _in_parts(
    stream: IO | str | bytes, new: Callable[[_Range | None], T], headers: tuple[str, ...],
    misplaced: Callable[[int, str], IpRankError], late: bool = False,
    fault: Callable[[int, str, str], IpRankError] = UnparsableLine,
) -> tuple[tuple[int, str] | None, list[T]]:
    """Read ``stream`` in parts, the one protocol of the graph and score
    readers. A binary file of ``_PART_BYTES`` or more from its position on
    splits into line-aligned byte ranges, one per CPU (:func:`_part_count`),
    each read in a process of its own (:func:`_forked`); anything else is
    one part. A part runs :func:`_records` with the format's ``headers`` and
    line ``fault``, keeps its header lines, and hands each other block ``f``
    to its payload, made by ``new(before)``, as ``take(f)``: ``before`` is
    the bytes between the stream's position and the part, None for the
    first. A part stops at its first faulty line. Walked in file order, a
    second header, or with ``late`` one after a record, raises
    ``misplaced(line_no, line)``, then a part's fault is raised. Returns the
    header as (line number, line), or None, and each part's payload."""
    size = 0
    if isinstance(stream, io.BufferedReader) and stream.seekable():
        fd, start = stream.fileno(), stream.tell()
        size = os.fstat(fd).st_size - start
    n = _part_count(size, _PART_BYTES)
    cuts = n > 1 and sorted({_cut(fd, start + size * k // n) for k in range(1, n)} - {start + size})

    def read(part: IO | str | bytes, line_no: int, before: _Range | None) -> tuple:
        heads: list[tuple[int, str, bool]] = []  # with whether a record of the part came before
        payload, took = new(before), False
        try:
            for f in _records(part, headers, fault, line_no):
                if f.text[:1] == "#":  # a header: no record starts with "#"
                    heads.append((int(f.numbers[0]), f.text, took))
                else:
                    took = True
                    payload.take(f)
        except IpRankError as exc:  # the part's first faulty line: the lines after it go unread
            return heads, payload, exc, took
        return heads, payload, None, took

    def ranged(lo: int, hi: int) -> tuple:
        line_no = 1 + _line_ends(_Range(fd, start, lo))
        return read(_Range(fd, lo, hi), line_no, _Range(fd, start, lo) if lo > start else None)

    bounds = [start, *cuts, start + size] if cuts else []
    tasks = [partial(ranged, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    outcomes = _forked(tasks or [partial(read, stream, 1, None)])
    header, seen = None, False
    for heads, _, error, took in outcomes:  # in file order, so the first fault is raised
        for line_no, line, after in heads:
            if header is not None or late and (seen or after):
                raise misplaced(line_no, line)
            header = line_no, line
        if error is not None:
            raise error
        seen = seen or took
    return header, [payload for _, payload, _, _ in outcomes]


def _blocks(stream: IO | str | bytes) -> Iterator[tuple[bytes, bool]]:
    """``stream`` as UTF-8 in blocks of whole lines, about ``_BLOCK`` at a
    time, each with whether the input is bytes. A block ends after an LF, or
    after a CR other than the last byte read, so no CRLF is split."""
    if isinstance(stream, (str, bytes)):
        stream = io.StringIO(stream) if isinstance(stream, str) else io.BytesIO(stream)
    head: list[bytes] = []  # the start of a line longer than a block
    while chunk := stream.read(_BLOCK):
        raw = isinstance(chunk, bytes)
        chunk = chunk if raw else chunk.encode("utf-8", "surrogatepass")
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut:
            yield b"".join((*head, chunk[:cut])), raw
            head, chunk = [], chunk[cut:]
        if chunk:
            head.append(chunk)
    if head:
        yield b"".join(head), raw


class _Fields:
    """One block of records, split at every TAB and LF at once.

    ``rows`` are the lines still in play: all at first, fewer once
    :func:`_judge` has dropped those failing a check. Each accessor gives a
    value per line in play, computed once while they stay in play. Field
    sizes and leading bytes come from the block's bytes, with no Python work
    per line.
    """

    def __init__(self, numbers: np.ndarray, text: str) -> None:
        self.numbers, self.text = numbers, text
        # TAB and LF are one byte each; the LF appended ends the last line, and
        # 16 zero bytes keep the 8-byte loads of :meth:`keys` inside the block
        data = text.encode("utf-8", "surrogatepass") + b"\n" + bytes(16)
        self.raw = np.frombuffer(data, dtype=np.uint8)
        self._word_at = np.ndarray((self.raw.size - 7,), ">u8", data, strides=(1,))  # bytes i..i+7
        sep = np.flatnonzero((self.raw == 9) | (self.raw == 10))
        lf = np.flatnonzero(self.raw[sep] == 10)
        self.begin = np.concatenate(([0], sep[:-1] + 1))  # first byte of each field
        self.sizes = sep - self.begin
        self.start = np.concatenate(([0], lf[:-1] + 1))  # first field of each line
        self.tabs = lf - self.start
        # fields per line when every line has as many, else 0
        self.width = int(self.tabs[0]) + 1 if self.tabs.min() == self.tabs.max() else 0
        self.rows = np.arange(lf.size)
        self._memo: dict[object, object] = {}

    flat = cached_property(lambda self: self.text.replace("\n", "\t").split("\t"))

    def drop(self, out: np.ndarray) -> None:
        """Take the lines ``out`` marks out of play."""
        self.rows = self.rows[~out]
        self._memo.clear()

    def line(self, row: int) -> list[str]:
        """The fields of line ``row`` of the block."""
        return self.flat[self.start[row] : self.start[row] + self.tabs[row] + 1]

    def _once(self, key: object, make: Callable[[], T]) -> T:
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]  # type: ignore[return-value]

    def fields(self) -> np.ndarray:
        return self._once("fields", lambda: self.tabs[self.rows] + 1)

    def _at(self, k: int) -> np.ndarray:
        """The index of field ``k`` of each line; where it has none, some other index."""
        return self._once("start", lambda: self.start[self.rows]) + k

    def size(self, k: int) -> np.ndarray:
        """The UTF-8 length of field ``k``, -1 where the line has none."""
        return self._once(("size", k), lambda: np.where(
            self.fields() > k, self.sizes.take(self._at(k), mode="clip"), -1
        ))

    def starts(self, k: int, prefix: str) -> np.ndarray:
        """Whether field ``k`` starts with the ASCII ``prefix``."""

        def make() -> np.ndarray:
            begin = self.begin.take(self._at(k), mode="clip")
            out = self.size(k) >= len(prefix)
            for i, byte in enumerate(prefix.encode("ascii")):
                out &= self.raw.take(begin + i, mode="clip") == byte
            return out

        return self._once((k, prefix), make)

    def take(self, k: int, sel: np.ndarray | None = None) -> list[str]:
        """Field ``k`` of every line in play, or of each of the ascending
        positions ``sel`` among them. A line without field ``k`` gives some
        other field of the block."""
        whole = sel is None or sel.size == self.rows.size
        if whole and k < self.width and self.rows.size == self.tabs.size:
            return self.flat[k :: self.width]
        at = self._at(k) if whole else self.start[self.rows[sel]] + k
        return list(map(self.flat.__getitem__, np.minimum(at, len(self.flat) - 1).tolist()))

    def digits(self, k: int) -> np.ndarray:
        """The last bytes of field ``k`` after a leading "-", at most ``_DIGITS``,
        each less 48 (a digit's value), a column per line, the last byte in
        the last row; 0 above the field."""

        def make() -> np.ndarray:
            size, sign = self.size(k), self.starts(k, "-")
            width = np.arange(-min(int((size - sign).max(initial=0)), _DIGITS), 0)
            end = self.begin.take(self._at(k), mode="clip") + size
            out = np.empty((width.size, end.size), dtype=np.uint8)
            for row, w in zip(out, width):  # a row at a time: no temporary outgrows the block
                self.raw.take(end + w, out=row, mode="clip")
            out -= 48
            out[width[:, None] < sign - size] = 0
            return out

        return self._once(("digits", k), make)

    def integers(self, k: int) -> np.ndarray:
        """Field ``k`` of lines that pass :func:`_not_integer` and fit in 64
        bits: from :meth:`digits`, and through ``int()`` for longer fields."""
        value = np.zeros(self.rows.size, dtype=np.int64)
        for row in self.digits(k):
            value = value * 10 + row
        value = np.where(self.starts(k, "-"), -value, value)
        long = np.flatnonzero(self.overlong(k))
        if long.size:
            value[long] = list(map(int, map(_unpadded, self.take(k, long))))
        return value

    def overlong(self, k: int) -> np.ndarray:
        """Whether field ``k`` has more than ``_DIGITS`` bytes after a leading "-"."""
        return self.size(k) - self.starts(k, "-") > _DIGITS

    def floats(self, k: int) -> np.ndarray:
        """``float()`` of field ``k`` of each line in play, NaN where it
        rejects the field. Unless the block was split already, a block
        whose lines all have as many fields splits ``_SLICE`` lines at a
        time, each slice decoded from the block's bytes."""

        def make() -> np.ndarray:
            if "flat" in vars(self) or k >= self.width:
                return _floats(self.take(k))
            cuts = range(0, self.tabs.size, _SLICE)  # each slice's first line
            # each slice's first byte, then the byte after the block's last LF
            first = [*self.begin[self.start[cuts]].tolist(), len(self.raw) - 16]
            rows = np.split(self.rows, np.searchsorted(self.rows, cuts[1:]))
            out = []
            for lo, begin, end, picked in zip(cuts, first, first[1:], rows):
                text = self.raw[begin : end - 1].tobytes().decode("utf-8", "surrogatepass")
                column = text.replace("\n", "\t").split("\t")[k :: self.width]
                if picked.size < len(column):
                    column = list(map(column.__getitem__, (picked - lo).tolist()))
                out.append(_floats(column))
            return np.concatenate(out)

        return self._once(("floats", k), make)

    def keys(self, *ks: int) -> np.ndarray:
        """A sort key per line in play for each field of ``ks``: the field's
        first ``_PREFIX`` UTF-8 bytes, zero-padded, then a byte holding its
        size, or ``_PREFIX + 1`` when it is longer; read big-endian as the
        fewest 64-bit words the longest of these fields needs. Keys sort as
        their fields do, and equal keys hold equal fields unless
        :func:`_is_long` says they are longer than ``_PREFIX``."""

        def make() -> np.ndarray:
            size = np.stack([self.size(k) for k in ks])
            begin = np.stack([self.begin.take(self._at(k), mode="clip") for k in ks])
            words = min(int(size.max(initial=0)), _PREFIX) // 8 + 1
            key = np.empty((*size.shape, words), dtype=np.uint64)
            for w in range(words):  # the last word keeps its last byte for the size
                held = np.clip(size - 8 * w, 0, 8 if w < words - 1 else 7)
                # indexing, as ``take`` would first copy the unaligned words whole
                key[..., w] = self._word_at[begin + 8 * w] & _MASKS[held]
            key[..., -1] |= np.minimum(size, _PREFIX + 1).astype(np.uint64) & 255
            return key

        return self._once(("keys", ks), make)


# lines split into strings at once by :meth:`_Fields.floats`: a whole block of
# short lines split at once took the graph reader over its memory bound
_SLICE = 4096
_PREFIX = 15  # id bytes a key holds: with its size byte, two 64-bit words at most
_DIGITS = 18  # digits of an integer field read at once: any 18 fit in 64 bits
_FLOAT_BOUND = 2**1024 - 2**970  # the least integer ``float()`` refuses: 309 digits
_INTEGER = re.compile("-?[0-9]+")
_MASKS = np.array([((1 << 8 * n) - 1) << (64 - 8 * n) for n in range(9)], dtype=np.uint64)


def _is_long(key: np.ndarray) -> np.ndarray:
    return key[..., -1] & 255 > _PREFIX


def _widen(key: np.ndarray, words: int) -> np.ndarray:
    """Keys of :meth:`_Fields.keys` as ``words`` words each, the size byte moved last."""
    if key.shape[1] == words:
        return key
    out = np.zeros((len(key), words), dtype=np.uint64)
    out[:, : key.shape[1]] = key
    out[:, key.shape[1] - 1] ^= key[:, -1] & 255
    out[:, -1] |= key[:, -1] & 255
    return out


class _Interner:
    """Sorted codes of id tokens, from one key per token (:meth:`_Fields.keys`),
    kept a block at a time and all sorted at once at the end. Only ids
    longer than ``_PREFIX`` bytes are interned as strings; their sorted run
    is merged with that of the others."""

    def __init__(self) -> None:
        self._keys: list[np.ndarray] = []  # each block's keys, as many words as it needs
        self._count = 0  # tokens so far
        self._long: dict[str, int] = {}  # codes of long ids, in the order first seen

    def of(
        self, f: _Fields, ks: tuple[int, ...], j: int = 0, sel: np.ndarray | None = None
    ) -> np.ndarray:
        """Numbers, in the order taken, for the tokens of field ``ks[j]`` of
        the lines in play, or of the ascending positions ``sel`` among them,
        keyed by ``f.keys(*ks)[j]``."""
        key = (f.keys(*ks)[j] if sel is None else f.keys(*ks)[j, sel]).copy()
        long = np.flatnonzero(_is_long(key))
        if long.size:  # a long id's key keeps its string's code in its first word
            ids = f.take(ks[j], long if sel is None else sel[long])
            key[long, 0] = [self._long.setdefault(t, len(self._long)) for t in ids]
        self._keys.append(key)
        self._count += len(key)
        return np.arange(self._count - len(key), self._count)

    @classmethod
    def joined(cls, parts: Sequence[_Interner]) -> tuple[_Interner, list[int]]:
        """One interner holding the tokens of ``parts`` in order, and the
        number of each part's first token in it; the parts' keys are shared."""
        out, firsts = cls(), []
        for part in parts:
            if part._long:  # the part's codes of long ids, as codes of the whole
                code = np.array([out._long.setdefault(t, len(out._long)) for t in part._long])
                for key in part._keys:
                    long = np.flatnonzero(_is_long(key))
                    key[long, 0] = code[key[long, 0].astype(np.int64)]
            firsts.append(out._count)
            out._keys += part._keys
            out._count += part._count
        return out, firsts

    def table(self) -> _Table:
        """The distinct ids, sorted, and each token's code among them; drops the keys."""
        words = max((block.shape[1] for block in self._keys), default=1)
        key = np.empty((self._count, words), dtype=np.uint64)
        while self._keys:  # from the last block back, each dropped once copied
            block = self._keys.pop()
            self._count -= len(block)
            key[self._count : self._count + len(block)] = _widen(block, words)
        long = _is_long(key) if self._long else None
        short = key if long is None else key[~long]
        cols = list(short.T[::-1])  # the first word sorts first
        order = np.lexsort(cols) if words > 1 else cols[0].argsort()
        starts = _run_starts(*(col[order] for col in cols))
        codes = np.empty(len(short), dtype=np.int64)
        codes[order] = np.repeat(np.arange(starts.size), np.diff(np.append(starts, order.size)))
        # each distinct key's bytes then an LF, decoded at once
        data = short[order[starts]].astype(">u8").view(np.uint8)
        size = data[:, -1].astype(np.int64)
        data[np.arange(starts.size), size] = 10
        text = data[np.arange(8 * words) <= size[:, None]].tobytes()
        ids = text.decode("utf-8", "surrogatepass").split("\n")[:-1]
        if long is not None:  # sort the long ids, in code order, in among the others
            short_codes, codes = codes, np.empty(len(key), dtype=np.int64)
            codes[~long], codes[long] = short_codes, len(ids) + key[long, 0].astype(np.int64)
            ids, rank = _sorted_codes([*ids, *self._long])
            codes = rank[codes]
        return tuple(ids), codes


def _records(
    stream: IO | str | bytes,
    headers: tuple[str, ...] = (),
    fault: Callable[[int, str, str], IpRankError] = UnparsableLine,
    line_no: int = 1,
) -> Iterator[_Fields]:
    """The records of ``stream``, a binary or text stream, ``str`` or
    ``bytes``, a block at a time. LF, CR and CRLF each end a line, and line
    numbers count every line, from ``line_no`` for the first. A byte order
    mark opening bytes input is no part of line 1. A line of bytes input
    that is not UTF-8 raises ``fault(line_no, line, "not UTF-8")``, once the
    lines before it have come as a block. A line starting with one of
    ``headers`` comes as a block of its own."""
    for data, raw in _blocks(stream):
        if raw and line_no == 1:
            data = data.removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte order mark
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            text, bad = data.decode("utf-8", "strict" if raw else "surrogatepass"), -1
        except UnicodeDecodeError as exc:
            bad = data.rfind(b"\n", 0, exc.start) + 1  # where the faulty line starts
            text = data[:bad].decode("utf-8")
        if text:
            text = text[:-1] if text[-1] == "\n" else text
            f = _Fields(np.arange(line_no, line_no + text.count("\n") + 1), text)
            line_no += f.tabs.size
            yield from _split(f, headers)
        if bad >= 0:
            line = data[bad:].split(b"\n", 1)[0].decode("utf-8", "replace")
            raise fault(line_no, line, "not UTF-8")


def _split(f: _Fields, headers: tuple[str, ...]) -> Iterator[_Fields]:
    """Block ``f`` less the lines the line rule skips, cut before and after
    each line starting with one of ``headers``."""
    text, n = f.text, f.tabs.size
    # the lines the rule may skip: those with no TAB, and those starting with "#"
    odd = np.flatnonzero(f.tabs == 0).tolist()
    if not odd and text[:1] != "#" and "\n#" not in text:
        yield f
        return
    lines = text.split("\n")
    odd = sorted({*odd, *compress(range(n), map(str.startswith, lines, repeat("#")))})
    keep = np.ones(n, dtype=bool)
    keep[odd] = [
        line[:1] != "#" and line.lstrip()[:1] not in ("", "#")
        for line in map(lines.__getitem__, odd)
    ]
    heads = [k for k in odd if lines[k].startswith(headers)]
    for lo, hi in zip([0, *(k + 1 for k in heads)], [*heads, n]):
        rows = lo + np.flatnonzero(keep[lo:hi])
        if rows.size:
            yield _Fields(f.numbers[rows], "\n".join(map(lines.__getitem__, rows.tolist())))
        if hi < n:
            yield _Fields(f.numbers[hi : hi + 1], lines[hi])


class _Check(NamedTuple):
    """One rule of a line format. ``bad(f)`` marks the lines in play of
    block ``f`` that break it. ``reason`` says why: a ``str.format``
    template over the line's fields, or a function of them. ``error`` makes
    the exception from the line number, the line and the reason."""

    reason: str | Callable[[list[str]], str]
    bad: Callable[[_Fields], np.ndarray]
    error: Callable[[int, str, str], IpRankError] = UnparsableLine


def _judge(f: _Fields, checks: Sequence[_Check], strict: bool) -> int:
    """Run a format's ``checks``, in order, over block ``f``. Each check
    sees only the lines that passed the checks before it, and takes the
    lines that fail it out of play, so a line's error is the first check it
    fails. Strict mode raises the error of the block's first failing line;
    lenient mode returns how many lines failed."""
    failed: list[tuple[int, _Check]] = []
    for check in checks:
        if not f.rows.size:
            break
        bad = check.bad(f)
        if bad.any():
            failed += zip(f.rows[bad].tolist(), repeat(check))
            f.drop(bad)
    if strict and failed:
        row, check = min(failed, key=operator.itemgetter(0))
        parts = f.line(row)
        reason = check.reason(parts) if callable(check.reason) else check.reason.format(*parts)
        raise check.error(int(f.numbers[row]), "\t".join(parts), reason)
    return len(failed)


# Column checks: each marks the lines in play that fail it, and may assume
# the checks before it in its format. A line's fields are numbered from 0.


def _line_test(
    marks: Callable[[_Fields], np.ndarray], test: Callable[..., bool], *ks: int
) -> Callable[[_Fields], np.ndarray]:
    """The check that runs ``test`` on fields ``ks`` of each line that
    ``marks`` picks out, and fails the lines it passes: the Python work is
    only for the lines the vectorized ``marks`` leaves in doubt."""

    def bad(f: _Fields) -> np.ndarray:
        rows = np.flatnonzero(marks(f))
        out = np.zeros(f.rows.size, dtype=bool)
        if not rows.size:
            return out
        cols = [f.take(k, rows) for k in ks]
        if any(map(test, *cols)):  # seldom: so the mask is made only then
            out[rows] = np.fromiter(map(test, *cols), bool, rows.size)
        return out

    return bad


def _same_id(a: int, b: int) -> Callable[[_Fields], np.ndarray]:
    """Lines whose fields ``a`` and ``b`` hold the same text; a line without
    field ``b`` does not. Only lines whose keys (:meth:`_Fields.keys`) tie
    are compared as text."""
    return _line_test(
        lambda f: (f.keys(a, b)[0] == f.keys(a, b)[1]).all(axis=-1), operator.eq, a, b
    )


def _not_integer(k: int) -> Callable[[_Fields], np.ndarray]:
    """Lines whose field ``k`` does not match ``-?[0-9]+``; ``int()`` alone
    would also accept signs, spaces, underscores and non-ASCII digits."""

    # a field of more digits than :meth:`_Fields.digits` holds is checked as text
    longer = _line_test(lambda f: f.overlong(k), lambda t: not _INTEGER.fullmatch(t), k)

    def bad(f: _Fields) -> np.ndarray:
        return (f.size(k) <= f.starts(k, "-")) | (f.digits(k) > 9).any(axis=0) | longer(f)

    return bad


def _unpadded(t: str) -> str:
    """An integer field as ``str(int(t))`` writes it, without ``int()``,
    which refuses over 4,300 digits: its leading zeros go, so a zero-padded
    value reads as itself, and a value still too long is known by its length."""
    digits = t.lstrip("-").lstrip("0")
    return "-" + digits if digits and t[:1] == "-" else digits or "0"


def _floats(tokens: list[str]) -> np.ndarray:
    """``float()`` of each token, NaN where ``float()`` rejects it."""
    try:
        return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        return np.array([math.nan if _rejects_float(t) else float(t) for t in tokens])


def _rejects_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return True
    return False


# The checks of each format, in the order that decides which error a line
# with several faults reports; fields 4 on are a retweet's.
_EVENTS = (
    _Check(_EVENT_SHAPE, lambda f: ~(
        (f.fields() == 4) & f.starts(3, MENTION) & (f.size(3) == 1)
        | (f.fields() == 5) & f.starts(3, RETWEET) & (f.size(3) == 2)
    )),
    _Check("not a base-10 integer: {0!r}", _not_integer(0)),
    _Check(_EMPTY_USER, lambda f: f.size(1) == 0),
    _Check(_EMPTY_URL, lambda f: f.size(2) == 0),
    _Check(_HASH_ID, lambda f: f.starts(1, "#") | f.starts(2, "#")),
    _Check(_EMPTY_SOURCE, lambda f: f.size(4) == 0),
    _Check(_SELF_CREDIT, _same_id(1, 4)),
    _Check(_HASH_ID, lambda f: f.starts(4, "#")),
    _Check(  # only a time of over ``_DIGITS`` digits may not fit in 64 bits, and any
        "time out of 64-bit range: {0!r}",  # that fits has 20 characters at most
        _line_test(
            lambda f: f.overlong(0),
            lambda t: len(u := _unpadded(t)) > 20 or not -(2**63) <= int(u) < 2**63, 0,
        ),
    ),
)
_FOLLOWS = (
    _Check("expected 'followee follower'", lambda f: f.fields() != 2),
    _Check(_EMPTY_USER, lambda f: (f.size(0) == 0) | (f.size(1) == 0)),
    _Check(_SELF_FOLLOW, _same_id(0, 1)),
    _Check(_HASH_ID, lambda f: f.starts(0, "#") | f.starts(1, "#")),
)
_CLICKS = (
    _Check("expected 'url count'", lambda f: (f.fields() != 2) | (f.size(0) == 0)),
    _Check("not a base-10 integer: {1!r}", _not_integer(1)),
    _Check(
        lambda parts: f"negative count {_unpadded(parts[1])}",
        _line_test(lambda f: f.starts(1, "-"), lambda t: _unpadded(t) != "0", 1),
        lambda line_no, line, reason: NegativeCount(f"line {line_no}: {reason}"),
    ),
    _Check(  # only a count of over ``_DIGITS`` digits may be past the float range
        "count too large for a float",
        _line_test(
            lambda f: f.overlong(1),
            lambda t: len(u := _unpadded(t)) > 309 or int(u) >= _FLOAT_BOUND, 1,
        ),
    ),
)


class _Columns:
    """Number columns filled a block at a time, viewed as arrays without a copy."""

    def __init__(self, typecodes: str) -> None:
        self._cols = [array(code) for code in typecodes]

    def append(self, *blocks: np.ndarray) -> None:
        for col, block in zip(self._cols, blocks):
            col.frombytes(block.tobytes())

    def arrays(self) -> list[np.ndarray]:
        return [np.frombuffer(col, dtype=col.typecode) for col in self._cols]


def parse_events(stream: IO | str | bytes, strict: bool = True) -> ActivityLog:
    """Parse an events stream into a time-sorted :class:`ActivityLog`.

    Each block of lines is checked column by column and its ids interned as
    it is read. In strict mode the first malformed line raises
    :class:`UnparsableLine`; in lenient mode malformed lines are skipped and
    tallied on the returned log's ``skipped`` field.
    """
    users, urls = _Interner(), _Interner()
    cols = _Columns("qqqq")
    skipped = 0
    for f in _records(stream):
        skipped += _judge(f, _EVENTS, strict)
        rt = np.flatnonzero(f.fields() == 5)
        source = np.full(f.rows.size, -1, dtype=np.int64)
        user = users.of(f, (1, 4))  # the keys of the self-credit check
        source[rt] = users.of(f, (1, 4), 1, rt)
        cols.append(f.integers(0), user, urls.of(f, (2,)), source)
    time, user, url, source = cols.arrays()
    if not time.size:
        raise EmptyInput("no events parsed")
    (user_ids, user_rank), (url_ids, url_rank) = users.table(), urls.table()
    user[:], url[:] = user_rank[user], url_rank[url]  # in place: no second copy is kept
    rt = np.flatnonzero(source >= 0)
    source[rt] = user_rank[source[rt]]
    # the ids come sorted and distinct, and each passed the line rules
    return ActivityLog(_Ids(user_ids), _Ids(url_ids), time, user, url, source, skipped)


def parse_follows(
    stream: IO | str | bytes, strict: bool = True
) -> FollowEdgeList:
    """Parse ``followee TAB follower`` lines; duplicates collapse to one edge."""
    users = _Interner()
    cols = _Columns("qq")
    skipped = 0
    for f in _records(stream):
        skipped += _judge(f, _FOLLOWS, strict)
        cols.append(users.of(f, (0, 1)), users.of(f, (0, 1), 1))  # the self-follow check's keys
    followee, follower = cols.arrays()
    if not followee.size:
        raise EmptyInput("no follow edges parsed")
    ids, rank = users.table()
    followee[:], follower[:] = rank[followee], rank[follower]
    return FollowEdgeList(_Ids(ids), followee, follower, skipped)


def parse_clicks(
    stream: IO | str | bytes, strict: bool = True
) -> ClickTable:
    """Parse ``url TAB count`` lines; duplicate URLs keep the maximum count."""
    rows: list[tuple[str, int]] = []
    skipped = 0
    for f in _records(stream):
        skipped += _judge(f, _CLICKS, strict)
        counts = f.take(1)  # only a count of over ``_DIGITS`` digits may be padded past int()
        rows += zip(f.take(0), map(int, map(_unpadded, counts) if f.overlong(1).any() else counts))
    # in count order, so each URL's largest count is the last one stored
    return ClickTable(dict(sorted(rows, key=operator.itemgetter(1))), skipped=skipped)


_ROW_BLOCK = 1024  # rows formatted by one ``%``


def _tsv_rows(formats: Sequence[str], *columns: Sequence) -> str:
    """One LF-ended line per position of the equal-length ``columns``: the
    ``formats`` joined by TAB, filled by ``%`` with the values there (a
    format with no field, such as ``"hist"``, is a fixed cell). One ``%``
    formats a block of rows, so no Python code runs per row or cell. The
    rows split into contiguous parts, one per CPU (:func:`_part_count`), each
    formatting ``_PART_FLOATS`` floats or more in a process of its own (:func:`_forked`)."""
    rows = len(columns[0])
    n = _part_count(rows * sum(f in ("%.17g", "%r") for f in formats), _PART_FLOATS)
    cuts = [rows * k // n for k in range(n + 1)]
    parts = [partial(_format_rows, formats, columns, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    return "".join(_forked(parts))


def _format_rows(formats: Sequence[str], columns: Sequence[Sequence], lo: int, hi: int) -> str:
    """The lines of :func:`_tsv_rows` for rows ``lo`` to ``hi``."""
    width = len(columns)
    flat = [None] * (width * (hi - lo))
    for k, column in enumerate(columns):
        flat[k::width] = column[lo:hi] if hi - lo < len(column) else column  # a list is not copied
    step = width * _ROW_BLOCK
    line = "\t".join(formats) + "\n"
    blocks = (tuple(flat[at : at + step]) for at in range(0, len(flat), step))
    return "".join((line * (len(block) // width)) % block for block in blocks)


def events_to_tsv(log: ActivityLog) -> str:
    users, urls = log.user_ids, log.url_ids
    kinds = [MENTION if s < 0 else f"{RETWEET}\t{users[s]}" for s in log.source.tolist()]
    return _tsv_rows(
        ("%d", "%s", "%s", "%s"), log.time.tolist(), [users[u] for u in log.user.tolist()],
        [urls[r] for r in log.url.tolist()], kinds,
    )


def follows_to_tsv(follows: FollowEdgeList) -> str:
    ids = follows.user_ids
    pairs = follows.followee.tolist(), follows.follower.tolist()
    return _tsv_rows(("%s", "%s"), *([ids[k] for k in codes] for codes in pairs))


def clicks_to_tsv(table: ClickTable) -> str:
    urls = sorted(table.clicks)
    return _tsv_rows(("%s", "%s"), urls, [table.clicks[url] for url in urls])
