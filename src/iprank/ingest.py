"""Parsers and containers for activity traces, follower edges, and click tables.

File formats (UTF-8, one record per line, TAB-separated):

  events:  ``time<TAB>user<TAB>url<TAB>M``                     plain mention
           ``time<TAB>user<TAB>url<TAB>RT<TAB>source``         retweet
  follows: ``followee<TAB>follower``
  clicks:  ``url<TAB>count``

``time`` is a base-10 integer (milliseconds) that fits in 64 bits.

Every reader in the package takes its lines from :func:`_records`, which
reads the input in blocks of 64 KiB of text and applies one line rule to a
whole block at once: a line is skipped when its first character is ``#``, or
when it has no TAB and is empty, whitespace only, or whitespace then ``#``. No
record of any format has that shape, so every line a writer emits reads back;
files may carry ``#`` headers, and no id may start with ``#``. Each reader
then checks a block column by column; a block that fails its check has every
line judged by the reader's per-line rule, which alone decides and words the
error.
"""

from __future__ import annotations

import io
import math
import operator
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyInput, IpRankError, NegativeCount, UnparsableLine

MENTION = "M"
RETWEET = "RT"

_EVENT_SHAPE = "expected 'time user url M' or 'time user url RT source'"
# a written id starting with "#" would read back as a comment
_HASH_ID = "id starts with '#'"


def _event_error(user: str, url: str, source: str | None) -> str | None:
    """Why (user, url, source) is not a valid event, or None when it is."""
    if not user:
        return "empty user id"
    if not url:
        return "empty url"
    if user[0] == "#" or url[0] == "#":
        return _HASH_ID
    if source is not None:
        if not source:
            return "empty retweet source"
        if source == user:
            return "retweet credits its own author"
        if source[0] == "#":
            return _HASH_ID
    return None


def _follow_error(followee: str, follower: str) -> str | None:
    """Why (followee, follower) is not a valid follow edge, or None when it is."""
    if not followee or not follower:
        return "empty user id"
    if followee == follower:
        return "self-follow"
    if followee[0] == "#" or follower[0] == "#":
        return _HASH_ID
    return None


@dataclass(frozen=True, slots=True)
class TweetEvent:
    """One timestamped URL post: a plain mention, or a retweet crediting a source."""

    time: int
    user: str
    url: str
    source: str | None = None

    def __post_init__(self) -> None:
        reason = _event_error(self.user, self.url, self.source)
        if reason is not None:
            raise ValueError(reason)

    @property
    def is_retweet(self) -> bool:
        return self.source is not None

    @property
    def kind(self) -> str:
        return RETWEET if self.source is not None else MENTION


@dataclass(frozen=True, slots=True)
class Posts:
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


@dataclass(frozen=True, slots=True)
class Retweets:
    """Distinct (source, retweeter, url) triples whose source posted the URL,
    sorted, with the number of retweet events behind each triple."""

    source: np.ndarray
    user: np.ndarray
    url: np.ndarray
    count: np.ndarray


def _sorted_codes(table: dict[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """Ids in sorted order, and the map from insertion code to sorted code."""
    ids = sorted(table)
    rank = np.empty(len(ids), dtype=np.int64)
    inserted = np.fromiter(map(table.__getitem__, ids), dtype=np.int64, count=len(ids))
    rank[inserted] = np.arange(len(ids))
    return tuple(ids), rank


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """Start index of each run of equal rows in sorted, equal-length columns."""
    new = np.zeros(cols[0].size, dtype=bool)
    new[:1] = True
    for col in cols:
        new[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(new)


def _positions(index: dict[str, int], ids: Sequence[str]) -> np.ndarray:
    """``index[id]`` for each id, -1 where the id is absent."""
    return np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each key in ``sorted_keys`` (clipped to a valid index) and
    whether it is present there."""
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=np.int64), np.zeros(keys.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return pos, sorted_keys[pos] == keys


class ActivityLog:
    """Time-sorted events as columns of interned codes.

    ``user_ids`` (authors and retweet sources) and ``url_ids`` are sorted, so
    code order is id order. ``time``, ``user``, ``url`` and ``source`` are
    int64 columns, ``source`` being -1 for a plain mention. Rows are ordered
    by (time, user, url, kind, source), so the log is identical no matter how
    the input lines were permuted.
    """

    __slots__ = (
        "user_ids", "url_ids", "user_index", "time", "user", "url", "source",
        "skipped", "_events", "_posts", "_retweets",
    )

    def __init__(self, events: Iterable[TweetEvent] = (), skipped: int = 0) -> None:
        users: dict[str, int] = {}
        urls: dict[str, int] = {}
        cols = tuple(array("q") for _ in range(4))
        for ev in events:
            cols[0].append(ev.time)
            cols[1].append(users.setdefault(ev.user, len(users)))
            cols[2].append(urls.setdefault(ev.url, len(urls)))
            cols[3].append(-1 if ev.source is None else users.setdefault(ev.source, len(users)))
        self._load(users, urls, cols, skipped)

    def _load(
        self, users: dict[str, int], urls: dict[str, int], cols: Sequence, skipped: int
    ) -> None:
        """Renumber codes into sorted-id order and sort the rows."""
        time, user, url, source = (np.asarray(c, dtype=np.int64) for c in cols)
        self.user_ids, user_rank = _sorted_codes(users)
        self.url_ids, url_rank = _sorted_codes(urls)
        user = user_rank[user]
        url = url_rank[url]
        source = np.where(source >= 0, user_rank[np.maximum(source, 0)], -1)
        order = np.lexsort((source, url, user, time))
        for name, col in (("time", time), ("user", user), ("url", url), ("source", source)):
            col = col[order]
            col.flags.writeable = False
            setattr(self, name, col)
        self.user_index = {uid: k for k, uid in enumerate(self.user_ids)}
        self.skipped = skipped
        self._events = None
        self._posts = None
        self._retweets = None

    @property
    def events(self) -> tuple[TweetEvent, ...]:
        """The rows as :class:`TweetEvent` objects, built on first use."""
        if self._events is None:
            users, urls = self.user_ids, self.url_ids
            self._events = tuple(
                TweetEvent(t, users[u], urls[r], users[s] if s >= 0 else None)
                for t, u, r, s in zip(
                    self.time.tolist(), self.user.tolist(), self.url.tolist(), self.source.tolist()
                )
            )
        return self._events

    @property
    def by_user(self) -> dict[str, tuple[int, ...]]:
        """Row positions of each posting user, users in id order."""
        index: dict[int, list[int]] = {}
        for pos, code in enumerate(self.user.tolist()):
            index.setdefault(code, []).append(pos)
        return {self.user_ids[c]: tuple(index[c]) for c in sorted(index)}

    @property
    def users(self) -> frozenset[str]:
        """Ids that posted at least one event."""
        return frozenset(self.user_ids[c] for c in np.unique(self.user).tolist())

    def post_key(self, user: np.ndarray, url: np.ndarray) -> np.ndarray:
        """Key of (user, url) code pairs that sorts like the pairs."""
        return user * len(self.url_ids) + url

    @property
    def posts(self) -> Posts:
        if self._posts is None:
            key = self.post_key(self.user, self.url)
            order = np.argsort(key, kind="stable")  # equal keys stay in time order
            key = key[order]
            starts = _run_starts(key)
            ends = np.append(starts[1:], key.size) - 1
            first = order[starts]
            self._posts = Posts(
                self.user[first], self.url[first], self.time[first],
                self.time[order[ends]], key[starts],
            )
        return self._posts

    @property
    def retweets(self) -> Retweets:
        if self._retweets is None:
            rows = np.flatnonzero(self.source >= 0)
            source, user, url = self.source[rows], self.user[rows], self.url[rows]
            _, posted = _lookup(self.posts.key, self.post_key(source, url))
            source, user, url = source[posted], user[posted], url[posted]
            order = np.lexsort((url, user, source))
            source, user, url = source[order], user[order], url[order]
            starts = _run_starts(source, user, url)
            count = np.diff(np.append(starts, source.size))
            self._retweets = Retweets(source[starts], user[starts], url[starts], count)
        return self._retweets

    def follow_codes(
        self, follows: "FollowEdgeList"
    ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """Follow edges as (followee, follower) code arrays sorted by that pair.

        Ids the log never saw get codes from ``len(user_ids)`` up, in the
        order of the returned sorted tuple of extra ids.
        """
        codes = _positions(self.user_index, follows.user_ids)
        missing = np.flatnonzero(codes < 0)
        codes[missing] = np.arange(len(self.user_ids), len(self.user_ids) + missing.size)
        extra = tuple(follows.user_ids[k] for k in missing.tolist())
        followee, follower = codes[follows.followee], codes[follows.follower]
        order = np.lexsort((follower, followee))
        return followee[order], follower[order], extra

    def __len__(self) -> int:
        return int(self.time.size)

    def __iter__(self) -> Iterator[TweetEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivityLog):
            return NotImplemented
        return (
            self.user_ids == other.user_ids
            and self.url_ids == other.url_ids
            and all(
                np.array_equal(getattr(self, c), getattr(other, c))
                for c in ("time", "user", "url", "source")
            )
        )

    def __repr__(self) -> str:
        return f"ActivityLog({len(self)} events, {len(self.users)} users)"


class FollowEdgeList:
    """Directed follow relation as columns of interned codes.

    ``user_ids`` holds every edge endpoint, sorted; ``followee`` and
    ``follower`` are int64 codes into it, one row per distinct edge, rows
    sorted by (followee, follower).
    """

    __slots__ = ("user_ids", "followee", "follower", "skipped")

    def __init__(self, edges: Iterable[tuple[str, str]], skipped: int = 0) -> None:
        users: dict[str, int] = {}
        cols = array("q"), array("q")
        for followee, follower in edges:
            reason = _follow_error(followee, follower)
            if reason is not None:
                raise ValueError(reason)
            cols[0].append(users.setdefault(followee, len(users)))
            cols[1].append(users.setdefault(follower, len(users)))
        self._load(users, cols, skipped)

    def _load(self, users: dict[str, int], cols: Sequence, skipped: int) -> None:
        """Renumber codes into sorted-id order, then sort and dedupe the edges."""
        self.user_ids, rank = _sorted_codes(users)
        n = max(len(self.user_ids), 1)
        followee, follower = (rank[np.asarray(c, dtype=np.int64)] for c in cols)
        self.followee, self.follower = np.divmod(np.unique(followee * n + follower), n)
        self.followee.flags.writeable = self.follower.flags.writeable = False
        self.skipped = skipped

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """The (followee, follower) id pairs, built per access."""
        ids = self.user_ids
        return frozenset(
            (ids[a], ids[b]) for a, b in zip(self.followee.tolist(), self.follower.tolist())
        )

    def __contains__(self, edge: tuple[str, str]) -> bool:
        ids = self.user_ids
        a, b = (bisect_left(ids, uid) for uid in edge)
        lo, hi = np.searchsorted(self.followee, (a, a + 1))
        return ids[a : a + 1] + ids[b : b + 1] == tuple(edge) and b in self.follower[lo:hi]

    def __len__(self) -> int:
        return int(self.followee.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FollowEdgeList):
            return NotImplemented
        return (
            self.user_ids == other.user_ids
            and np.array_equal(self.followee, other.followee)
            and np.array_equal(self.follower, other.follower)
        )


@dataclass(slots=True)
class ClickTable:
    """Total registered clicks per URL."""

    clicks: dict[str, int]
    skipped: int = field(default=0, compare=False)


_BLOCK = 1 << 16  # characters read at a time: a fixed size, not a setting


def _cut(read: Callable[[int], str]) -> Iterator[str]:
    """What ``read`` returns, regrouped into whole lines about ``_BLOCK``
    characters at a time: every piece but the last ends at an LF."""
    head: list[str] = []  # the start of a line longer than a block
    while chunk := read(_BLOCK):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join((*head, chunk[:cut]))
            head, chunk = [], chunk[cut:]
        if chunk:
            head.append(chunk)
    if head:
        yield "".join(head)


def _item_texts(items: Iterable[str | bytes]) -> Iterator[str]:
    """The items, decoded and each ending a line, about ``_BLOCK`` characters at a time."""
    texts: list[str] = []
    size = 0
    for item in items:
        text = item.decode("utf-8") if isinstance(item, bytes) else item
        texts.append(text if text[-1:] == "\n" else text + "\n")
        size += len(text)
        if size >= _BLOCK:
            yield "".join(texts)
            texts, size = [], 0
    if texts:
        yield "".join(texts)


def _texts(stream: IO | str | bytes | Iterable[str]) -> Iterator[str]:
    """``stream`` in blocks of whole lines, each line ended by one LF but
    perhaps the last. LF, CR and CRLF each end a line of a string, of bytes,
    of an iterable's items and of a text stream, whatever newline mode the
    stream was opened with."""
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline=None)
    text_mode = isinstance(stream, io.TextIOBase)
    for text in _cut(stream.read) if text_mode else _item_texts(stream):
        yield text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _tab_counts(text: str, n: int) -> np.ndarray:
    """The number of TABs in each of the ``n`` lines of ``text``."""
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)  # TAB, LF: one byte
    ends = np.append(np.flatnonzero(raw == 10), raw.size)[:n]
    return np.diff(np.searchsorted(np.flatnonzero(raw == 9), ends), prepend=0)


def _records(
    stream: IO | str | bytes | Iterable[str], headers: tuple[str, ...] = ()
) -> Iterator[tuple[np.ndarray, str, np.ndarray]]:
    """``(line_nos, text, tabs)`` for the records of each block of
    ``stream``: their line numbers, the records joined by LF without a final
    one, and the number of TABs in each. A line starting with one of
    ``headers`` comes as a block of its own. Line numbers count every line;
    :func:`_texts` says where lines end."""
    line_no = 1
    for text in _texts(stream):
        text = text[:-1] if text[-1:] == "\n" else text
        n = text.count("\n") + 1
        numbers = np.arange(line_no, line_no + n)
        line_no += n
        tabs = _tab_counts(text, n)
        # the lines the rule may skip: those with no TAB, and those starting with "#"
        odd = np.flatnonzero(tabs == 0).tolist()
        if not odd and text[:1] != "#" and "\n#" not in text:
            yield numbers, text, tabs
            continue
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
                yield numbers[rows], "\n".join(map(lines.__getitem__, rows.tolist())), tabs[rows]
            if hi < n:
                yield numbers[hi : hi + 1], lines[hi], tabs[hi : hi + 1]


class _Fields:
    """One block of records split at every TAB and LF at once. ``take``
    gives a column. A block that fails its reader's bulk check has every
    line judged by :meth:`screen`; ``keep`` marks the lines it kept."""

    def __init__(self, numbers: np.ndarray, text: str, tabs: np.ndarray) -> None:
        self.numbers, self.text, self.tabs = numbers, text, tabs
        self.flat = text.replace("\n", "\t").split("\t")
        self.start = np.cumsum(tabs + 1) - (tabs + 1)
        # fields per line when every line has as many, else 0
        self.width = int(tabs[0]) + 1 if tabs.min() == tabs.max() else 0
        self.keep = np.ones(len(tabs), dtype=bool)

    def take(self, field: int, rows: np.ndarray | None = None) -> list[str]:
        """Field ``field`` of every line, or of each of ``rows``. A line with
        fewer fields gives some other field of the block."""
        if rows is None and field < self.width:
            return self.flat[field :: self.width]
        at = self.start if rows is None else self.start[rows]
        at = np.minimum(at + field, len(self.flat) - 1)
        return list(map(self.flat.__getitem__, at.tolist()))

    def screen(self, fault: Callable[[int, str], IpRankError | None], strict: bool) -> int:
        """Judge every line by ``fault(line_no, line)``, its error or None.
        Strict mode raises the first error; lenient mode drops the lines in
        error from ``keep`` and returns how many it dropped."""
        lines = zip(self.numbers.tolist(), self.start.tolist(), self.tabs.tolist())
        for k, (line_no, start, tabs) in enumerate(lines):
            error = fault(line_no, "\t".join(self.flat[start : start + tabs + 1]))
            if error is not None:
                if strict:
                    raise error
                self.keep[k] = False
        return len(self.tabs) - int(np.count_nonzero(self.keep))

    def kept(self, col: list[str], rows: np.ndarray | None = None) -> list[str]:
        """``col``, a column of every line or of each of ``rows``, for the lines kept."""
        keep = self.keep if rows is None else self.keep[rows]
        return col if keep.all() else list(compress(col, keep))


def _unparsable(
    reason: Callable[[list[str]], str | None]
) -> Callable[[int, str], UnparsableLine | None]:
    """A fault function for :meth:`_Fields.screen` from a line rule that
    gives the reason the fields of a line are rejected, or None."""

    def fault(line_no: int, line: str) -> UnparsableLine | None:
        why = reason(line.split("\t"))
        return None if why is None else UnparsableLine(line_no, line, why)

    return fault


class _Columns:
    """Number columns filled a block at a time, viewed as arrays without a copy."""

    def __init__(self, typecodes: str) -> None:
        self._cols = [array(code) for code in typecodes]

    def append(self, *blocks: np.ndarray) -> None:
        for col, block in zip(self._cols, blocks):
            col.frombytes(block.tobytes())

    def arrays(self) -> list[np.ndarray]:
        return [np.frombuffer(col, dtype=col.typecode) for col in self._cols]


class _Codes(dict):
    """Codes of interned ids, in the order first seen: looking up a new id
    gives it the next code."""

    def __missing__(self, uid: str) -> int:
        code = self[uid] = len(self)
        return code

    def of(self, ids: list[str]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, ids), dtype=np.int64, count=len(ids))


def _int_error(token: str) -> str | None:
    """Why ``token`` is not an integer matching ``-?[0-9]+``, or None; ``int()``
    alone would also accept signs, spaces, underscores and non-ASCII digits."""
    digits = token[1:] if token[:1] == "-" else token
    return None if digits.isascii() and digits.isdigit() else f"not a base-10 integer: {token!r}"


def _all_digits(tokens: list[str]) -> bool:
    """Whether every token is a non-empty run of ASCII digits."""
    digits = "".join(tokens)
    return all(tokens) and digits.isascii() and digits.isdigit()


def _float_or_nan(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return math.nan


def _floats(tokens: list[str]) -> np.ndarray:
    """``float()`` of each token, NaN where ``float()`` rejects it."""
    try:
        return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        return np.fromiter(map(_float_or_nan, tokens), dtype=np.float64, count=len(tokens))


def _event_reason(parts: list[str]) -> str | None:
    """Why the fields of an events line are not an event, or None when they are."""
    if len(parts) == 4 and parts[3] == MENTION:
        source = None
    elif len(parts) == 5 and parts[3] == RETWEET:
        source = parts[4]
    else:
        return _EVENT_SHAPE
    reason = _int_error(parts[0]) or _event_error(parts[1], parts[2], source)
    if reason is None and not -(2**63) <= int(parts[0]) < 2**63:
        return f"time out of 64-bit range: {parts[0]!r}"
    return reason


def parse_events(stream: IO | str | bytes | Iterable[str], strict: bool = True) -> ActivityLog:
    """Parse an events stream into a time-sorted :class:`ActivityLog`.

    Each block of lines is checked column by column and its ids interned as
    it is read. In strict mode the first malformed line raises
    :class:`UnparsableLine`; in lenient mode malformed lines are skipped and
    tallied on the returned log's ``skipped`` field.
    """
    users, urls = _Codes(), _Codes()
    cols = _Columns("qqqq")
    skipped = 0
    for block in _records(stream):
        f = _Fields(*block)
        retweet = f.tabs == 4
        rt = np.flatnonzero(retweet)
        time, user, url, kind = (f.take(k) for k in range(4))
        source = f.take(4, rt)
        if not (
            f.tabs.min() >= 3 and f.tabs.max() <= 4
            and kind.count(MENTION) == len(kind) - rt.size
            and f.take(3, rt).count(RETWEET) == rt.size
            and _all_digits(time) and max(map(len, time)) <= 18  # so within 64 bits
            and all(user) and all(url) and all(source) and "\t#" not in f.text
            and not any(map(operator.eq, f.take(1, rt), source))
        ):
            skipped += f.screen(_unparsable(_event_reason), strict)
        time, user = f.kept(time), f.kept(user)
        codes = np.full(len(user), -1, dtype=np.int64)
        codes[retweet[f.keep]] = users.of(f.kept(source, rt))
        times = np.fromiter(map(int, time), dtype=np.int64, count=len(time))
        cols.append(times, users.of(user), urls.of(f.kept(url)), codes)
    cols = cols.arrays()
    if not cols[0].size:
        raise EmptyInput("no events parsed")
    log = ActivityLog.__new__(ActivityLog)
    log._load(users, urls, cols, skipped)
    return log


def _follow_reason(parts: list[str]) -> str | None:
    return _follow_error(*parts) if len(parts) == 2 else "expected 'followee follower'"


def parse_follows(
    stream: IO | str | bytes | Iterable[str], strict: bool = True
) -> FollowEdgeList:
    """Parse ``followee TAB follower`` lines; duplicates collapse to one edge."""
    users = _Codes()
    cols = _Columns("qq")
    skipped = 0
    for block in _records(stream):
        f = _Fields(*block)
        followee, follower = f.take(0), f.take(1)
        if not (
            f.width == 2 and all(followee) and all(follower) and "\t#" not in f.text
            and not any(map(operator.eq, followee, follower))
        ):
            skipped += f.screen(_unparsable(_follow_reason), strict)
        cols.append(users.of(f.kept(followee)), users.of(f.kept(follower)))
    cols = cols.arrays()
    if not cols[0].size:
        raise EmptyInput("no follow edges parsed")
    follows = FollowEdgeList.__new__(FollowEdgeList)
    follows._load(users, cols, skipped)
    return follows


def _click_fault(line_no: int, line: str) -> IpRankError | None:
    parts = line.split("\t")
    reason = "expected 'url count'" if len(parts) != 2 or not parts[0] else _int_error(parts[1])
    if reason is not None:
        return UnparsableLine(line_no, line, reason)
    count = int(parts[1])
    return NegativeCount(f"line {line_no}: negative count {count}") if count < 0 else None


def parse_clicks(
    stream: IO | str | bytes | Iterable[str], strict: bool = True
) -> ClickTable:
    """Parse ``url TAB count`` lines; duplicate URLs keep the maximum count."""
    rows: list[tuple[str, int]] = []
    skipped = 0
    for block in _records(stream):
        f = _Fields(*block)
        url, count = f.take(0), f.take(1)
        if not (f.width == 2 and all(url) and _all_digits(count)):
            skipped += f.screen(_click_fault, strict)
        rows += zip(f.kept(url), map(int, f.kept(count)))
    # in count order, so each URL's largest count is the last one stored
    return ClickTable(dict(sorted(rows, key=operator.itemgetter(1))), skipped=skipped)


def url_counts(log: ActivityLog) -> dict[str, int]:
    """Number of distinct URLs each user mentioned (mentions and retweets)."""
    codes, counts = np.unique(log.posts.user, return_counts=True)
    return {log.user_ids[c]: n for c, n in zip(codes.tolist(), counts.tolist())}


def events_to_tsv(log: ActivityLog) -> str:
    users, urls = log.user_ids, log.url_ids
    lines = [
        f"{t}\t{users[u]}\t{urls[r]}\t{MENTION}"
        if s < 0
        else f"{t}\t{users[u]}\t{urls[r]}\t{RETWEET}\t{users[s]}"
        for t, u, r, s in zip(log.time.tolist(), log.user.tolist(), log.url.tolist(), log.source.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def follows_to_tsv(follows: FollowEdgeList) -> str:
    ids = follows.user_ids
    lines = [
        f"{ids[a]}\t{ids[b]}" for a, b in zip(follows.followee.tolist(), follows.follower.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def clicks_to_tsv(table: ClickTable) -> str:
    lines = [f"{url}\t{count}" for url, count in sorted(table.clicks.items())]
    return "\n".join(lines) + ("\n" if lines else "")
