"""Parsers and containers for activity traces, follower edges, and click tables.

File formats (UTF-8, one record per line, TAB-separated):

  events:  ``time<TAB>user<TAB>url<TAB>M``                     plain mention
           ``time<TAB>user<TAB>url<TAB>RT<TAB>source``         retweet
  follows: ``followee<TAB>follower``
  clicks:  ``url<TAB>count``

``time`` is a base-10 integer (milliseconds) that fits in 64 bits.

Every reader in the package takes its lines from :func:`_records`: a line is
skipped when its first character is ``#``, or when it has no TAB and is
empty, whitespace only, or whitespace then ``#``. No record of any format has
that shape, so every line a writer emits reads back; files may carry ``#``
headers, and no id may start with ``#``.
"""

from __future__ import annotations

import io
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import IO, Iterable, Iterator, Sequence

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
        self, users: dict[str, int], urls: dict[str, int], cols: tuple[array, ...], skipped: int
    ) -> None:
        """Renumber codes into sorted-id order and sort the rows."""
        time, user, url, source = (np.frombuffer(c, dtype=np.int64) for c in cols)
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

    def _load(self, users: dict[str, int], cols: tuple[array, array], skipped: int) -> None:
        """Renumber codes into sorted-id order, then sort and dedupe the edges."""
        self.user_ids, rank = _sorted_codes(users)
        n = max(len(self.user_ids), 1)
        followee, follower = (rank[np.frombuffer(c, dtype=np.int64)] for c in cols)
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


def _split_lines(lines: Iterable[str | bytes]) -> Iterator[str]:
    """Each of ``lines``, decoded, with a line holding a CR split as a file
    opened in text mode would split it."""
    for raw in lines:
        raw = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        yield from io.StringIO(raw, newline=None) if "\r" in raw else (raw,)


def _records(
    stream: IO | str | bytes | Iterable[str], headers: tuple[str, ...] = (), as_opened: bool = False
) -> Iterator[tuple[int, list[str]]]:
    """``(line_no, fields)`` for each record, split at TABs, and ``(line_no,
    [line])`` for a line starting with one of ``headers``. Line numbers count
    every line; ``"\\t".join(fields)`` is the line without its ending.

    LF, CR and CRLF each end a line of a string or bytes, and split a line
    of an iterable or of a text stream that ends lines at LF only, as in a
    file opened in text mode. A stream is judged once, by the ``newlines``
    that only text mode sets once the first line is read; with ``as_opened``
    every stream is read as it was opened."""
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline=None)
    elif not isinstance(stream, io.TextIOBase):
        stream = _split_lines(stream)
    elif not as_opened:
        lines = chain((stream.readline(),), stream)
        stream = _split_lines(lines) if stream.newlines is None else lines
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if line[:1] == "#":
            if line.startswith(headers):
                yield line_no, [line]
            continue
        fields = line.split("\t")
        if len(fields) > 1 or line.lstrip()[:1] not in ("", "#"):
            yield line_no, fields


def _reject(strict: bool, error: IpRankError) -> int:
    """Raise ``error`` in strict mode; in lenient mode count one skipped line."""
    if strict:
        raise error from None
    return 1


def _parse_int(token: str) -> int:
    """Integer matching ``-?[0-9]+``; ``int()`` alone would also accept
    signs, spaces, underscores and non-ASCII digits."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a base-10 integer: {token!r}")
    return int(token)


def parse_events(stream: IO | str | bytes | Iterable[str], strict: bool = True) -> ActivityLog:
    """Parse an events stream into a time-sorted :class:`ActivityLog`.

    Lines are read one at a time and their ids interned as they are read. In
    strict mode the first malformed line raises :class:`UnparsableLine`; in
    lenient mode malformed lines are skipped and tallied on the returned
    log's ``skipped`` field.
    """
    users: dict[str, int] = {}
    urls: dict[str, int] = {}
    cols = times, user_col, url_col, source_col = tuple(array("q") for _ in range(4))
    skipped = 0
    for line_no, parts in _records(stream):
        try:
            if len(parts) == 4 and parts[3] == MENTION:
                source = None
            elif len(parts) == 5 and parts[3] == RETWEET:
                source = parts[4]
            else:
                raise ValueError(_EVENT_SHAPE)
            token = parts[0]
            time = int(token) if token.isascii() and token.isdigit() else _parse_int(token)
            reason = _event_error(parts[1], parts[2], source)
            if reason is not None:
                raise ValueError(reason)
            times.append(time)  # the int64 column checks the range
        except ValueError as exc:
            reason = str(exc)
        except OverflowError:
            reason = f"time out of 64-bit range: {parts[0]!r}"
        else:
            user_col.append(users.setdefault(parts[1], len(users)))
            url_col.append(urls.setdefault(parts[2], len(urls)))
            source_col.append(-1 if source is None else users.setdefault(source, len(users)))
            continue
        skipped += _reject(strict, UnparsableLine(line_no, "\t".join(parts), reason))
    if not times:
        raise EmptyInput("no events parsed")
    log = ActivityLog.__new__(ActivityLog)
    log._load(users, urls, cols, skipped)
    return log


def parse_follows(
    stream: IO | str | bytes | Iterable[str], strict: bool = True
) -> FollowEdgeList:
    """Parse ``followee TAB follower`` lines; duplicates collapse to one edge."""
    users: dict[str, int] = {}
    cols = followees, followers = array("q"), array("q")
    skipped = 0
    for line_no, parts in _records(stream):
        reason = _follow_error(*parts) if len(parts) == 2 else "expected 'followee follower'"
        if reason is None:
            followees.append(users.setdefault(parts[0], len(users)))
            followers.append(users.setdefault(parts[1], len(users)))
        else:
            skipped += _reject(strict, UnparsableLine(line_no, "\t".join(parts), reason))
    if not followees:
        raise EmptyInput("no follow edges parsed")
    follows = FollowEdgeList.__new__(FollowEdgeList)
    follows._load(users, cols, skipped)
    return follows


def parse_clicks(
    stream: IO | str | bytes | Iterable[str], strict: bool = True
) -> ClickTable:
    """Parse ``url TAB count`` lines; duplicate URLs keep the maximum count."""
    clicks: dict[str, int] = {}
    skipped = 0
    for line_no, parts in _records(stream):
        try:
            if len(parts) != 2 or not parts[0]:
                raise ValueError("expected 'url count'")
            count = _parse_int(parts[1])
        except ValueError as exc:
            skipped += _reject(strict, UnparsableLine(line_no, "\t".join(parts), str(exc)))
            continue
        if count < 0:
            skipped += _reject(strict, NegativeCount(f"line {line_no}: negative count {count}"))
        elif count > clicks.get(parts[0], -1):
            clicks[parts[0]] = count
    return ClickTable(clicks, skipped=skipped)


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
