"""Plain line-loop readers of the events, follows, clicks, graph and score
formats: the oracles the block readers are tested against.

Each reads a string one line at a time, judges each record by a per-line
rule that walks its fields in the format's check order, and builds the same
result, skipped count or first error as the block reader of its format.
"""

import operator
import re
from decimal import Decimal

from iprank.baselines import ScoreVector
from iprank.errors import ConfigInvalid, EmptyInput, MissingInput, NegativeCount, UnparsableLine
from iprank.ingest import ClickTable
from oracles import follows_of, graph_from_arcs, log_of

HASH_ID = "id starts with '#'"


def records(text, header=None):
    """``(line_no, line, is_header)`` for each record and ``header`` line
    of ``text``. LF, CR and CRLF end a line; a line is skipped when it starts
    with "#", or has no TAB and is empty, whitespace only or whitespace then
    "#". A header starts with "#", so it is no record."""
    for line_no, line in enumerate(re.split("\r\n|\r|\n", text), start=1):
        if header is not None and line.startswith(header):
            yield line_no, line, True
        elif not (line[:1] == "#" or "\t" not in line and line.lstrip()[:1] in ("", "#")):
            yield line_no, line, False


def int_error(token):
    """Why ``token`` is not an integer matching ``-?[0-9]+``, or None."""
    digits = token[1:] if token[:1] == "-" else token
    return None if digits.isascii() and digits.isdigit() else f"not a base-10 integer: {token!r}"


def event_reason(parts):
    if len(parts) == 4 and parts[3] == "M":
        source = None
    elif len(parts) == 5 and parts[3] == "RT":
        source = parts[4]
    else:
        return "expected 'time user url M' or 'time user url RT source'"
    time, user, url = parts[:3]
    if int_error(time):
        return int_error(time)
    if not user:
        return "empty user id"
    if not url:
        return "empty url"
    if user[0] == "#" or url[0] == "#":
        return HASH_ID
    if source is not None:
        if not source:
            return "empty retweet source"
        if source == user:
            return "retweet credits its own author"
        if source[0] == "#":
            return HASH_ID
    if not -(2**63) <= Decimal(time) < 2**63:  # a Decimal, as int() refuses over 4,300 digits
        return f"time out of 64-bit range: {time!r}"
    return None


def follow_reason(parts):
    if len(parts) != 2:
        return "expected 'followee follower'"
    followee, follower = parts
    if not followee or not follower:
        return "empty user id"
    if followee == follower:
        return "self-follow"
    if followee[0] == "#" or follower[0] == "#":
        return HASH_ID
    return None


def click_fault(line_no, line):
    parts = line.split("\t")
    reason = "expected 'url count'" if len(parts) != 2 or not parts[0] else int_error(parts[1])
    if reason is not None:
        return UnparsableLine(line_no, line, reason)
    count = Decimal(parts[1])  # exact at any length, and printed without leading zeros
    if count < 0:
        return NegativeCount(f"line {line_no}: negative count {count}")
    if count >= 2**1024 - 2**970:  # the least integer float() refuses
        return UnparsableLine(line_no, line, "count too large for a float")
    return None


def _lines(text, fault, strict):
    """The records of ``text`` that ``fault(line_no, line)`` passes, and how
    many it failed; strict mode raises the first failure."""
    kept, skipped = [], 0
    for line_no, line, _ in records(text):
        error = fault(line_no, line)
        if error is None:
            kept.append(line.split("\t"))
        elif strict:
            raise error
        else:
            skipped += 1
    return kept, skipped


def _unparsable(reason):
    def fault(line_no, line):
        why = reason(line.split("\t"))
        return None if why is None else UnparsableLine(line_no, line, why)

    return fault


def read_events(text, strict=True):
    kept, skipped = _lines(text, _unparsable(event_reason), strict)
    if not kept:
        raise EmptyInput("no events parsed")
    events = [(int(Decimal(p[0])), p[1], p[2], p[4] if len(p) == 5 else None) for p in kept]
    return log_of(events, skipped)


def read_follows(text, strict=True):
    kept, skipped = _lines(text, _unparsable(follow_reason), strict)
    if not kept:
        raise EmptyInput("no follow edges parsed")
    return follows_of(kept, skipped)


def read_clicks(text, strict=True):
    kept, skipped = _lines(text, click_fault, strict)
    clicks = {}
    for url, count in kept:
        clicks[url] = max(clicks.get(url, 0), int(Decimal(count)))
    return ClickTable(clicks, skipped)


def graph_reason(parts):
    if len(parts) != 3:
        return "expected 'source target weight' or 'node - -'"
    if not parts[0] or not parts[1]:
        return "empty user id"
    if parts[1] == "-" and parts[2] == "-":
        return None
    if parts[1][0] == "#":
        return HASH_ID
    if parts[0] == parts[1]:
        return "self-arc"
    try:
        w = float(parts[2])
    except ValueError as exc:
        return str(exc)
    return None if 0.0 < w <= 1.0 else f"weight outside (0, 1]: {parts[2]!r}"


def read_graph(text):
    """The graph in ``text``; after the line rules, the first line repeating
    an arc, then a ``#nodes=`` header that the file does not match, is an
    error."""
    header = None
    rows = []  # (line_no, source, target, weight); a node line has no target
    for line_no, line, is_header in records(text, "#nodes="):
        if is_header:
            if header is not None:
                raise UnparsableLine(line_no, line, "a second header")
            header = (line_no, line)
            continue
        reason = graph_reason(line.split("\t"))
        if reason is not None:
            raise UnparsableLine(line_no, line, reason)
        source, target, weight = line.split("\t")
        if target == "-" and weight == "-":
            rows.append((line_no, source, None, None))
        else:
            rows.append((line_no, source, target, float(weight)))
    seen = set()
    for line_no, source, target, weight in rows:
        if target is not None:
            if (source, target) in seen:
                raise UnparsableLine(line_no, f"{source}\t{target}\t{weight!r}", "duplicate arc")
            seen.add((source, target))
    g = graph_from_arcs(
        [(s, t, w) for _, s, t, w in rows if t is not None], [s for _, s, t, _ in rows]
    )
    if header is not None and header[1] != f"#nodes={g.num_nodes} arcs={g.num_arcs}":
        raise UnparsableLine(*header, f"file holds {g.num_nodes} nodes and {g.num_arcs} arcs")
    return g


def read_scores(path):
    """``cli.read_score_columns`` of the file at ``path``, a line at a time."""
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    label, first, rows = None, None, []
    for line_no, line, is_header in records(text, "#measure="):
        if is_header:
            if label is not None or rows:
                raise ConfigInvalid(f"line {line_no} of {path}: a second or late header")
            label = line.split("=", 1)[1]
            continue
        parts = line.split("\t")
        first = first or (line_no, len(parts))
        if len(parts) not in (2, 3):
            reason = "unrecognized line"
        elif not parts[0]:
            reason = "empty user id"
        elif len(parts) != first[1]:
            reason = f"{len(parts)} columns, unlike the {first[1]} of line {first[0]}"
        else:
            values = []
            for token in parts[1:]:
                try:
                    values.append(float(token))
                except ValueError:
                    values.append(float("nan"))
            reason = "score is not a number" if any(v != v for v in values) else None
        if reason is not None:
            raise ConfigInvalid(f"line {line_no} of {path}: {reason}: {line!r}")
        rows.append((line_no, parts[0], values))
    if not rows:
        raise MissingInput(f"no score rows found in {path}")
    seen = set()
    for line_no, uid, _ in rows:
        if uid in seen:
            raise ConfigInvalid(f"line {line_no} of {path}: {uid!r} is listed twice")
        seen.add(uid)
    rows.sort(key=operator.itemgetter(1))
    ids = tuple(uid for _, uid, _ in rows)
    label = "scores" if label is None else label
    names = (label,) if first[1] == 2 else ("influence", "passivity")
    return label, {
        name: ScoreVector(ids, [values[k] for _, _, values in rows], name)
        for k, name in enumerate(names)
    }
