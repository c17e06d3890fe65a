"""Row-at-a-time writers of the graph, score, measure, report, curve, graph
stats and clicks formats: the oracles the column-at-a-time serializers are
tested against.

Each formats one row per f-string, or one cell per :func:`cell`, and joins
the lines, as the serializers did before they formatted a block of rows at
a time.
"""

import numpy as np


def cell(value):
    """A report cell: a float with 17 significant digits, anything else by ``str``."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def report_to_tsv(report):
    lines = [f"#report={report.label}", "#" + "\t".join(report.columns)]
    users, *values = report.data
    for row in zip(users, *(v.tolist() for v in values)):
        lines.append("\t".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


def scores_to_tsv(pair):
    lines = [
        f"{user}\t{i:.17g}\t{p:.17g}"
        for user, i, p in zip(pair.node_ids, pair.influence.tolist(), pair.passivity.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def vector_to_tsv(vector):
    lines = [f"#measure={vector.label}"]
    lines += (f"{user}\t{v:.17g}" for user, v in zip(vector.node_ids, vector.values.tolist()))
    return "\n".join(lines) + "\n"


def graph_to_tsv(g):
    lines = [f"#nodes={g.num_nodes} arcs={g.num_arcs}"]
    ids = g.node_ids
    lines += (
        f"{ids[i]}\t{ids[j]}\t{w!r}"
        for i, j, w in zip(g.src.tolist(), g.dst.tolist(), g.weights.tolist())
    )
    isolated = np.ones(g.num_nodes, dtype=bool)
    isolated[g.src] = isolated[g.dst] = False
    lines += (f"{g.node_ids[k]}\t-\t-" for k in np.flatnonzero(isolated).tolist())
    return "\n".join(lines) + "\n"


def trace_to_tsv(trace):
    lines = [f"{k}\t{d!r}" for k, d in enumerate(trace.deltas, start=1)]
    return "\n".join(lines) + ("\n" if lines else "")


def rates_to_tsv(report):
    def summary(tag, s):
        hist = ",".join(str(c) for c in s.histogram)
        return f"#{tag} mean={s.mean!r} median={s.median!r} hist={hist}"

    lines = [
        summary("user_rate", report.user_summary),
        summary("audience_rate", report.audience_summary),
        "#user\tuser_rate\taudience_rate",
    ]
    user_rates = dict(zip(report.user_rates.node_ids, report.user_rates.values.tolist()))
    audience_rates = dict(
        zip(report.audience_rates.node_ids, report.audience_rates.values.tolist())
    )
    for user in sorted(set(user_rates) | set(audience_rates)):
        ur = user_rates.get(user)
        ar = audience_rates.get(user)
        lines.append(
            f"{user}\t{'-' if ur is None else format(ur, '.17g')}"
            f"\t{'-' if ar is None else format(ar, '.17g')}"
        )
    return "\n".join(lines) + "\n"


def events_to_tsv(log):
    users, urls = log.user_ids, log.url_ids
    lines = [
        f"{t}\t{users[u]}\t{urls[r]}\tM" if s < 0 else f"{t}\t{users[u]}\t{urls[r]}\tRT\t{users[s]}"
        for t, u, r, s in zip(
            log.time.tolist(), log.user.tolist(), log.url.tolist(), log.source.tolist()
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def follows_to_tsv(follows):
    ids = follows.user_ids
    lines = [
        f"{ids[a]}\t{ids[b]}" for a, b in zip(follows.followee.tolist(), follows.follower.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def curve_to_tsv(curve):
    lines = [f"#q={curve.q!r}"]
    for center, pct in curve.bins:
        lines.append(f"{center!r}\t{pct!r}")
    lines.append(f"#fit slope={curve.slope!r} intercept={curve.intercept!r}")
    return "\n".join(lines) + "\n"


def stats_to_tsv(stats):
    lines = [
        f"nodes\t{stats.nodes}",
        f"arcs\t{stats.arcs}",
        f"mean_weight\t{stats.mean_weight!r}",
    ]
    width = 1.0 / len(stats.weight_histogram)
    for k, count in enumerate(stats.weight_histogram):
        lines.append(f"hist\t{k * width!r}\t{(k + 1) * width!r}\t{count}")
    return "\n".join(lines) + "\n"


def clicks_to_tsv(table):
    lines = [f"{url}\t{count}" for url, count in sorted(table.clicks.items())]
    return "\n".join(lines) + ("\n" if lines else "")
