"""Influence and passivity scoring over social-activity graphs.

Importing the package loads none of its modules, and so no numpy: each
public name, and each submodule, is imported on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "analytics": (
        "PercentileCurve",
        "RankReport",
        "RateReport",
        "percentile_curve",
        "rank_correlation",
        "rank_join",
        "rate_report",
        "top_k",
        "url_attribute_average",
    ),
    "baselines": (
        "PageRankParams",
        "ScoreVector",
        "follower_count",
        "h_index_scores",
        "retweet_count",
        "weighted_pagerank",
    ),
    "errors": ("IpRankError",),
    "graphs": (
        "GraphStats",
        "InfluenceGraph",
        "build_comention",
        "build_retweet",
        "build_retweet_follower",
        "graph_stats",
    ),
    "ingest": (
        "ActivityLog",
        "ClickTable",
        "FollowEdgeList",
        "TweetEvent",
        "parse_clicks",
        "parse_events",
        "parse_follows",
    ),
    "ipcore": ("IpParams", "IterationTrace", "ScorePair", "run_ip"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "testkit")

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # bound now, so this is not called for it again
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
