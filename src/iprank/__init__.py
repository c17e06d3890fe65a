"""Influence and passivity scoring over social-activity graphs."""

from .analytics import (
    PercentileCurve,
    RankReport,
    RateReport,
    percentile_curve,
    rank_correlation,
    rank_join,
    rate_report,
    top_k,
    url_attribute_average,
)
from .baselines import (
    PageRankParams,
    ScoreVector,
    follower_count,
    h_index_scores,
    invert_graph,
    retweet_count,
    weighted_pagerank,
)
from .errors import IpRankError
from .graphs import (
    GraphStats,
    InfluenceGraph,
    build_comention,
    build_retweet,
    build_retweet_follower,
    graph_stats,
)
from .ingest import (
    ActivityLog,
    ClickTable,
    FollowEdgeList,
    TweetEvent,
    parse_clicks,
    parse_events,
    parse_follows,
    url_counts,
)
from .ipcore import IpParams, IterationTrace, ScorePair, run_ip

__version__ = "0.1.0"

__all__ = [
    "ActivityLog",
    "ClickTable",
    "FollowEdgeList",
    "GraphStats",
    "InfluenceGraph",
    "IpParams",
    "IpRankError",
    "IterationTrace",
    "PageRankParams",
    "PercentileCurve",
    "RankReport",
    "RateReport",
    "ScorePair",
    "ScoreVector",
    "TweetEvent",
    "build_comention",
    "build_retweet",
    "build_retweet_follower",
    "follower_count",
    "graph_stats",
    "h_index_scores",
    "invert_graph",
    "parse_clicks",
    "parse_events",
    "parse_follows",
    "percentile_curve",
    "rank_correlation",
    "rank_join",
    "rate_report",
    "retweet_count",
    "run_ip",
    "top_k",
    "url_attribute_average",
    "url_counts",
    "weighted_pagerank",
]
