"""Match post-processing: clustering, 1-1 enforcement, merging, dedup."""

from repro.postprocess.clustering import (
    UnionFind,
    cluster_matches,
    enforce_one_to_one,
    merge_matches,
    merge_records,
)
from repro.postprocess.dedupe import (
    dedupe_table,
    duplicate_groups,
    self_block_table,
)

__all__ = [
    "UnionFind",
    "cluster_matches",
    "dedupe_table",
    "duplicate_groups",
    "enforce_one_to_one",
    "merge_matches",
    "merge_records",
    "self_block_table",
]
