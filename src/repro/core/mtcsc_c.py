"""MTCSC-C — online cleaning via window clustering, Algorithms 3 and 4.

MTCSC-L anchors the repair on the *first* compatible successor, which a
lucky outlier can hijack.  MTCSC-C instead clusters the points of the
current window (BuildCluster, Algorithm 3) and anchors on the first
point of the **largest** cluster — the window's majority trend.  This
also repairs *small* errors: the key point is modified unless it is
compatible with both the previous repair and the majority representative
(Algorithm 4 line 10), even when it satisfies the speed constraint.

Complexity O(w^2 D n); constant space beyond the window.  The algorithm
runs on the shared :class:`~repro.core.online.OnlineCleaner`.
"""
from __future__ import annotations

import numpy as np

from .online import OnlineCleaner, build_clusters, largest_cluster_head, run_batch
from .speed import SpeedConstraint, compatible, distances

__all__ = ["ClusterCleaner", "build_cluster", "largest_cluster_head", "mtcsc_c"]


def build_cluster(
    tp: float,
    xp: np.ndarray,
    tw: np.ndarray,
    Xw: np.ndarray,
    s: SpeedConstraint,
) -> list[list[int]]:
    """Algorithm 3: cluster the window points (successors of the key point).

    ``(tp, xp)`` is the last repaired point; ``tw``/``Xw`` hold the window
    points *after* the key point, in time order.  Returns clusters as
    lists of indices into ``tw`` (order of creation).
    """
    tw = np.asarray(tw, float)
    Xw = np.ascontiguousarray(Xw, float)
    near = compatible(distances(Xw, np.asarray(xp, float)), np.abs(tw - tp), s.smax)
    # Row i holds point i against points i, i - 1, ..., 0 (by lag).
    compat = [
        compatible(distances(Xw[i::-1], Xw[i]), np.abs(tw[i] - tw[i::-1]), s.smax).tolist()
        for i in range(len(tw))
    ]
    return build_clusters(near.tolist(), compat)


class ClusterCleaner(OnlineCleaner):
    """Incremental MTCSC-C (Algorithm 4): the online cleaner with the
    largest-cluster anchor.  See :class:`~repro.core.online.OnlineCleaner`
    for ``reset_after``."""

    def __init__(self, s: SpeedConstraint, *, reset_after: float | None = None):
        super().__init__(s, cluster=True, reset_after=reset_after)


def mtcsc_c(
    t: np.ndarray, X: np.ndarray, s: SpeedConstraint
) -> tuple[np.ndarray, np.ndarray]:
    """Batch MTCSC-C.  Returns ``(X_repaired, changed_mask)``."""
    return run_batch(ClusterCleaner(s), t, X)
