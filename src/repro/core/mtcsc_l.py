"""MTCSC-L — online local streaming repair, Algorithm 2.

Processes points in arrival order.  The first point is trusted.  Each
subsequent key point ``x_k`` is kept if it is compatible with the
previous *repaired* point; otherwise the algorithm scans forward inside
the window ``(t_k, t_k + w]`` for the first point compatible with the
previous repair and places ``x'_k`` on the line between them
(formula 6, Prop. 3.2 guarantees soundness).  If no such point exists,
``x'_k`` falls back to the previous repaired value.

Complexity O(wDn); constant space beyond the window.  The algorithm runs
on the shared :class:`~repro.core.online.OnlineCleaner`.
"""
from __future__ import annotations

import numpy as np

from .online import OnlineCleaner, run_batch
from .speed import SpeedConstraint


class LocalCleaner(OnlineCleaner):
    """Incremental MTCSC-L: the online cleaner with the first-compatible anchor."""

    def __init__(self, s: SpeedConstraint):
        super().__init__(s, cluster=False)


def mtcsc_l(
    t: np.ndarray, X: np.ndarray, s: SpeedConstraint
) -> tuple[np.ndarray, np.ndarray]:
    """Batch MTCSC-L.  Returns ``(X_repaired, changed_mask)``."""
    return run_batch(LocalCleaner(s), t, X)
