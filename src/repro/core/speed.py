"""Speed-constraint primitives shared by every MTCSC algorithm.

The paper (Definition 2.3) constrains the Euclidean distance over *all*
dimensions together: a series satisfies ``s`` with window ``w`` iff for
every pair ``0 < t_j - t_i <= w`` it holds that
``d(x_i, x_j) / (t_j - t_i) <= s``.  Pairs further apart than ``w`` are
unconstrained.  ``s_min = 0`` throughout (Section 2.1).

All kernels operate on plain numpy arrays ``t`` (shape ``(n,)``, strictly
increasing) and ``X`` (shape ``(n, D)``) so they are testable without
Spark and directly usable inside ``applyInPandas`` workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative tolerance used when comparing a speed against the constraint,
#: so that repairs placed exactly on the constraint boundary (which the
#: interpolation formula (6) produces) are accepted despite float error.
EPS = 1e-9


@dataclass(frozen=True)
class SpeedConstraint:
    """A speed constraint ``s = (0, smax)`` with time window ``w``.

    ``smax`` bounds the Euclidean speed between any two points whose
    timestamps differ by at most ``window`` time units.
    """

    smax: float
    window: float

    def __post_init__(self) -> None:
        if self.smax <= 0:
            raise ValueError(f"smax must be positive, got {self.smax}")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two points (Definition 2.2)."""
    return float(np.sqrt(np.sum((np.asarray(a, float) - np.asarray(b, float)) ** 2)))


def distances(X: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`distance` between the points (last axis) of ``X`` and ``x``,
    broadcast, bit for bit.

    Each point is summed along its own contiguous axis, in ``distance``'s
    order; ``np.add.reduce`` is ``np.sum`` without its wrapper's cost.
    """
    return np.sqrt(np.add.reduce((X - x) ** 2, axis=-1))


def max_distance(dt, smax: float):
    """Largest distance compatible with ``smax`` over a time gap ``dt > 0``,
    with the ``EPS`` tolerance; on numbers or elementwise on arrays."""
    return smax * dt * (1.0 + EPS) + EPS


def satisfy(
    ti: float, xi: np.ndarray, tj: float, xj: np.ndarray, s: SpeedConstraint
) -> bool:
    """``satisfy(x_i, x_j)`` from Table 1: the pair is compatible w.r.t. ``s``.

    Pairs with time gap larger than the window are unconstrained and
    therefore compatible.  ``ti``/``tj`` may come in either order.
    """
    dt = abs(float(tj) - float(ti))
    if dt == 0:
        # Same timestamp: compatible only if identical (distance 0).
        return distance(xi, xj) == 0.0
    if dt > s.window:
        return True
    return distance(xi, xj) <= s.smax * dt * (1.0 + EPS) + EPS


def compatible(d, dt, smax: float, window: float = np.inf):
    """Vectorized :func:`satisfy` on distances ``d`` over time gaps ``dt >= 0``.

    The formula is ``satisfy``'s: a zero gap is compatible only at
    distance 0, a gap above ``window`` is unconstrained, otherwise
    ``d <= max_distance(dt, smax)``.  With the default infinite window this
    is the anchor check of the online cleaners: Prop. 3.2's soundness
    argument needs the anchor to lie within the speed cone of the previous
    repaired point, so a pair that is merely outside the window must not be
    accepted there.
    """
    return ((d <= max_distance(dt, smax)) | (dt > window)) & ((dt != 0) | (d == 0.0))


def _window_pairs(t: np.ndarray, X: np.ndarray, s: SpeedConstraint):
    """Yield ``(i, j, ok)`` per offset ``k``: the in-window pairs ``(i, i + k)``
    and whether each satisfies ``s``, one numpy pass per offset."""
    t = np.asarray(t, float)
    n = len(t)
    if n < 2:
        return
    X = np.ascontiguousarray(X, float).reshape(n, -1)
    # Pairs (i, j) with i < j < hi[i] are within the window of i.
    hi = np.searchsorted(t, t + s.window, side="right")
    span = hi - np.arange(n) - 1
    for k in range(1, int(span.max(initial=0)) + 1):
        i = np.flatnonzero(span >= k)
        j = i + k
        d = distances(X[j], X[i])
        yield i, j, compatible(d, np.abs(t[j] - t[i]), s.smax, s.window)


def series_satisfies(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> bool:
    """Check ``x |= s``: every in-window pair satisfies the constraint.

    By the triangle-inequality argument of Prop. 3.1 it is *not* enough to
    check consecutive pairs of the raw series (a pair may violate even when
    all consecutive pairs hold), so this checks all pairs within ``w``.
    Used by tests to assert soundness of repairs.
    """
    return all(ok.all() for _, _, ok in _window_pairs(t, X, s))


def violations(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> list[tuple[int, int]]:
    """All in-window pairs ``(i, j)`` violating the constraint (for tests)."""
    pairs = [(i[~ok], j[~ok]) for i, j, ok in _window_pairs(t, X, s)]
    if not pairs:
        return []
    i, j = (np.concatenate(p) for p in zip(*pairs))
    order = np.lexsort((j, i))
    return list(zip(i[order].tolist(), j[order].tolist()))


def interpolate(
    tp: float, xp: np.ndarray, tm: float, xm: np.ndarray, tk: float
) -> np.ndarray:
    """Formula (6): linear interpolation between anchor ``p`` and ``m`` at ``t_k``.

    ``alpha = (t_k - t_p) / (t_m - t_p)``; works per dimension.  Prop. 3.2
    shows the result satisfies the constraint w.r.t. ``x_p`` whenever
    ``satisfy(x_p, x_m)`` holds.
    """
    alpha = (float(tk) - float(tp)) / (float(tm) - float(tp))
    return np.asarray(xp, float) + alpha * (np.asarray(xm, float) - np.asarray(xp, float))


def estimate_speed(
    t: np.ndarray, X: np.ndarray, quantile: float = 0.95, scale: float = 1.0
) -> float:
    """Estimate a speed constraint from data as a quantile of observed speeds.

    Mirrors the paper's "extraction from the data by the 95% confidence
    level" (Section 4) for experiments where the true bound is unknown.
    """
    t = np.asarray(t, float)
    X = np.asarray(X, float)
    d = np.sqrt(np.sum(np.diff(X, axis=0) ** 2, axis=1))
    dt = np.diff(t)
    sp = d[dt > 0] / dt[dt > 0]
    if len(sp) == 0:
        raise ValueError("need at least two points to estimate a speed")
    return float(np.quantile(sp, quantile)) * scale
