"""One online cleaner behind MTCSC-L, MTCSC-C and MTCSC-A (Algorithms 2-5).

The three algorithms decide each key point once its lookahead window
``(t_k, t_k + w]`` has arrived, and differ only in the anchor policy: L
anchors on the first window point compatible with the previous repair
(formula 6), C on the first point of the window's largest cluster
(Algorithms 3/4), and A is C with the constraint re-estimated before each
decision (Algorithm 5).

:class:`OnlineCleaner` keeps the pending points and the last decided one in
numpy arrays, and stores each point's distances and time gaps to the points
before it, computed in one vectorized call as points arrive.  Raw distances
never change, so a decision compares them against the current ``smax``
without recomputing any; only a previous repair that is not the observation
itself needs a fresh distance row.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .speed import EPS, SpeedConstraint, distances, max_distance

if TYPE_CHECKING:
    from .mtcsc_a import AdaptiveSpeed

#: Initial number of point slots; the buffer grows when a window needs more.
_MIN_SLOTS = 64
#: Points appended per vectorized step of :meth:`OnlineCleaner.extend`,
#: which bounds the buffer for long batch inputs.
_CHUNK = 1024


def build_clusters(near: list[bool], compat: list[list[bool]]) -> list[list[int]]:
    """Algorithm 3 (BuildCluster) over precomputed compatibility.

    ``near[i]`` says whether window point ``i`` is within speed of the
    previous repaired point, ``compat[i][k]`` whether window points ``i``
    and ``i - k`` are (``1 <= k <= i``).  Returns clusters as lists of
    window indices, in order of creation.

    Flags per point: 0 = omitted/dirty, -1 = head of its own cluster,
    ``h + 1`` = member of the cluster headed by ``h``.
    """
    ell = next((i for i, ok in enumerate(near) if ok), -1)
    if ell < 0:
        return []
    f = [0] * len(near)
    f[ell] = -1
    clusters: dict[int, list[int]] = {ell: [ell]}
    for i in range(ell + 1, len(near)):
        row = compat[i]
        for j in range(i - 1, ell - 1, -1):
            if row[i - j]:
                if f[j] == -1:
                    f[i] = j + 1
                    clusters[j].append(i)
                elif f[j] >= 1:
                    f[i] = f[j]
                    clusters[f[i] - 1].append(i)
                # f[j] == 0 (omitted): i is compatible with a dirty point
                # and is itself omitted (stays 0).
                break
            if j == ell or f[j] >= 1:
                # Action 2: start a new cluster iff compatible with the
                # previous repaired point; otherwise omit (Action 4).
                if near[i]:
                    f[i] = -1
                    clusters[i] = [i]
                break
            # Action 3 (f[j] in {-1 with unsatisfied, 0}): keep scanning
            # towards older points.
    return list(clusters.values())


def largest_cluster_head(clusters: list[list[int]]) -> int | None:
    """Index (into the window) of the first point of the largest cluster.

    Ties break towards the earliest-created (oldest-head) cluster, which
    matches a stable argmax over creation order.
    """
    if not clusters:
        return None
    best = max(clusters, key=len)
    return best[0]


class OnlineCleaner:
    """Incremental MTCSC-L/C/A over a buffered stream.

    Feed points with :meth:`push` (or many at once with :meth:`extend`);
    the repair of a key point is emitted once its lookahead window has
    fully arrived (or at :meth:`flush`), and :meth:`drain` returns the
    ``(t, repaired, changed)`` rows emitted so far.  Batch
    (:func:`run_batch`) and streaming callers use the same object, so their
    results agree.  Timestamps must strictly increase across all pushes.

    ``cluster`` picks the anchor policy: MTCSC-C's largest cluster, or
    MTCSC-L's first compatible successor.  ``speed``, an
    :class:`~repro.core.mtcsc_a.AdaptiveSpeed`, is fed the speed between
    consecutive observations before each decision and may replace
    ``smax`` (MTCSC-A).

    ``reset_after`` (time units, default off): if no window point has been
    compatible with the carried anchor for that long, trust the current
    observation again instead of carrying the stale repair forward.  The
    paper never re-anchors, which is sound under a correct constraint, but a
    badly mis-set one (the MTCSC-A scenario) then diverges for good once the
    trajectory outruns ``s * w``; MTCSC-A trades soundness for bounded
    staleness and turns the reset on.
    """

    def __init__(
        self,
        s: SpeedConstraint,
        *,
        cluster: bool = True,
        reset_after: float | None = None,
        speed: AdaptiveSpeed | None = None,
    ):
        self.s = s
        self.cluster = cluster
        self.reset_after = reset_after
        self._speed = speed
        # Slots [lo, hi) hold the pending points, slot lo - 1 the last
        # decided one.  _d[i, k] and _g[i, k] are the distance and the time
        # gap from slot i back to slot i - k, for every k that a decision
        # can read (column 0 is unused).
        self._t = np.empty(0)
        self._x = np.empty((0, 0))
        self._d = np.zeros((0, 1))
        self._g = np.zeros((0, 1))
        self._lo = self._hi = 0
        self._prev_t: float | None = None  # timestamp of last emitted repair
        self._prev_x: np.ndarray | None = None  # value of last emitted repair
        self._prev_raw = False  # the last repair is the observation in slot lo - 1
        self._last_accept_t: float | None = None
        self._decided = 0
        self._out: list[tuple[float, np.ndarray, bool]] = []

    def push(self, t: float, x: np.ndarray) -> None:
        """Add one point."""
        self.extend([t], np.asarray(x, float).reshape(1, -1))

    def extend(self, t: np.ndarray, X: np.ndarray) -> None:
        """Add points in time order; the same as pushing them one by one."""
        t = np.asarray(t, float)
        if not len(t):
            return
        X = np.asarray(X, float).reshape(len(t), -1)
        last = self._t[self._hi - 1] if self._hi else -np.inf
        if not (t[0] > last and np.all(t[1:] > t[:-1])):
            raise ValueError("timestamps must be strictly increasing")
        for start in range(0, len(t), _CHUNK):
            self._append(t[start : start + _CHUNK], X[start : start + _CHUNK])
            # Emit every pending key point whose lookahead window is complete.
            newest = self._t[self._hi - 1]
            while self._lo < self._hi and newest > self._t[self._lo] + self.s.window + EPS:
                self._emit()

    def flush(self) -> None:
        """End of stream: decide all remaining pending points."""
        while self._lo < self._hi:
            self._emit()

    def drain(self) -> list[tuple[float, np.ndarray, bool]]:
        """Return and clear the repairs emitted so far."""
        out, self._out = self._out, []
        return out

    def _append(self, t: np.ndarray, X: np.ndarray) -> None:
        """Store points and their distances and gaps to the points before them."""
        p = len(t)
        if self._hi + p > len(self._t):
            self._make_room(p, X.shape[1])
        first, hi = max(self._lo - 1, 0), self._hi
        self._t[hi : hi + p] = t
        self._x[hi : hi + p] = X
        # A point is read against the points back to the one before the
        # oldest key point whose window holds it.
        oldest_key = first + np.searchsorted(self._t[first : hi + p] + self.s.window, t, "left")
        rows = np.arange(hi, hi + p)
        lags = int((rows - np.maximum(oldest_key - 1, first)).max()) + 1
        if lags > self._d.shape[1]:
            grow = ((0, 0), (0, 2 * lags - self._d.shape[1]))
            self._d, self._g = np.pad(self._d, grow), np.pad(self._g, grow)
        # Lags reaching before slot `first` are clamped to it; no decision
        # reads them.
        src = np.maximum(rows[:, None] - np.arange(1, lags), first)
        self._d[hi : hi + p, 1:lags] = distances(self._x[src], self._x[hi : hi + p, None])
        self._g[hi : hi + p, 1:lags] = t[:, None] - self._t[src]
        self._hi = hi + p

    def _make_room(self, p: int, dim: int) -> None:
        """Move the live slots to the front of fresh arrays with room for p more."""
        keep = max(self._lo - 1, 0)
        n = self._hi - keep
        slots = max(_MIN_SLOTS, len(self._t), 2 * (n + p))
        lags = self._d.shape[1]
        t, x = np.empty(slots), np.empty((slots, dim))
        d, g = np.zeros((slots, lags)), np.zeros((slots, lags))
        if n:
            t[:n] = self._t[keep : self._hi]
            x[:n] = self._x[keep : self._hi]
            d[:n] = self._d[keep : self._hi]
            g[:n] = self._g[keep : self._hi]
        self._t, self._x, self._d, self._g = t, x, d, g
        self._lo -= keep
        self._hi -= keep

    def _emit(self) -> None:
        """Decide the repair of the oldest pending point (the key point)."""
        a = self._lo
        tk = float(self._t[a])
        if self._prev_x is None:
            xr, changed, carried = self._x[a].copy(), False, False
        else:
            if self._speed is not None:
                self._adapt(a, tk)
            xr, changed, carried = self._decide(a, tk)
        self._out.append((tk, xr, changed))
        self._prev_t, self._prev_x, self._prev_raw = tk, xr, not changed
        if not carried:
            # Kept observations and anchored repairs are both
            # evidence-backed; only carry-forward emits leave the anchor
            # stale.
            self._last_accept_t = tk
        self._decided += 1
        self._lo = a + 1

    def _adapt(self, a: int, tk: float) -> None:
        """Algorithm 5: feed the speed from the previous observation to this one."""
        # The monitor starts at the third key point: the speed between the
        # first two observations is never fed.
        if self._decided >= 2:
            s_new = self._speed.observe(self._d[a, 1] / (tk - self._prev_t))
            if s_new != self.s.smax:
                self.s = SpeedConstraint(s_new, self.s.window)

    def _near(self, a: int, hi: int, budget: np.ndarray) -> np.ndarray:
        """Whether the points in slots [a, hi) are within speed of the last
        repair, given each one's largest compatible distance to it."""
        if self._prev_raw:
            # The repair is the observation in slot a - 1: lag i - a + 1.
            d = self._d[a - 1 : hi, : hi - a + 1].diagonal()[1:]
        else:
            d = distances(self._x[a:hi], self._prev_x)
        return d <= budget

    def _decide(self, a: int, tk: float) -> tuple[np.ndarray, bool, bool]:
        """Repair of the key point in slot ``a``: ``(value, changed, carried)``.

        The last repair is at time ``t[a - 1]`` and timestamps strictly
        increase, so every time gap below is positive.
        """
        s = self.s
        prev_t, prev_x = self._prev_t, self._prev_x
        # Window points after the key point, within t <= tk + w.
        hi = a + 1 + int(self._t[a + 1 : self._hi].searchsorted(tk + s.window, "right"))
        gap = tk - prev_t
        head = None
        if self.cluster:
            # Rows: the previous point, the key point, the window.
            budget = max_distance(self._g[a - 1 : hi, : hi - a + 1], s.smax)
            ok = self._d[a - 1 : hi, : hi - a + 1] <= budget
            near = self._near(a, hi, budget.diagonal()[1:])
            # satisfy(previous repair, key point)
            keep = gap > s.window or near[0]
            head = largest_cluster_head(build_clusters(near[1:].tolist(), ok[2:].tolist()))
            if head is not None:
                # Algorithm 4 line 10: keep the key point only if it is also
                # compatible with the majority anchor.
                head += 1
                keep = keep and ok[1 + head, head]
        else:
            d0 = self._d[a, 1] if self._prev_raw else distances(self._x[a : a + 1], prev_x)[0]
            keep = gap > s.window or d0 <= max_distance(gap, s.smax)
            if not keep:
                g = self._g[a - 1 : hi, : hi - a + 1].diagonal()[1:]
                near = self._near(a, hi, max_distance(g, s.smax))
                head = next((i for i in range(1, hi - a) if near[i]), None)
        if keep:
            return self._x[a].copy(), False, False
        if head is not None:
            ti, xi = float(self._t[a + head]), self._x[a + head]
            alpha = (tk - prev_t) / (ti - prev_t)
            return prev_x + alpha * (xi - prev_x), True, False
        if (
            self.reset_after is not None
            and self._last_accept_t is not None
            and tk - self._last_accept_t > self.reset_after
        ):
            return self._x[a].copy(), False, False
        return prev_x.copy(), True, True


def run_batch(
    cleaner: OnlineCleaner, t: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Clean a whole series with a fresh online cleaner.

    Returns ``(X_repaired, changed_mask)``.
    """
    t = np.asarray(t, float)
    X = np.atleast_2d(np.asarray(X, float))
    if X.shape[0] != len(t):
        raise ValueError(f"t has {len(t)} rows but X has {X.shape[0]}")
    cleaner.extend(t, X)
    cleaner.flush()
    rows = cleaner.drain()
    Xr = np.vstack([r[1] for r in rows]) if rows else X.copy()
    changed = np.array([r[2] for r in rows], dtype=bool)
    # A "repair" identical to the observation is not counted as changed.
    changed &= np.any(Xr != X, axis=1)
    return Xr, changed
