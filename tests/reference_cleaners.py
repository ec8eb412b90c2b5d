"""Reference implementations of the online cleaners, kept for equality tests.

These are the list-buffer ``LocalCleaner``, ``ClusterCleaner`` and
``AdaptiveCleaner`` (with their scalar ``within_speed`` check, Algorithm 3
``build_cluster`` and the histogram-rebuilding ``bucketize``/``AdaptiveSpeed``) that
:class:`repro.core.online.OnlineCleaner` replaced.  They recompute every
distance with scalar numpy calls, which makes them slow but simple to read
against the paper; ``tests/test_online_core.py`` requires the library's
outputs to equal theirs byte for byte.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.mtcsc_a import kl_divergence
from repro.core.speed import EPS, SpeedConstraint, distance, satisfy


def run(cleaner, t: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The batch wrapper the three cleaners shared: push all, flush, stack."""
    t = np.asarray(t, float)
    X = np.atleast_2d(np.asarray(X, float))
    for i in range(len(t)):
        cleaner.push(t[i], X[i])
    cleaner.flush()
    rows = cleaner.drain()
    Xr = np.vstack([r[1] for r in rows]) if rows else X.copy()
    changed = np.array([r[2] for r in rows], dtype=bool)
    changed &= np.any(Xr != X, axis=1)
    return Xr, changed


def within_speed(
    ti: float, xi: np.ndarray, tj: float, xj: np.ndarray, s: SpeedConstraint
) -> bool:
    """Bounded speed check ``d <= smax * dt`` with *no* window exemption.

    Used when selecting interpolation anchors: Prop. 3.2's soundness
    argument needs the anchor to genuinely lie within the speed cone of
    the previous repaired point, so a pair that is merely "outside the
    window" (and thus unconstrained for violation detection) must not be
    accepted here.
    """
    dt = abs(float(tj) - float(ti))
    if dt == 0:
        return distance(xi, xj) == 0.0
    return distance(xi, xj) <= s.smax * dt * (1.0 + EPS) + EPS


class LocalCleaner:
    """Incremental MTCSC-L over a buffered stream.

    Feed points with :meth:`push`; repaired points are emitted once their
    lookahead window has fully arrived (or at :meth:`flush`).  The batch
    function :func:`mtcsc_l` wraps this class, and the Structured
    Streaming job reuses it so batch and streaming results agree.
    """

    def __init__(self, s: SpeedConstraint):
        self.s = s
        self._tbuf: list[float] = []
        self._xbuf: list[np.ndarray] = []
        self._prev_t: float | None = None  # timestamp of last emitted repair
        self._prev_x: np.ndarray | None = None  # value of last emitted repair
        self._out: list[tuple[float, np.ndarray, bool]] = []

    def _emit_first_buffered(self) -> None:
        """Decide the repair of the oldest buffered point (the key point)."""
        s = self.s
        tk = self._tbuf[0]
        xk = self._xbuf[0]
        if self._prev_x is None or satisfy(self._prev_t, self._prev_x, tk, xk, s):
            xr, changed = xk, False
        else:
            xr, changed = None, True
            for i in range(1, len(self._tbuf)):
                ti, xi = self._tbuf[i], self._xbuf[i]
                if ti > tk + s.window:
                    break
                if within_speed(self._prev_t, self._prev_x, ti, xi, s):
                    alpha = (tk - self._prev_t) / (ti - self._prev_t)
                    xr = self._prev_x + alpha * (xi - self._prev_x)
                    break
            if xr is None:
                xr = self._prev_x.copy()
        self._out.append((tk, np.asarray(xr, float), changed))
        self._prev_t, self._prev_x = tk, np.asarray(xr, float)
        self._tbuf.pop(0)
        self._xbuf.pop(0)

    def push(self, t: float, x: np.ndarray) -> None:
        if self._tbuf and t <= self._tbuf[-1]:
            raise ValueError("timestamps must be strictly increasing")
        self._tbuf.append(float(t))
        self._xbuf.append(np.asarray(x, float))
        # Emit every buffered key point whose lookahead window is complete.
        while self._tbuf and t > self._tbuf[0] + self.s.window + EPS:
            self._emit_first_buffered()

    def flush(self) -> None:
        """End of stream: decide all remaining buffered points."""
        while self._tbuf:
            self._emit_first_buffered()

    def drain(self) -> list[tuple[float, np.ndarray, bool]]:
        """Return and clear the repairs emitted so far."""
        out, self._out = self._out, []
        return out


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

    Flags per point: 0 = omitted/dirty, -1 = head of its own cluster,
    j > 0-style = index of the cluster head it joined.
    """
    m = len(tw)
    clusters: dict[int, list[int]] = {}
    f = np.zeros(m, dtype=np.int64)  # 0 dirty, -1 head, >=1 => head index+1
    # Find the first point compatible with the previous repaired point.
    ell = -1
    for i in range(m):
        if within_speed(tp, xp, tw[i], Xw[i], s):
            ell = i
            f[i] = -1
            clusters[i] = [i]
            break
    if ell < 0:
        return []
    for i in range(ell + 1, m):
        for j in range(i - 1, ell - 1, -1):
            if within_speed(tw[j], Xw[j], tw[i], Xw[i], s):
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
                if within_speed(tp, xp, tw[i], Xw[i], s):
                    f[i] = -1
                    clusters[i] = [i]
                break
            # Action 3 (f[j] in {-1 with unsatisfied, 0}): keep scanning
            # towards older points.
    return [clusters[k] for k in sorted(clusters)]


def largest_cluster_head(clusters: list[list[int]]) -> int | None:
    """Index (into the window) of the first point of the largest cluster.

    Ties break towards the earliest-created (oldest-head) cluster, which
    matches a stable argmax over creation order.
    """
    if not clusters:
        return None
    best = max(clusters, key=len)
    return best[0]


class ClusterCleaner:
    """Incremental MTCSC-C (Algorithm 4) over a buffered stream.

    Same emission contract as :class:`repro.core.mtcsc_l.LocalCleaner`:
    a key point is decided once its lookahead window has fully arrived.
    The first point of the stream is trusted (Algorithm 4 starts at k=2).
    """

    def __init__(self, s: SpeedConstraint, *, reset_after: float | None = None):
        """``reset_after`` (time units, default off): if no window point has
        been compatible with the carried anchor for that long, trust the
        current observation again instead of carrying the stale repair
        forward.  The paper's algorithms never re-anchor — sound under a
        correct constraint, but a badly mis-set constraint (the MTCSC-A
        adaptation scenario) then diverges permanently once the true
        trajectory outruns ``s * w``.  Enabling the reset trades the strict
        soundness guarantee for bounded staleness; MTCSC-A turns it on.
        """
        self.s = s
        self.reset_after = reset_after
        self._tbuf: list[float] = []
        self._xbuf: list[np.ndarray] = []
        self._prev_t: float | None = None
        self._prev_x: np.ndarray | None = None
        self._last_accept_t: float | None = None
        self._out: list[tuple[float, np.ndarray, bool]] = []

    # Subclasses (MTCSC-A) can mutate self.s here before the key point
    # of each step is decided.
    def _pre_step(self, tk: float, xk: np.ndarray) -> None:
        return None

    def _emit_first_buffered(self) -> None:
        s = self.s
        tk = self._tbuf[0]
        xk = self._xbuf[0]
        carried = False  # True only for carry-forward (stale-anchor) emits
        if self._prev_x is None:
            xr, changed = xk, False
        else:
            self._pre_step(tk, xk)
            s = self.s
            # Window points after the key point, within t <= tk + w.
            tw, Xw = [], []
            for i in range(1, len(self._tbuf)):
                if self._tbuf[i] > tk + s.window:
                    break
                tw.append(self._tbuf[i])
                Xw.append(self._xbuf[i])
            tw = np.asarray(tw, float)
            Xw = np.asarray(Xw, float) if len(Xw) else np.zeros((0, len(xk)))
            clusters = build_cluster(self._prev_t, self._prev_x, tw, Xw, s)
            head = largest_cluster_head(clusters)
            if head is None:
                # No compatible trend in the window: behave like MTCSC-L's
                # fallback — keep the point if compatible, else carry the
                # previous repair forward (or re-anchor if the carried
                # repair has been stale longer than ``reset_after``).
                if satisfy(self._prev_t, self._prev_x, tk, xk, s):
                    xr, changed = xk, False
                elif (
                    self.reset_after is not None
                    and self._last_accept_t is not None
                    and tk - self._last_accept_t > self.reset_after
                ):
                    xr, changed = xk, False
                else:
                    xr, changed = self._prev_x.copy(), True
                    carried = True
            else:
                ti, xi = float(tw[head]), Xw[head]
                ok = satisfy(self._prev_t, self._prev_x, tk, xk, s) and within_speed(
                    tk, xk, ti, xi, s
                )
                if ok:
                    xr, changed = xk, False
                else:
                    alpha = (tk - self._prev_t) / (ti - self._prev_t)
                    xr = self._prev_x + alpha * (xi - self._prev_x)
                    changed = True
        self._out.append((tk, np.asarray(xr, float), changed))
        self._prev_t, self._prev_x = tk, np.asarray(xr, float)
        if not carried:
            # Kept observations and cluster-anchored repairs are both
            # evidence-backed; only carry-forward emits leave the anchor
            # stale.
            self._last_accept_t = tk
        self._tbuf.pop(0)
        self._xbuf.pop(0)

    def push(self, t: float, x: np.ndarray) -> None:
        if self._tbuf and t <= self._tbuf[-1]:
            raise ValueError("timestamps must be strictly increasing")
        self._tbuf.append(float(t))
        self._xbuf.append(np.asarray(x, float))
        while self._tbuf and t > self._tbuf[0] + self.s.window + EPS:
            self._emit_first_buffered()

    def flush(self) -> None:
        while self._tbuf:
            self._emit_first_buffered()

    def drain(self) -> list[tuple[float, np.ndarray, bool]]:
        out, self._out = self._out, []
        return out


def bucketize(speeds: np.ndarray, b: int, s: float) -> np.ndarray:
    """Histogram counts over b buckets: b-1 equal bins on [0, s] + (s, inf).

    Matches Example 4.1: s=2.2, b=6 gives bin edges 0, .44, .88, 1.32,
    1.76, 2.2, inf (5 equal bins of width s/(b-1) plus the overflow).
    """
    if b < 2:
        raise ValueError("need at least 2 buckets")
    edges = np.linspace(0.0, s, b)  # b-1 interior bins
    idx = np.clip(np.searchsorted(edges[1:], speeds, side="left"), 0, b - 1)
    counts = np.bincount(idx, minlength=b)
    return counts.astype(float)


class AdaptiveSpeed:
    """Stateful Algorithm 5: feed consecutive speeds, get the current s."""

    def __init__(
        self,
        s0: float,
        *,
        b: int = 6,
        tau: float = 0.75,
        m: int = 150,
        beta: float = 0.75,
    ):
        self.s = float(s0)
        self.b, self.tau, self.m, self.beta = b, tau, m, beta
        self.w1: deque[float] = deque()
        self.w2: deque[float] = deque()
        self.n_updates = 0  # number of constraint changes (for tests/metrics)

    def observe(self, speed: float) -> float:
        """Push one observed speed, return the (possibly updated) constraint."""
        s1 = float(speed)
        if len(self.w1) < self.m:
            self.w1.append(s1)
        elif len(self.w2) < self.m:
            self.w2.append(s1)
        else:
            c1 = bucketize(np.array(self.w1), self.b, self.s)
            c2 = bucketize(np.array(self.w2), self.b, self.s)
            if kl_divergence(c1, c2) > self.tau:
                self.s = float(np.quantile(np.array(self.w2), 0.95)) / self.beta
                self.n_updates += 1
            # Slide: oldest of W2 moves into W1, the new speed enters W2.
            s2 = self.w2.popleft()
            self.w1.append(s2)
            self.w1.popleft()
            self.w2.append(s1)
        return self.s


class AdaptiveCleaner(ClusterCleaner):
    """MTCSC-C with Algorithm 5 spliced in before each key-point decision."""

    def __init__(
        self,
        s: SpeedConstraint,
        *,
        b: int = 6,
        tau: float = 0.75,
        m: int = 150,
        beta: float = 0.75,
        reset_after: float | None = -1.0,
    ):
        # MTCSC-A exists precisely because the constraint can be mis-set,
        # so the stale-anchor reset defaults ON (one window) — without it
        # a transport-mode change can strand the anchor before the KL
        # monitor has updated s (see ClusterCleaner.reset_after).  Pass
        # reset_after=None to disable.
        if reset_after is not None and reset_after < 0:
            reset_after = s.window
        super().__init__(s, reset_after=reset_after)
        self._adaptive = AdaptiveSpeed(s.smax, b=b, tau=tau, m=m, beta=beta)
        self._last_raw_t: float | None = None
        self._last_raw_x: np.ndarray | None = None

    def _pre_step(self, tk: float, xk: np.ndarray) -> None:
        # "AdaptiveSpeed(x_{k-1}, x_k, ...)": the monitored speed is the
        # one between consecutive *observations*.  Using the previous
        # repaired point instead would poison the distribution whenever a
        # too-small constraint makes repairs lag the data (carry-forward
        # during a transport-mode change), inflating s far past the new
        # mode's real bound.
        try:
            if self._last_raw_t is not None:
                dt = tk - self._last_raw_t
                if dt > 0:
                    s_new = self._adaptive.observe(
                        distance(xk, self._last_raw_x) / dt
                    )
                    if s_new != self.s.smax:
                        self.s = SpeedConstraint(s_new, self.s.window)
        finally:
            self._last_raw_t = tk
            self._last_raw_x = np.asarray(xk, float)

    @property
    def n_speed_updates(self) -> int:
        return self._adaptive.n_updates

    @property
    def current_speed(self) -> float:
        return self._adaptive.s
