"""MTCSC-A — adaptive speed constraint capture, Algorithm 5 + Section 4.

MTCSC-C with the speed constraint re-estimated online: observed speeds
between consecutive arrivals fill two adjacent sliding windows ``W1``
and ``W2`` (``m`` speeds each).  Speeds are bucketed into ``b`` equal
intervals over ``[0, s]`` plus an overflow bucket ``(s, inf)``; once the
KL divergence ``KL(W1 || W2)`` exceeds the threshold ``tau``, the series'
character has changed and the constraint becomes
``s' = quantile95(W2) / beta`` (Example 4.1).

Hyper-parameters (paper defaults, Section 5.4.3): b=6, tau=0.75, m=150,
beta=0.75.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .online import OnlineCleaner, run_batch
from .speed import SpeedConstraint


def _edges(b: int, s: float) -> np.ndarray:
    """Upper edges of the b-1 equal bins on [0, s]; the last bucket is (s, inf)."""
    if b < 2:
        raise ValueError("need at least 2 buckets")
    return np.linspace(0.0, s, b)[1:]


def bucketize(speeds: np.ndarray, b: int, s: float) -> np.ndarray:
    """Histogram counts over b buckets: b-1 equal bins on [0, s] + (s, inf).

    Matches Example 4.1: s=2.2, b=6 gives bin edges 0, .44, .88, 1.32,
    1.76, 2.2, inf (5 equal bins of width s/(b-1) plus the overflow).
    """
    idx = np.searchsorted(_edges(b, s), speeds, side="left")
    return np.bincount(idx, minlength=b).astype(float)


def kl_divergence(p_counts: np.ndarray, q_counts: np.ndarray) -> float:
    """KL(P || Q) with natural log; terms with p=0 contribute 0.

    Buckets where p>0 but q=0 are smoothed with a tiny epsilon so the
    divergence is large-but-finite (the comparison against tau is all
    that matters).
    """
    p = np.asarray(p_counts, float)
    q = np.asarray(q_counts, float)
    p = p / p.sum() if p.sum() else p
    q = q / q.sum() if q.sum() else q
    mask = p > 0
    q_safe = np.where(q > 0, q, 1e-12)
    return float(np.sum(p[mask] * np.log(p[mask] / q_safe[mask])))


class AdaptiveSpeed:
    """Stateful Algorithm 5: feed consecutive speeds, get the current s.

    The bucket counts of ``W1`` and ``W2`` follow the speeds as they slide
    through the windows; both windows are bucketed again only when ``s``
    (and with it the bin edges) changes, and the divergence is computed
    again only when the counts change.
    """

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
        self._recount()

    def observe(self, speed: float) -> float:
        """Push one observed speed, return the (possibly updated) constraint."""
        s1 = float(speed)
        if len(self.w1) < self.m:
            self.w1.append(s1)
            self._c1[self._bucket(s1)] += 1
        elif len(self.w2) < self.m:
            self.w2.append(s1)
            self._c2[self._bucket(s1)] += 1
        else:
            if self._kl is None:
                self._kl = kl_divergence(self._c1, self._c2)
            if self._kl > self.tau:
                self.s = float(np.quantile(np.array(self.w2), 0.95)) / self.beta
                self.n_updates += 1
                self._recount()
            # Slide: oldest of W2 moves into W1, the new speed enters W2.
            gone, moved, new = map(self._bucket, (self.w1.popleft(), self.w2[0], s1))
            self.w1.append(self.w2.popleft())
            self.w2.append(s1)
            self._c1[gone] -= 1
            self._c1[moved] += 1
            self._c2[moved] -= 1
            self._c2[new] += 1
            if not gone == moved == new:
                self._kl = None
        return self.s

    def _bucket(self, speed: float) -> int:
        return int(self._edges.searchsorted(speed))

    def _recount(self) -> None:
        """Bucket both windows under the current s."""
        self._edges = _edges(self.b, self.s)
        self._c1 = bucketize(np.array(self.w1), self.b, self.s).tolist()
        self._c2 = bucketize(np.array(self.w2), self.b, self.s).tolist()
        self._kl: float | None = None  # KL(W1 || W2) of the counts, once computed


class AdaptiveCleaner(OnlineCleaner):
    """MTCSC-C with Algorithm 5 fed before each key-point decision.

    The monitored speed is the one between consecutive *observations*
    ("AdaptiveSpeed(x_{k-1}, x_k, ...)").  Using the previous repaired
    point instead would poison the distribution whenever a too-small
    constraint makes repairs lag the data (carry-forward during a
    transport-mode change), inflating s far past the new mode's real bound.
    """

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
        # monitor has updated s (see OnlineCleaner.reset_after).  Pass
        # reset_after=None to disable.
        if reset_after is not None and reset_after < 0:
            reset_after = s.window
        speed = AdaptiveSpeed(s.smax, b=b, tau=tau, m=m, beta=beta)
        super().__init__(s, cluster=True, reset_after=reset_after, speed=speed)

    @property
    def n_speed_updates(self) -> int:
        return self._speed.n_updates

    @property
    def current_speed(self) -> float:
        return self._speed.s


def mtcsc_a(
    t: np.ndarray,
    X: np.ndarray,
    s: SpeedConstraint,
    *,
    b: int = 6,
    tau: float = 0.75,
    m: int = 150,
    beta: float = 0.75,
    reset_after: float | None = -1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch MTCSC-A.  Returns ``(X_repaired, changed_mask)``."""
    cleaner = AdaptiveCleaner(s, b=b, tau=tau, m=m, beta=beta, reset_after=reset_after)
    return run_batch(cleaner, t, X)
