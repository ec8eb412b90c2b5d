"""The shared online core equals the list-buffer cleaners it replaced.

``reference_cleaners`` holds the previous ``LocalCleaner``,
``ClusterCleaner`` and ``AdaptiveCleaner``; every output here must match
theirs byte for byte, in batch and in micro-batches.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdaptiveCleaner,
    ClusterCleaner,
    LocalCleaner,
    SpeedConstraint,
    mtcsc_a,
    mtcsc_c,
    mtcsc_l,
)
from repro.core.online import run_batch

from . import reference_cleaners as ref
from .test_paper_examples import T24, T35, X24, X35

#: (library cleaner, reference cleaner) factories per method.
PAIRS = {
    "L": (LocalCleaner, ref.LocalCleaner),
    "C": (ClusterCleaner, ref.ClusterCleaner),
    "A": (AdaptiveCleaner, ref.AdaptiveCleaner),
}


def assert_identical(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w) and g.tobytes() == w.tobytes()


@st.composite
def series(draw):
    """Irregularly sampled random walks with injected single errors and runs."""
    n = draw(st.integers(2, 90))
    dim = draw(st.sampled_from([1, 2, 3, 9, 17]))
    seed = draw(st.integers(0, 2**32 - 1))
    g = np.random.default_rng(seed)
    window = draw(st.sampled_from([1.0, 2.5, 4.0, 10.0]))
    # Gaps from well inside the window to beyond it.
    gaps = g.choice([0.1, 0.5, 1.0, 1.0, 1.0, 2.0, 3.3, window, 1.5 * window], n)
    t = 100.0 + np.cumsum(gaps)
    step = draw(st.sampled_from([0.2, 0.6, 1.0]))
    X = np.cumsum(g.normal(0.0, step, (n, dim)) * np.sqrt(gaps)[:, None], axis=0)
    for _ in range(draw(st.integers(0, 4))):
        start = int(g.integers(0, n))
        run = int(g.choice([1, 1, 2, 4, 8]))
        X[start : start + run] += g.normal(0.0, draw(st.sampled_from([0.5, 3.0, 20.0])), dim)
    smax = draw(st.sampled_from([0.3, 1.0, 2.0]))
    return t, X, SpeedConstraint(smax, window)


@pytest.mark.parametrize("method", ["L", "C"])
@given(data=series())
@settings(max_examples=60, deadline=None)
def test_equals_reference(method, data):
    t, X, s = data
    new, old = PAIRS[method]
    want = ref.run(old(s), t, X)
    assert_identical(run_batch(new(s), t, X), want)
    assert_identical(run_batch(new(s), t, np.asfortranarray(X)), want)


@given(
    data=series(),
    m=st.sampled_from([3, 5, 12]),
    tau=st.sampled_from([0.05, 0.3, 0.75]),
    b=st.sampled_from([2, 6]),
    reset=st.sampled_from([-1.0, None, 0.5]),
)
@settings(max_examples=60, deadline=None)
def test_adaptive_equals_reference(data, m, tau, b, reset):
    t, X, s = data
    kw = dict(m=m, tau=tau, b=b, reset_after=reset)
    cleaner, want_cleaner = AdaptiveCleaner(s, **kw), ref.AdaptiveCleaner(s, **kw)
    assert_identical(run_batch(cleaner, t, X), ref.run(want_cleaner, t, X))
    assert cleaner.n_speed_updates == want_cleaner.n_speed_updates
    assert cleaner.current_speed == want_cleaner.current_speed


def test_adaptive_corpus_fires_updates_and_resets():
    """A walk that speeds up sixfold, with a small m: the constraint is
    updated several times and the stale-anchor reset changes the output,
    in both the reference and the core."""
    g = np.random.default_rng(3)
    n = 400
    t = np.arange(n, dtype=float)
    step = np.where(t < 200, 0.5, 3.0)
    X = np.cumsum(step[:, None] * (0.8 + 0.2 * g.random((n, 2))), axis=0)
    X[g.choice(n, 20, replace=False)] += 15.0
    s = SpeedConstraint(1.0, 5.0)
    outputs = []
    for kw in ({}, {"reset_after": None}):
        cleaner, want_cleaner = AdaptiveCleaner(s, m=20, **kw), ref.AdaptiveCleaner(s, m=20, **kw)
        outputs.append(run_batch(cleaner, t, X))
        assert_identical(outputs[-1], ref.run(want_cleaner, t, X))
        assert cleaner.n_speed_updates == want_cleaner.n_speed_updates >= 2
    assert not np.array_equal(outputs[0][0], outputs[1][0])


@pytest.mark.parametrize("method", ["L", "C", "A"])
@pytest.mark.parametrize(
    "t, X, s",
    [
        (T24, X24, SpeedConstraint(1.0, 1.0)),
        (T24, X24, SpeedConstraint(1.0, 2.0)),
        (T24, X24, SpeedConstraint(1.0, 7.0)),
        (T35, X35, SpeedConstraint(1.0, 6.0)),
    ],
)
def test_paper_examples_equal_reference(method, t, X, s):
    new, old = PAIRS[method]
    assert_identical(run_batch(new(s), t, X), ref.run(old(s), t, X))


@pytest.mark.parametrize("method", ["L", "C", "A"])
@given(data=series(), cuts=st.lists(st.integers(0, 90), max_size=6))
@settings(max_examples=30, deadline=None)
def test_micro_batches_equal_batch(method, data, cuts):
    t, X, s = data
    cleaner = PAIRS[method][0](s)
    rows = []
    bounds = [0, *sorted(c for c in cuts if c < len(t)), len(t)]
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if k % 2:
            for i in range(lo, hi):
                cleaner.push(t[i], X[i])
        else:
            cleaner.extend(t[lo:hi], X[lo:hi])
        rows.extend(cleaner.drain())
    cleaner.flush()
    rows.extend(cleaner.drain())
    batch = PAIRS[method][0](s)
    batch.extend(t, X)
    batch.flush()
    want = batch.drain()
    assert [(r[0], r[2]) for r in rows] == [(r[0], r[2]) for r in want]
    assert_identical([np.vstack([r[1] for r in rows])], [np.vstack([r[1] for r in want])])


@pytest.mark.parametrize("method", ["L", "C", "A"])
def test_long_series_equals_reference(method):
    """Past the core's append chunk, with bursts of dense sampling."""
    g = np.random.default_rng(5)
    n = 2500
    t = np.cumsum(g.choice([0.05, 1.0, 1.0, 2.0], n))
    X = np.cumsum(g.normal(0, 0.5, (n, 3)), axis=0)
    X[g.choice(n, 120, replace=False)] += g.normal(0, 10, (120, 3))
    s = SpeedConstraint(1.2, 6.0)
    new, old = PAIRS[method]
    assert_identical(run_batch(new(s), t, X), ref.run(old(s), t, X))


@pytest.mark.parametrize("fn", [mtcsc_l, mtcsc_c, mtcsc_a])
def test_batch_rejects_mismatched_lengths(fn):
    with pytest.raises(ValueError):
        fn(np.arange(3.0), np.zeros((2, 1)), SpeedConstraint(1, 1))


@pytest.mark.parametrize("method", ["L", "C", "A"])
def test_time_must_increase_across_pushes(method):
    cleaner = PAIRS[method][0](SpeedConstraint(1.0, 1.0))
    cleaner.extend([0.0, 1.0], np.zeros((2, 2)))
    cleaner.flush()
    with pytest.raises(ValueError):
        cleaner.push(1.0, np.zeros(2))
    with pytest.raises(ValueError):
        cleaner.extend([2.0, 2.0], np.zeros((2, 2)))
