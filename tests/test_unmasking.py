from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.special import expit

from videoanomaly import DetectorConfig, WindowBatch, score, synth, unmask, unmasking
from videoanomaly.features import CUBE_DIM, STACK, WORK_H, WORK_W, cube_grid
from videoanomaly.pipeline import FeatureStore, window_batch
from videoanomaly.unmasking import (
    GRAD_TOL,
    GRAM_MIN_RATIO,
    MAX_ITER,
    ClassifierState,
    UnmaskingProfile,
    eliminate_features,
    train_logistic,
)


def _separable_batch(n_per_class=10, dim=20, margin=2.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 0.3, (2 * n_per_class, dim))
    x[:n_per_class, 0] -= margin
    x[n_per_class:, 0] += margin
    y = np.r_[np.zeros(n_per_class), np.ones(n_per_class)]
    return WindowBatch(x, y)


def _state(weights, active=None):
    w = np.asarray(weights, dtype=np.float64)
    if active is None:
        active = np.arange(w.size)
    return ClassifierState(w, 0.0, np.asarray(active, dtype=np.intp))


def _eliminate_by_sort(state, m):
    """Reference elimination: stable argsorts and set differences."""
    active = state.active
    if active.size <= m:
        return np.empty(0, dtype=np.intp)
    wa = state.weights[active]
    half = m // 2
    # stable argsort on the negated key keeps ties in ascending-index order
    pos = active[wa > 0]
    picks_pos = pos[np.argsort(-wa[wa > 0], kind="stable")][:half]
    neg = active[wa < 0]
    picks_neg = neg[np.argsort(wa[wa < 0], kind="stable")][:half]
    removed = np.concatenate([picks_pos, picks_neg])
    deficit = m - removed.size
    if deficit:
        rest_mask = ~np.isin(active, removed, assume_unique=True)
        rest = active[rest_mask]
        fill = rest[np.argsort(-np.abs(wa[rest_mask]), kind="stable")][:deficit]
        removed = np.concatenate([removed, fill])
    return np.setdiff1d(active, removed, assume_unique=True)


def _fit_reference(xb, y, lam):
    """Reference primal fit: the infinity norm of the whole gradient is
    taken on every iteration."""
    n, d1 = xb.shape
    lip = lam + float((xb * xb).sum(axis=1).max()) / 4.0
    yf = y.astype(np.float64)
    w = np.zeros(d1)
    v = w
    rk = np.sqrt(lip / lam)
    beta = (rk - 1.0) / (rk + 1.0)
    for it in range(1, MAX_ITER + 1):
        resid = (unmasking._sigmoid(xb @ v) - yf) / n
        g = xb.T @ resid
        g[:-1] += lam * v[:-1]
        if np.abs(g).max() < GRAD_TOL:
            return v, it, False
        w_next = v - g / lip
        v = w_next + beta * (w_next - w)
        w = w_next
    return w, MAX_ITER, True


def _fit_gram_reference(gram, xw, dim, y, lam):
    """Reference Gram fit: the explicit gradient xw.T @ u is formed whenever
    the u.K.u bound admits convergence, whatever the bias component."""
    n = xw.shape[0]
    lip = lam + (float(gram.diagonal().max()) + 1.0) / 4.0
    yf = y.astype(np.float64)
    rk = np.sqrt(lip / lam)
    beta = (rk - 1.0) / (rk + 1.0)
    skip2 = (GRAD_TOL * (1.0 + 1e-6)) ** 2 * (dim + 1)
    a = np.zeros(n)
    b = 0.0
    av, bv = a, b
    for it in range(1, MAX_ITER + 1):
        resid = (unmasking._sigmoid(gram @ av + bv) - yf) / n
        u = resid + lam * av
        gb = float(resid.sum())
        if u @ (gram @ u) + gb * gb < skip2:
            if max(np.abs(xw.T @ u).max(), abs(gb)) < GRAD_TOL:
                return av, bv, it, False
        a_next = av - u / lip
        b_next = bv - gb / lip
        av = a_next + beta * (a_next - a)
        bv = b_next + beta * (b_next - b)
        a, b = a_next, b_next
    return a, b, MAX_ITER, True


def _train_primal(batch, active, lam):
    """Reference training: the primal solver on the explicit design matrix."""
    n = batch.x.shape[0]
    xb = np.empty((n, active.size + 1))
    xb[:, :-1] = batch.x[:, active]
    xb[:, -1] = 1.0
    wb, _, _ = _fit_reference(xb, batch.y, lam)
    weights = np.zeros(batch.dim)
    weights[active] = wb[:-1]
    accuracy = float(np.mean((xb @ wb > 0.0) == (batch.y == 1)))
    return ClassifierState(weights, float(wb[-1]), active), accuracy


def _unmask_primal(batch, k=10, m=50, lam=0.1):
    """Reference unmasking loop over the primal solver and sort-based
    elimination; returns the profile and the active set after each loop."""
    active = np.arange(batch.dim, dtype=np.intp)
    accuracies, counts, kept = [], [], []
    for _ in range(k):
        counts.append(int(active.size))
        if active.size == 0:
            accuracies.append(0.5)
            continue
        state, acc = _train_primal(batch, active, lam)
        accuracies.append(acc)
        active = _eliminate_by_sort(state, m)
        kept.append(active)
    return UnmaskingProfile(accuracies, counts), kept


def _unmask_recorded(monkeypatch, batch, k=10, m=50, lam=0.1):
    """unmask() with its Gram fits counted and its active sets recorded."""
    gram_fits, kept = [], []
    fit_gram, eliminate = unmasking._fit_gram, unmasking.eliminate_features

    def counting_fit_gram(*args):
        gram_fits.append(args[2])  # |A| of the fit
        return fit_gram(*args)

    def recording_eliminate(state, m):
        kept.append(eliminate(state, m))
        return kept[-1]

    monkeypatch.setattr(unmasking, "_fit_gram", counting_fit_gram)
    monkeypatch.setattr(unmasking, "eliminate_features", recording_eliminate)
    return unmask(batch, k=k, m=m, lam=lam), kept, gram_fits


def _assert_matches_primal(monkeypatch, batch, k=10, m=50, lam=0.1):
    prof, kept, gram_fits = _unmask_recorded(monkeypatch, batch, k, m, lam)
    oracle, oracle_kept = _unmask_primal(batch, k, m, lam)
    assert np.array_equal(prof.accuracies, oracle.accuracies)
    assert prof.active_counts == oracle.active_counts
    assert len(kept) == len(oracle_kept)
    for got, want in zip(kept, oracle_kept):
        assert np.array_equal(got, want)
    return prof, gram_fits


def _motion_batch(seed, n):
    """The first n cube descriptors of a noise stack, halves labeled 0 and 1."""
    rows, _ = cube_grid(np.random.default_rng(seed).random((STACK, WORK_H, WORK_W)))
    return WindowBatch(rows[:n], np.r_[np.zeros(n // 2), np.ones(n - n // 2)])


def _relu_noise_batch(n, dim, seed, shift=0.0):
    """L2-normalized rectified noise, the shape of appearance features;
    ``shift`` adds a rectified offset to the second half."""
    rng = np.random.default_rng(seed)
    x = np.maximum(rng.normal(size=(n, dim)), 0.0)
    x[n // 2:] += shift * np.maximum(rng.normal(size=dim), 0.0)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return WindowBatch(x, np.r_[np.zeros(n // 2), np.ones(n - n // 2)])


# ----------------------------------------------------------------- training


def _twin_halves_batch():
    rng = np.random.default_rng(1)
    half = rng.normal(size=(10, 30))
    return WindowBatch(np.vstack([half, half]), np.r_[np.zeros(10), np.ones(10)])


def test_twin_halves_sit_at_chance_exactly():
    """Identical halves cancel the gradient at the zero start, so training
    stops immediately and every loop scores exactly 0.5."""
    prof = unmask(_twin_halves_batch(), k=10, m=4)
    assert np.array_equal(prof.accuracies, np.full(10, 0.5))
    assert score(prof) == 0.5


def test_twin_halves_stop_after_one_iteration():
    # D = 30, 26, 22 against n = 20 train in Gram space, 18 down to 2 in the
    # primal; the last two loops find the active set empty and fit nothing
    prof = unmask(_twin_halves_batch(), k=10, m=4)
    assert prof.active_counts == [30, 26, 22, 18, 14, 10, 6, 2, 0, 0]
    assert prof.route == ["gram"] * 3 + ["primal"] * 5 + [None] * 2
    assert prof.iterations == [1] * 8 + [0] * 2
    assert prof.capped == [False] * 10


@pytest.mark.parametrize("dim,route", [(8, "primal"), (40, "gram")])
def test_tiny_lambda_on_separable_data_hits_the_cap(dim, route):
    # separable halves with almost no regularization: the weights keep
    # growing and the gradient never drops below GRAD_TOL in MAX_ITER steps
    batch = _separable_batch(dim=dim)
    prof = unmask(batch, k=1, m=2, lam=1e-4)
    assert prof.route == [route]
    assert prof.capped == [True]
    assert prof.iterations == [MAX_ITER]
    state, _ = train_logistic(batch, np.arange(dim), lam=1e-4)
    assert (state.iterations, state.capped, state.route) == (MAX_ITER, True, route)


@pytest.mark.parametrize("dim,route", [(8, "primal"), (40, "gram")])
def test_saturated_fit_raises_no_overflow_warning(dim, route):
    # scaled separable rows drive training scores past -710, where the
    # sigmoid's exp(-z) overflows to inf and gives exactly 0, as expit does;
    # the fit must say nothing about it
    batch = _separable_batch(dim=dim, margin=10.0)
    batch.x *= 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = unmask(batch, k=1, m=2, lam=1e-4)
        state, acc = train_logistic(batch, np.arange(dim), lam=1e-4)
    assert prof.route == [route] and prof.capped == [True]
    scores = batch.x @ state.weights + state.bias
    assert scores.min() < -710.0 and acc == 1.0


def test_separable_batch_trains_to_perfect_accuracy():
    batch = _separable_batch()
    state, acc = train_logistic(batch, np.arange(batch.dim), lam=0.1)
    assert acc == 1.0
    assert state.weights[0] > 0  # the margin feature carries the signal
    assert state.weights.shape == (batch.dim,)


def test_weights_are_zero_outside_active_set():
    batch = _separable_batch(dim=8)
    active = np.array([0, 3, 5])
    state, _ = train_logistic(batch, active, lam=0.1)
    off = np.setdiff1d(np.arange(8), active)
    assert np.all(state.weights[off] == 0.0)


def test_training_is_deterministic():
    batch = _separable_batch(seed=5)
    a = unmask(batch, k=6, m=4)
    b = unmask(batch, k=6, m=4)
    assert np.array_equal(a.accuracies, b.accuracies)
    assert a.active_counts == b.active_counts


def test_label_swap_is_symmetric():
    batch = _separable_batch(seed=3)
    swapped = WindowBatch(batch.x.copy(), 1 - batch.y)
    a = unmask(batch, k=5, m=4)
    b = unmask(swapped, k=5, m=4)
    assert np.allclose(a.accuracies, b.accuracies, atol=1e-12)


def test_heavy_regularization_collapses_to_base_rate():
    # with lam huge the weights vanish; the unregularized bias then predicts
    # the majority class, so accuracy is the base rate
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 6))
    y = np.r_[np.zeros(4), np.ones(6)]
    _, acc = train_logistic(WindowBatch(x, y), np.arange(6), lam=1e6)
    assert acc == 0.6


def test_single_class_batch_raises():
    x = np.random.default_rng(0).normal(size=(6, 4))
    with pytest.raises(ValueError, match="both classes"):
        train_logistic(WindowBatch(x, np.zeros(6)), np.arange(4), lam=0.1)


def test_empty_active_set_raises():
    batch = _separable_batch()
    with pytest.raises(ValueError):
        train_logistic(batch, np.empty(0, dtype=np.intp), lam=0.1)


def test_nonpositive_lambda_raises():
    batch = _separable_batch()
    subnormal = (1e-310, np.nextafter(unmasking.MIN_LAM, 0.0), 5e-324)
    for lam in (0.0, -0.1, float("nan"), float("inf"), *subnormal):
        with pytest.raises(ValueError):
            train_logistic(batch, np.arange(batch.dim), lam=lam)
        with pytest.raises(ValueError):
            unmask(batch, lam=lam)


def test_smallest_normal_lambda_fits():
    """Below the smallest normal float, lip / lam overflows in both fits and
    every loop would run to the cap and score chance, so a subnormal lambda
    raises; the smallest normal one still fits a separable batch."""
    batch = _separable_batch(dim=30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = unmask(batch, k=3, m=2, lam=unmasking.MIN_LAM)
    assert prof.accuracies.tolist() == [1.0, 1.0, 1.0]
    assert prof.capped == [False] * 3
    DetectorConfig(lam=unmasking.MIN_LAM)


@pytest.mark.parametrize("route", ["gram", "primal"])
def test_smallest_normal_lambda_fits_large_rows(monkeypatch, route):
    """At lam = MIN_LAM, lip / lam overflows once a row's squared norm
    passes about 16. The momentum is then 1.0, the value it rounds to for
    any lip / lam above 2**106, not inf / inf = NaN: the fit stops as it
    does at lam = 1e-300 instead of running to the cap at chance."""
    if route == "primal":
        monkeypatch.setattr(unmasking, "GRAM_MIN_RATIO", 100)
    batch = _separable_batch(n_per_class=6, dim=30)
    batch.x *= 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = unmask(batch, k=3, m=2, lam=unmasking.MIN_LAM)
    reference = unmask(batch, k=3, m=2, lam=1e-300)
    assert prof.route == [route] * 3 and prof.capped == [False] * 3
    assert prof.accuracies.tolist() == reference.accuracies.tolist() == [1.0] * 3
    assert prof.iterations == reference.iterations
    assert unmasking._momentum(float(np.finfo(np.float64).max), unmasking.MIN_LAM) == 1.0
    for lip, lam in [(1.5, 0.1), (3.0, 1e-4), (1e10, 1e-200)]:
        rk = np.sqrt(lip / lam)
        assert unmasking._momentum(lip, lam) == (rk - 1.0) / (rk + 1.0)


# ------------------------------------------------ Gram solver for wide batches


@pytest.mark.parametrize("seed,shift", [(0, 0.0), (1, 0.05), (2, 0.3)])
def test_gram_path_matches_primal_at_appearance_shape(monkeypatch, seed, shift):
    batch = _relu_noise_batch(20, 12544, seed, shift)
    _, gram_fits = _assert_matches_primal(monkeypatch, batch)
    assert len(gram_fits) == 10  # every loop stays wide


def _unmask_gram_states(monkeypatch, batch, k=10):
    """unmask() with the (active, xw, K) of every train_logistic call."""
    calls = []
    train = unmasking.train_logistic

    def recording_train(batch, active, lam, _gram=None):
        xw, kmat = _gram
        calls.append((active.copy(), xw.copy(), kmat.copy()))
        return train(batch, active, lam, _gram=_gram)

    monkeypatch.setattr(unmasking, "train_logistic", recording_train)
    return unmask(batch, k=k), calls


def test_downdated_gram_tracks_rebuilt_gram(monkeypatch):
    # K is built once and downdated by the removed columns each loop; over
    # all ten loops it stays within rounding of X_A X_A^T rebuilt from scratch
    batch = _relu_noise_batch(20, 12544, seed=0)
    _, calls = _unmask_gram_states(monkeypatch, batch)
    assert len(calls) == 10
    for active, xw, kmat in calls:
        xa = batch.x[:, active]
        exact = xa @ xa.T
        assert np.abs(kmat - exact).max() <= 1e-14 * np.abs(exact).max()
        # the working copy is X with exactly the eliminated columns zeroed
        assert np.array_equal(xw[:, active], xa)
        assert not np.delete(xw, active, axis=1).any()


def test_unmask_trains_once_per_loop_and_leaves_batch_untouched(monkeypatch):
    batch = _relu_noise_batch(20, 12544, seed=1, shift=0.05)
    before = batch.x.copy()
    _, calls = _unmask_gram_states(monkeypatch, batch)
    assert len(calls) == 10  # one train_logistic call per trained loop
    assert batch.x.tobytes() == before.tobytes()  # bit-for-bit: -0.0 != 0.0 here


@pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
def test_gram_fit_matches_primal_weights(lam):
    # the two solvers differ only in rounding (about 1e-15 of max |w|);
    # stopping one iterate early or late moves the weights far more
    batch = _relu_noise_batch(20, 12544, seed=3, shift=0.2)
    active = np.arange(40, 12544)
    state, acc = train_logistic(batch, active, lam)
    oracle, oracle_acc = _train_primal(batch, active, lam)
    assert acc == oracle_acc
    scale = np.abs(oracle.weights).max()
    assert np.abs(state.weights - oracle.weights).max() <= 1e-12 * scale
    assert abs(state.bias - oracle.bias) <= 1e-12 * max(scale, abs(oracle.bias))
    assert np.all(state.weights[:40] == 0.0)


def _planted_batch():
    """Three strongly separating features planted among 2997 noise ones."""
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 0.3, (20, 3000))
    x[:, :3] += np.r_[np.full(10, -1.0), np.full(10, 1.0)][:, None]
    return WindowBatch(x, np.r_[np.zeros(10), np.ones(10)])


def test_gram_path_matches_primal_on_planted_feature(monkeypatch):
    prof, gram_fits = _assert_matches_primal(monkeypatch, _planted_batch(), k=6, m=2)
    assert len(gram_fits) == 6
    assert prof.accuracies[0] == 1.0


def test_gram_path_twin_halves_sit_at_chance_exactly(monkeypatch):
    rng = np.random.default_rng(12)
    half = np.maximum(rng.normal(size=(10, 3200)), 0.0)
    batch = WindowBatch(np.vstack([half, half]), np.r_[np.zeros(10), np.ones(10)])
    prof, gram_fits = _assert_matches_primal(monkeypatch, batch)
    assert len(gram_fits) == 10
    assert np.array_equal(prof.accuracies, np.full(10, 0.5))


@pytest.mark.parametrize("dim,gram_loops", [(1023, 0), (1024, 1)])
def test_gram_switch_boundary_matches_primal(monkeypatch, dim, gram_loops):
    # n puts D = 1024 exactly at the switch: only the first loop of the wider
    # batch takes the Gram path
    n = 1024 // GRAM_MIN_RATIO
    assert n * GRAM_MIN_RATIO == 1024
    batch = _relu_noise_batch(n, dim, seed=13, shift=0.1)
    _, gram_fits = _assert_matches_primal(monkeypatch, batch, k=4, m=2)
    assert len(gram_fits) == gram_loops


def test_motion_batch_matches_primal_across_the_switch(monkeypatch):
    # a dense-motion batch, 192 noise cubes against D = 500: the loops with
    # |A| >= GRAM_MIN_RATIO * n train on the downdated Gram matrix, the
    # narrower ones in the primal, and the profile is the primal oracle's
    batch = _motion_batch(14, 192)
    _, gram_fits = _assert_matches_primal(monkeypatch, batch)
    dims = range(CUBE_DIM, 0, -50)
    assert gram_fits == [d for d in dims if d >= GRAM_MIN_RATIO * 192]
    assert gram_fits  # the motion shape reaches the Gram route


def _same_bits(got, want):
    """Tuples of arrays, floats, ints and bools, equal bit for bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, (bool, int)):
            assert type(g) is type(w) and g == w
        else:
            assert np.asarray(g, dtype=np.float64).tobytes() == np.asarray(
                w, dtype=np.float64
            ).tobytes()


def _unmask_checked_fits(monkeypatch, batch, lam):
    """unmask() with every _fit and _fit_gram call compared, on the same
    arguments, against the reference stopping rule; returns the profile and
    the (route, iterations) of each fit."""
    fits = []
    fit, fit_gram = unmasking._fit, unmasking._fit_gram

    def checked_fit(xb, y, lam):
        got = fit(xb, y, lam)
        _same_bits(got, _fit_reference(xb, y, lam))
        fits.append(("primal", got[1]))
        return got

    def checked_fit_gram(gram, xw, dim, y, lam):
        got = fit_gram(gram, xw, dim, y, lam)
        _same_bits(got, _fit_gram_reference(gram, xw, dim, y, lam))
        fits.append(("gram", got[2]))
        return got

    monkeypatch.setattr(unmasking, "_fit", checked_fit)
    monkeypatch.setattr(unmasking, "_fit_gram", checked_fit_gram)
    return unmask(batch, lam=lam), fits


@pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
@pytest.mark.parametrize(
    "make_batch",
    [
        lambda: _relu_noise_batch(20, 12544, seed=15, shift=0.05),
        lambda: _motion_batch(16, 192),
        lambda: _motion_batch(16, 36),
    ],
    ids=["appearance-20x12544", "motion-192x500", "motion-36x500"],
)
def test_stopping_cascade_matches_one_step_test(monkeypatch, make_batch, lam):
    # the bias-first stopping test ends every fit at the same iterate, with
    # the same iteration count, as testing the whole gradient's norm
    batch = make_batch()
    prof, fits = _unmask_checked_fits(monkeypatch, batch, lam)
    assert len(fits) == 10
    assert prof.route == [route for route, _ in fits]
    assert prof.iterations == [its for _, its in fits]
    n = batch.x.shape[0]
    assert prof.route == [
        "gram" if d >= GRAM_MIN_RATIO * n else "primal" for d in prof.active_counts
    ]


# ---------------------------------------------- sigmoid against scipy's expit


def _ulps(got, want):
    """Distance in units in the last place between non-negative floats."""
    return np.abs(got.view(np.int64) - want.view(np.int64))


def test_sigmoid_is_within_3_ulp_of_expit():
    rng = np.random.default_rng(17)
    z = np.concatenate([rng.normal(0.0, 5.0, 500_000), rng.uniform(-740.0, 740.0, 500_000)])
    with np.errstate(over="ignore"):
        got = unmasking._sigmoid(z)
    assert _ulps(got, expit(z)).max() <= 3


def test_sigmoid_equals_expit_at_special_values_and_saturation():
    z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 36.8, 40.0, 745.0, 800.0,
                  -709.8, -710.0, -745.0, -800.0, -1e308])
    with np.errstate(over="ignore"):
        got = unmasking._sigmoid(z)
    assert got.tobytes() == expit(z).tobytes()
    assert got[:4].tolist() == [0.5, 0.5, 1.0, 0.0] and np.isnan(got[4])
    assert np.all(got[5:9] == 1.0) and np.all(got[10:] == 0.0)


def _event_batch():
    """Bin 0 of a moving-block window whose second half speeds up: a
    partly separable batch (accuracies between 0.5 and 1)."""
    store = FeatureStore(DetectorConfig())
    for frame in synth.moving_block_video(frame_count=80, fast_range=(60, 80))[0]:
        store.add(frame, None)
    return window_batch((50, 70), "motion", store)[0]


@pytest.mark.parametrize(
    "make_batch",
    [
        lambda: _motion_batch(18, 192),
        lambda: _motion_batch(18, 36),
        lambda: _relu_noise_batch(20, 12544, seed=19, shift=0.05),
        _planted_batch,
        _event_batch,
    ],
    ids=["motion-192x500", "motion-36x500", "appearance-20x12544", "planted", "event"],
)
def test_unmask_with_expit_matches_numpy_sigmoid(monkeypatch, make_batch):
    # the package's sigmoid may differ from scipy's expit in the last bits;
    # the profiles it gives must not
    batch = make_batch()
    got = unmask(batch)
    # both fits reach the sigmoid through _sigmoid_of_neg(t) = sigma(-t)
    monkeypatch.setattr(unmasking, "_sigmoid_of_neg", lambda t: expit(-t))
    want = unmask(batch)
    assert np.array_equal(got.accuracies, want.accuracies)
    assert got.active_counts == want.active_counts
    assert (got.iterations, got.capped, got.route) == (
        want.iterations, want.capped, want.route)
    if make_batch is _event_batch:
        assert 0.5 < score(got) < 1.0


def test_batch_shape_validation():
    with pytest.raises(ValueError):
        WindowBatch(np.zeros((4, 3)), np.zeros(5))
    with pytest.raises(ValueError):
        WindowBatch(np.zeros(4), np.zeros(4))


# -------------------------------------------------------------- elimination


def test_eliminate_takes_extremes_from_both_signs():
    remaining = eliminate_features(_state([3.0, -2.0, 1.0, -1.0, 0.0, 0.0]), m=2)
    assert list(remaining) == [2, 3, 4, 5]


def test_eliminate_all_zero_weights_falls_back_to_index_order():
    remaining = eliminate_features(_state([0.0, 0.0, 0.0, 0.0]), m=2)
    assert list(remaining) == [2, 3]


def test_eliminate_fills_deficit_by_magnitude():
    # only one strictly positive and no negative weight: the deficit is
    # filled by the largest remaining |weight|
    remaining = eliminate_features(_state([5.0, 0.0, 0.0, 0.25]), m=4)
    assert list(remaining) == []
    # picks: +5.0, +0.5; deficit of 2 filled by |0.25| then the first zero
    remaining = eliminate_features(_state([5.0, 0.0, 0.0, 0.25, 0.5, 0.0]), m=4)
    assert list(remaining) == [2, 5]


def test_eliminate_ties_break_to_lower_index():
    remaining = eliminate_features(_state([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]), m=2)
    assert list(remaining) == [1, 2, 4, 5]


def test_eliminate_respects_active_subset():
    state = _state([9.0, 9.0, 1.0, -1.0, 0.0], active=[2, 3, 4])
    remaining = eliminate_features(state, m=2)
    assert list(remaining) == [4]


def test_eliminate_exhausted_set_returns_empty():
    remaining = eliminate_features(_state([1.0, -1.0]), m=2)
    assert remaining.size == 0 and remaining.dtype == np.intp


def test_eliminate_matches_sort_oracle():
    """Randomized differential test against the sort-based reference,
    heavy on ties: integer weights, all-zero weights, one sign only."""
    rng = np.random.default_rng(20)
    for case in range(3000):
        dim = int(rng.integers(1, 80))
        active = np.flatnonzero(rng.random(dim) < rng.uniform(0.3, 1.0))
        if active.size == 0:
            active = np.array([dim - 1])
        kind = case % 5
        if kind == 0:
            w = rng.normal(size=dim)
        elif kind == 1:
            w = rng.integers(-3, 4, dim).astype(np.float64)
        elif kind == 2:
            w = np.zeros(dim)
        elif kind == 3:
            w = rng.integers(0, 3, dim).astype(np.float64)
        else:
            w = -rng.integers(0, 3, dim).astype(np.float64)
        m = 2 * int(rng.integers(1, max(2, active.size // 2 + 2)))
        state = _state(w, active)
        got = eliminate_features(state, m)
        want = _eliminate_by_sort(state, m)
        assert got.dtype == np.intp
        assert np.array_equal(got, want), (case, w, active, m)


def test_eliminate_validates_m():
    for m in (0, 1, 3):
        with pytest.raises(ValueError):
            eliminate_features(_state([1.0, 2.0, 3.0, 4.0]), m=m)


# ------------------------------------------------------------ full unmasking


def test_profile_counts_shrink_by_m():
    batch = _separable_batch(n_per_class=8, dim=30, seed=6)
    prof = unmask(batch, k=5, m=6)
    assert prof.active_counts == [30, 24, 18, 12, 6]
    assert prof.accuracies.shape == (5,)
    assert prof.accuracies[0] == 1.0


def test_exhaustion_pads_with_chance():
    x = np.r_[np.full((5, 1), -1.0), np.full((5, 1), 1.0)]
    batch = WindowBatch(x, np.r_[np.zeros(5), np.ones(5)])
    prof = unmask(batch, k=3, m=2)
    assert prof.accuracies[0] == 1.0
    assert np.array_equal(prof.accuracies[1:], [0.5, 0.5])
    assert prof.active_counts == [1, 0, 0]


def test_degenerate_window_scores_chance():
    x = np.random.default_rng(2).normal(size=(3, 10))
    batch = WindowBatch(x, np.array([0, 0, 1]))  # one abnormal example only
    prof = unmask(batch, k=4, m=2)
    assert np.array_equal(prof.accuracies, np.full(4, 0.5))
    assert prof.iterations == [0] * 4  # no loop fits
    assert prof.capped == [False] * 4
    assert prof.route == [None] * 4


def test_unmask_validates_arguments():
    batch = _separable_batch()
    with pytest.raises(ValueError):
        unmask(batch, k=0)
    with pytest.raises(ValueError):
        unmask(batch, m=3)


def test_score_is_mean_of_profile():
    batch = _separable_batch(seed=8)
    prof = unmask(batch, k=4, m=4)
    assert score(prof) == pytest.approx(float(prof.accuracies.mean()), abs=0)


def test_strong_signal_survives_many_eliminations():
    """Redundant high-margin features keep the profile near 1 as single
    features are knocked out; this is the separability that unmasking
    turns into a high anomaly score."""
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 0.2, (20, 12))
    x[:10] -= 1.5
    x[10:] += 1.5
    batch = WindowBatch(x, np.r_[np.zeros(10), np.ones(10)])
    prof = unmask(batch, k=5, m=2)
    assert np.all(prof.accuracies == 1.0)
    assert score(prof) == 1.0
