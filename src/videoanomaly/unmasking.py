"""Unmasking: iterative classifier training with feature elimination.

For one window's labeled examples (first half normal = 0, second half
abnormal = 1), train an L2-regularized logistic classifier, record its
training accuracy, remove the m most discriminative features (m/2 largest
positive weights, m/2 most negative), and repeat k times. Two easily
separable halves stay separable as features are knocked out, so the mean
of the k accuracies is the window's anomaly score; near-identical halves
sit at chance (0.5) throughout.

Training is deterministic by construction: zero initialization, full-batch
accelerated gradient descent with a fixed step rule, a fixed stopping
test (gradient infinity-norm < 1e-6 or 500 iterations), and total tie
ordering in both prediction (score exactly 0 predicts 0) and elimination
(ties broken by lower feature index). Identical batches produce
bit-identical profiles.

The classifier's sigmoid is numpy's 1 / (1 + exp(-z)), so scoring loads
no scipy module. It is within 3 ulp of ``scipy.special.expit`` and
differs from it on about 2% of inputs, because numpy's vectorized exp
rounds differently from the C library's; the tests hold that bound and
check that ``unmask`` gives identical profiles with ``expit`` in its
place. Below z ~ -709.78, exp(-z) overflows to inf and the sigmoid is
exactly 0, as ``expit`` is; the fits silence that overflow warning.

Two solvers run the same descent. The primal one (``_fit``) iterates on
the |A|+1 weights against the design matrix. The Gram one (``_fit_gram``)
serves every batch with |A| >= GRAM_MIN_RATIO * n, that is, whenever its
n x n system is the smaller one: descent starts at zero and the loss
gradient lies in the row span of X_A, so every iterate is w = X_A^T a for
n coefficients a (the representer theorem), and the recursion runs on
(a, b) against K = X_A X_A^T at O(n^2) per iteration. Its stopping test
is still the primal infinity-norm test, taken in three steps from the
cheapest: the bias component |sum(resid)| must be below the tolerance,
then the Gram norm bound ||g||_2 / sqrt(|A|+1), a lower bound on
||g||_inf, must be too, and only then is the explicit gradient X_A^T u
formed and its infinity norm tested. Each step can only decide "not
converged", so an iterate stops exactly when the one-step test would
stop it. The two solvers therefore stop at the same iterate up to
rounding, and the accuracy profiles they give on the shipped workloads
are identical; the tests hold the primal route as the oracle. Both
solvers also report how many gradients they evaluated and whether they
ran out of iterations, and ``unmask`` keeps both per loop with the route.

Across the wide loops of one ``unmask`` the Gram route keeps its state
instead of rebuilding it: a private copy of X whose eliminated columns
are set to zero, and K, built once and downdated by K -= X_R X_R^T for
the m removed columns X_R before they are zeroed. A zeroed column adds
exactly 0 to every product, so the copy stands in for X_A with no gather
and its products give the full weight vector with no scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_ITER = 500
GRAD_TOL = 1e-6
CHANCE = 0.5
# the smallest regularization strength accepted, the smallest normal float
MIN_LAM = float(np.finfo(np.float64).tiny)
# a batch with fewer examples in either class is degenerate: every loop
# records CHANCE without a fit
MIN_PER_CLASS = 2
# Shape rule for the Gram solver: |A| >= GRAM_MIN_RATIO * n, so a fit runs
# in Gram space whenever its n x n system is the smaller one. Timed per loop
# on batches captured from seed-0 passes (2 cores, OpenBLAS on one thread;
# median of 7 calls, range over 14 batches), primal fit against Gram fit,
# where a Gram loop also pays the downdate that precedes it:
# - n=192 (dense_motion; downdate 130-390 us): 1436-2495 against 343-809 us
#   at D=500, 666-1411 against 321-630 us at D=350, 404-706 against
#   285-533 us at D=200, and 320-574 against 324-583 us at D=150, below n.
# - n=36 (non-degenerate long_stream; downdate 13-21 us): 277-584 against
#   190-321 us at D=400, 106-230 against 109-241 us at D=50.
# Over the 84 batches of 120 seed-0 dense_motion frames, unmask took a
# median 0.56 s at ratio 1 against 0.67 s at ratio 2 (five interleaved
# passes each); over the 50 non-degenerate batches (n=6..36) of 6000
# long_stream frames the two were even, and the profiles were identical.
# Every appearance loop (n=20, D=12544) is wide.
GRAM_MIN_RATIO = 1


@dataclass
class WindowBatch:
    """Labeled examples of one (window, bin, channel) triple.

    ``x`` is (n, D) float64, ``y`` is (n,) in {0, 1} following the
    window-half rule (first-half examples 0, second-half 1).
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.uint8)
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise ValueError(
                f"batch shapes disagree: x {self.x.shape}, y {self.y.shape}"
            )

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def class_counts(self) -> tuple[int, int]:
        pos = int(self.y.sum())
        return len(self.y) - pos, pos


@dataclass
class ClassifierState:
    """Trained linear classifier restricted to an active feature set.

    ``weights`` spans all D features and is exactly 0 outside ``active``;
    ``bias`` is never regularized and never eliminated. ``active`` is a
    sorted int array. ``iterations`` counts the gradient evaluations of
    the fit, ``capped`` is set when it stopped at MAX_ITER unconverged,
    and ``route`` names its solver, "primal" or "gram".
    """

    weights: np.ndarray
    bias: float
    active: np.ndarray
    iterations: int = 0
    capped: bool = False
    route: str | None = None


@dataclass
class UnmaskingProfile:
    """The k training accuracies of one unmasking run.

    ``active_counts[i]`` is the active-set size when loop i trained
    (D, D-m, D-2m, ... for a non-degenerate run). ``iterations``,
    ``capped`` and ``route`` are the fit's per loop (see
    ``ClassifierState``); a loop scored at chance without a fit records
    0, False and None. ``unmask`` fills them; they are empty in a profile
    built without them.
    """

    accuracies: np.ndarray
    active_counts: list[int]
    iterations: list[int] = field(default_factory=list)
    capped: list[bool] = field(default_factory=list)
    route: list[str | None] = field(default_factory=list)

    def __post_init__(self):
        self.accuracies = np.asarray(self.accuracies, dtype=np.float64)


def _scalars(*values: float) -> list[np.ndarray]:
    """``values`` as 0-d float64 arrays, for the fits' array arithmetic.

    As a ufunc operand a 0-d array costs what any array does, while a
    Python or numpy scalar is converted on every call: about 0.23 us more
    on a 0.4 us product of 20 elements. The values, and so every result,
    are unchanged.
    """
    return [np.array(float(v)) for v in values]


_ONE = np.array(1.0)  # the sigmoid's 1, a 0-d array for the same reason
_ONE.flags.writeable = False


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-z)), in a new array."""
    return _sigmoid_of_neg(np.negative(z))


def _sigmoid_of_neg(t: np.ndarray) -> np.ndarray:
    """``_sigmoid(-t)``, computed in place in ``t`` and returned.

    Call it under ``np.errstate(over="ignore")``: above t ~ 709.78, exp
    overflows to inf and the result is exactly 0, as expit's is.
    """
    np.exp(t, out=t)
    t += _ONE
    return np.divide(_ONE, t, out=t)


def _momentum(lip: float, lam: float) -> float:
    """Nesterov's momentum (r - 1) / (r + 1) for r = sqrt(lip / lam); 1.0,
    its value for every r above 2**53, where lip / lam overflows to inf."""
    rk = np.sqrt(float(lip) / float(lam))  # Python floats overflow silently
    return 1.0 if np.isinf(rk) else float((rk - 1.0) / (rk + 1.0))


def _fit(xb: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, int, bool]:
    """Minimize mean logistic loss + (lam/2)*||w||^2 (bias unregularized).

    ``xb`` is the design matrix with a trailing all-ones bias column.
    Nesterov-accelerated full-batch descent from zero: step 1/L with
    L = lam + max_i ||x_i||^2 / 4 (a Lipschitz bound on the gradient) and
    constant momentum _momentum(L, lam); lam > 0.
    Returns the weights, the number of gradient evaluations and whether
    the fit stopped at MAX_ITER without converging. The bias component is
    tested before the whole gradient: it is a lower bound on the
    infinity norm, so the fit stops exactly when the norm test alone
    would stop it.
    """
    n, d1 = xb.shape
    lip = lam + float((xb * xb).sum(axis=1).max()) / 4.0
    yf = y.astype(np.float64)
    w = np.zeros(d1)
    v = w
    beta = _momentum(lip, lam)
    nf, lam_a, lip_a, beta_a = _scalars(n, lam, lip, beta)
    with np.errstate(over="ignore"):
        for it in range(1, MAX_ITER + 1):
            resid = _sigmoid(xb @ v)
            resid -= yf
            resid /= nf
            g = xb.T @ resid
            g[:-1] += lam_a * v[:-1]
            if abs(g[-1]) < GRAD_TOL and np.abs(g).max() < GRAD_TOL:
                return v, it, False
            w_next = v - g / lip_a
            v = w_next + beta_a * (w_next - w)
            w = w_next
    return w, MAX_ITER, True


def _fit_gram(
    gram: np.ndarray, xw: np.ndarray, dim: int, y: np.ndarray, lam: float
) -> tuple[np.ndarray, float, int, bool]:
    """``_fit`` in coefficient space: returns (a, b, iterations, capped)
    with weights xw.T @ a.

    ``xw`` is X with every column outside the active set zeroed, ``dim``
    the active-set size |A| and ``gram`` is xw @ xw.T, which ``unmask``
    keeps across loops and downdates rather than rebuilds. With
    w = xw.T @ a the primal gradient is (xw.T @ u, sum(resid)) for
    u = resid + lam * a, exactly 0 on the zeroed columns, so every step of
    the primal recursion maps onto a and b. The stopping test runs from
    the cheapest lower bound on ||g||_inf to the exact norm, and the fit
    cannot have converged while any bound clears GRAD_TOL: first the bias
    component |sum(resid)|, a scalar each iteration has anyway; then
    ||g||_2 / sqrt(|A|+1) from ||g||_2^2 = u.K.u + sum(resid)^2 (with a
    1e-6 relative margin for rounding); and only then the explicit
    gradient, an n x D product.
    """
    n = xw.shape[0]
    lip = lam + (float(gram.diagonal().max()) + 1.0) / 4.0
    yf = y.astype(np.float64)
    beta = _momentum(lip, lam)
    skip2 = (GRAD_TOL * (1.0 + 1e-6)) ** 2 * (dim + 1)
    a = np.zeros(n)
    b = 0.0
    av, bv = a, b
    nf, lam_a, lip_a, beta_a = _scalars(n, lam, lip, beta)
    with np.errstate(over="ignore"):
        for it in range(1, MAX_ITER + 1):
            # -bv - K.a is -(K.a + bv) exactly: rounding is sign-symmetric
            nz = gram @ av
            resid = _sigmoid_of_neg(np.subtract(-bv, nz, out=nz))
            resid -= yf
            resid /= nf
            u = resid + lam_a * av
            gb = float(resid.sum())
            if (
                abs(gb) < GRAD_TOL
                and u @ (gram @ u) + gb * gb < skip2
                and np.abs(xw.T @ u).max() < GRAD_TOL
            ):
                return av, bv, it, False
            a_next = av - u / lip_a
            b_next = bv - gb / lip
            av = a_next + beta_a * (a_next - a)
            bv = b_next + beta * (b_next - b)
            a, b = a_next, b_next
    return a, b, MAX_ITER, True


def _gram_state(x: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram route's loop state: (xw, K) with xw a copy of ``x`` zeroed
    outside ``active`` and K = xw @ xw.T."""
    keep = np.zeros(x.shape[1])
    keep[active] = 1.0
    xw = x * keep
    return xw, xw @ xw.T


def train_logistic(
    batch: WindowBatch,
    active: np.ndarray,
    lam: float,
    _gram: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[ClassifierState, float]:
    """Train on the active features; return the state and training accuracy.

    Accuracy counts hard predictions: label 1 iff linear score > 0, a
    score of exactly 0 predicts 0. Batches with |active| >= GRAM_MIN_RATIO
    * n train in Gram space (``_fit_gram``), the rest in the primal.
    ``_gram`` is the Gram route's (xw, K) for this ``active``, kept by
    ``unmask`` across loops; without it the state is built here. The
    state also carries the fit's iteration count, cap flag and route.
    """
    active = np.asarray(active, dtype=np.intp)
    if active.size == 0:
        raise ValueError("active feature set is empty")
    if not MIN_LAM <= lam < np.inf:
        raise ValueError(
            f"regularization strength must be > 0 and finite (at least {MIN_LAM!r}), got {lam}"
        )
    n0, n1 = batch.class_counts()
    if n0 == 0 or n1 == 0:
        raise ValueError(f"batch needs both classes, got {n0} normal / {n1} abnormal")
    n = batch.x.shape[0]
    if active.size >= GRAM_MIN_RATIO * n:
        xw, gram = _gram if _gram is not None else _gram_state(batch.x, active)
        coef, bias, iterations, capped = _fit_gram(gram, xw, active.size, batch.y, lam)
        weights = xw.T @ coef
        scores = gram @ coef + bias
        route = "gram"
    else:
        xb = np.empty((n, active.size + 1))
        xb[:, :-1] = batch.x[:, active]
        xb[:, -1] = 1.0
        wb, iterations, capped = _fit(xb, batch.y, lam)
        weights = np.zeros(batch.dim)
        weights[active] = wb[:-1]
        bias = wb[-1]
        scores = xb @ wb
        route = "primal"
    accuracy = float(np.mean((scores > 0.0) == (batch.y == 1)))
    state = ClassifierState(weights, float(bias), active, iterations, capped, route)
    return state, accuracy


def _top(key: np.ndarray, h: int) -> np.ndarray:
    """Positions of the h largest keys, ties broken toward lower positions."""
    if h >= key.size:
        return np.arange(key.size)
    kth = np.partition(key, key.size - h)[key.size - h]
    above = np.flatnonzero(key > kth)
    ties = np.flatnonzero(key == kth)[: h - above.size]
    return np.concatenate([above, ties])


def eliminate_features(state: ClassifierState, m: int) -> np.ndarray:
    """Drop the m most discriminative features from the active set.

    Takes the m/2 largest strictly-positive weights and the m/2 most
    negative; if a sign runs short, the combined deficit is filled by the
    next-largest |weight| among the remaining active features. All ties
    break toward the lower feature index (``active`` is sorted, so that is
    the lower position). When |active| <= m the set is exhausted and the
    empty set is returned.
    """
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m}")
    active = state.active
    if active.size <= m:
        return np.empty(0, dtype=np.intp)
    wa = state.weights[active]
    half = m // 2
    pos = np.flatnonzero(wa > 0)
    neg = np.flatnonzero(wa < 0)
    keep = np.ones(active.size, dtype=bool)
    keep[pos[_top(wa[pos], half)]] = False
    keep[neg[_top(-wa[neg], half)]] = False
    deficit = m - min(pos.size, half) - min(neg.size, half)
    if deficit:
        rest = np.flatnonzero(keep)
        keep[rest[_top(np.abs(wa[rest]), deficit)]] = False
    return active[keep]


def unmask(batch: WindowBatch, k: int = 10, m: int = 50, lam: float = 0.1) -> UnmaskingProfile:
    """Run k train/eliminate loops and collect the accuracy profile.

    A degenerate batch (either class has fewer than 2 examples) and loops
    reached after the active set empties record chance accuracy 0.5.
    While |active| >= GRAM_MIN_RATIO * n the loops share one Gram state
    (xw, K), downdated after each elimination; ``batch`` is never written.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m}")
    if not MIN_LAM <= lam < np.inf:
        raise ValueError(
            f"regularization strength must be > 0 and finite (at least {MIN_LAM!r}), got {lam}"
        )
    n0, n1 = batch.class_counts()
    degenerate = n0 < MIN_PER_CLASS or n1 < MIN_PER_CLASS
    active = np.arange(batch.dim, dtype=np.intp)
    gram_min = GRAM_MIN_RATIO * (n0 + n1)
    gram_state = None
    if not degenerate and active.size >= gram_min:
        gram_state = _gram_state(batch.x, active)
    accuracies = np.empty(k)
    counts = []
    iterations, capped, route = [0] * k, [False] * k, [None] * k
    for i in range(k):
        counts.append(int(active.size))
        if degenerate or active.size == 0:
            accuracies[i] = CHANCE
            continue
        state, acc = train_logistic(batch, active, lam, _gram=gram_state)
        accuracies[i] = acc
        iterations[i], capped[i], route[i] = state.iterations, state.capped, state.route
        kept = eliminate_features(state, m)
        if gram_state is not None and kept.size >= gram_min:
            xw, gram = gram_state
            alive = np.zeros(batch.dim, dtype=bool)
            alive[kept] = True
            gone = active[~alive[active]]
            xr = xw[:, gone]
            gram -= xr @ xr.T
            xw[:, gone] = 0.0
        else:
            gram_state = None
        active = kept
    return UnmaskingProfile(accuracies, counts, iterations, capped, route)


def score(profile: UnmaskingProfile) -> float:
    """Anomaly score of a profile: the arithmetic mean of its accuracies."""
    return float(np.mean(profile.accuracies))
