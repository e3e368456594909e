"""Attack evaluation: classifiers, advantage estimates, analytic bounds.

The measurement protocol is the same everywhere: featurize traces, train
an L2-regularized logistic regression per feature set (and on their union
when several sets are requested) on seeded stratified splits, and convert
held-out test accuracy into a distinguishing advantage.

For a balanced two-class game the baseline is 1/2, so::

    raw advantage        = max(0, accuracy - 1/2)
    normalized advantage = raw / (1/2)        # 1.0 means perfect

Fingerprinting games have prior-dependent baselines; see
:func:`fingerprint_advantage`.

Every classifier is fitted by :func:`_lbfgs`, an L-BFGS solver in numpy
(10 curvature pairs, Armijo backtracking).  It stops at a gradient whose
largest entry is at most 1e-9 or at a relative loss decrease of at most
1e-14, and after at most ``iterations`` iterations and 20 times as many
objective evaluations.  A fit that ends with a gradient norm above 1e-4
did not converge; :class:`SetResult` keeps the worst one of its set.
The package runs on numpy alone: no command loads scipy.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .pool import ordered_map

__all__ = [
    "LogRegModel",
    "train_logreg",
    "stratified_split",
    "SetResult",
    "AdvantageReport",
    "advantage_from_matrices",
    "advantage_reports",
    "evaluate_seq_advantage",
    "FingerprintReport",
    "fingerprint_advantage",
    "dp_bound",
    "dp_bound_useful",
    "KsResult",
    "ks_test",
]


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

@dataclass
class LogRegModel:
    """A fitted (possibly multinomial) logistic regression.

    ``weights`` is (d,) for two classes and (d, K) otherwise; inputs are
    standardized with the stored ``mean``/``scale`` (see
    :func:`_standardize`) before scoring.
    """

    classes: np.ndarray
    weights: np.ndarray
    bias: np.ndarray
    mean: np.ndarray
    scale: np.ndarray
    l2_lambda: float
    loss_history: list[float]
    grad_norm: float
    converged: bool
    center: bool = True

    def _scores(self, X):
        X = np.asarray(X, dtype=np.float64)
        return _standardize(X, self.mean, self.scale, self.center) @ self.weights + self.bias

    def predict_proba(self, X) -> np.ndarray:
        z = self._scores(X)
        if z.ndim == 1:
            p1 = 1.0 / (1.0 + np.exp(-z))
            return np.column_stack([1.0 - p1, p1])
        z = z - z.max(axis=1, keepdims=True)
        ez = np.exp(z)
        return ez / ez.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        return self.classes[np.argmax(self.predict_proba(X), axis=1)]

    def accuracy(self, X, y) -> float:
        return float(np.mean(self.predict(X) == np.asarray(y)))


def _standardization(X, center: bool):
    """Column ``(mean, scale)``: mean and standard deviation when
    ``center``, else zero and the root mean square.  A zero scale becomes
    1; a scale that is not finite raises ``ValueError``."""
    if center:
        m = X.mean(axis=0)
        s = X.std(axis=0)
    else:
        m = np.zeros(X.shape[1])
        s = np.sqrt((X * X * (1.0 / X.shape[0])).sum(axis=0))
    bad = np.flatnonzero(~np.isfinite(s))
    if len(bad):
        raise ValueError(f"feature columns {bad.tolist()} overflow when standardized")
    return m, np.where(s > 0, s, 1.0)


def _standardize(X, mean, scale, center: bool):
    """``(X - mean) / scale``, or ``X * (1 / scale)`` without centering."""
    return (X - mean) / scale if center else X * (1.0 / scale)


def _classes(y: np.ndarray) -> np.ndarray:
    """The distinct labels in ``y``, ascending, as ``np.unique(y)`` gives
    them for labels that are not NaN; ``np.unique`` would load ``numpy.ma``."""
    s = np.sort(y, axis=None)
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


# _lbfgs stops at max|g| <= _GTOL or at a relative loss decrease <= _FTOL;
# a fit whose final gradient norm is above _FIT_TOLERANCE did not converge
_GTOL = 1e-9
_FTOL = 1e-14
_FIT_TOLERANCE = 1e-4


def _lbfgs(fun, x0, iterations: int, callback):
    """Minimize ``fun(x) -> (loss, gradient)`` from ``x0`` by L-BFGS.

    The direction comes from the last 10 curvature pairs; a pair with
    ``s.y <= 0`` is not kept.  The first step has length ``min(1, 1/||g||)``
    along ``-g``, later ones start at 1.  A step is halved until it meets
    the Armijo condition, which a non-finite trial loss never does.
    ``callback(x, loss)`` sees each accepted iterate.

    Stops at ``max|g| <= _GTOL``, at a relative decrease of at most
    ``_FTOL``, after ``iterations`` iterations, after ``20 * iterations``
    evaluations of ``fun``, when a halved step no longer moves ``x``, or
    when ``g`` is not finite.  Returns ``(x, g, converged)``: the last
    accepted iterate, its gradient, and whether one of the first two
    rules stopped the run.
    """
    x = x0
    f, g = fun(x)
    evals = 1
    pairs = deque(maxlen=10)  # (s, y, 1 / s.y)
    for it in range(iterations):
        if np.max(np.abs(g)) <= _GTOL:
            return x, g, True
        # two-loop recursion: d = -H g
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * (s @ d)
            d = d - a * y
            alphas.append(a)
        if pairs:
            s, y, _ = pairs[-1]
            d = d * ((s @ y) / (y @ y))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d = d + (a - rho * (y @ d)) * s
        step = min(1.0, 1.0 / np.linalg.norm(g)) if it == 0 else 1.0
        slope = g @ d
        if not slope < 0:  # d descends unless g is not finite
            return x, g, False
        while True:
            if evals >= 20 * iterations:
                return x, g, False
            x_new = x + step * d
            if np.array_equal(x_new, x):
                return x, g, False
            f_new, g_new = fun(x_new)
            evals += 1
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        f_old, x, f, g = f, x_new, f_new, g_new
        callback(x, f)
        if f_old - f <= _FTOL * max(abs(f_old), abs(f), 1.0):
            return x, g, True
    return x, g, bool(np.max(np.abs(g)) <= _GTOL)


def train_logreg(X, y, l2_lambda: float = 1.0, iterations: int = 1000,
                 center: bool = True) -> LogRegModel:
    """Fit L2-regularized logistic regression with a quasi-Newton solver.

    The objective is mean cross-entropy plus ``l2_lambda/2 * ||W||^2``
    (bias unpenalized) over standardized features; it is smooth and
    strongly convex, and the fit is deterministic given the inputs.

    Each column is centered and divided by its standard deviation, or,
    without ``center``, multiplied by the inverse of its root mean square,
    so that counts keep their zeros.  A scale that overflows raises
    ``ValueError``.

    The solver is :func:`_lbfgs`, in numpy: L-BFGS with 10 curvature
    pairs and Armijo backtracking.  It stops at a gradient whose largest
    entry is at most 1e-9, or at a relative loss decrease of at most
    1e-14, or after ``iterations`` iterations or ``20 * iterations``
    evaluations of the objective.  ``loss_history`` holds the loss at
    each accepted iterate, ``converged`` says whether the first two rules
    stopped the solver, and ``grad_norm`` is the norm of the gradient at
    the returned weights; a fit is expected to end with it at most 1e-4.

    A column that is exactly zero on every standardized training row (an
    all-zero column, or, with ``center``, a constant one that
    standardizes to exact zeros) is seen only by the penalty, so its
    optimal weight is 0: the solver runs on the other columns and those
    weights are 0 in ``weights``, whose shape stays (d,) or (d, K).  With
    no such column the fit is exactly the full-dimension one.  With
    some, the iterates round differently, so the weights equal the
    full-dimension optimum to solver tolerance (about 1e-9), not
    bitwise, and the gradient norm stays far below 1e-4.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    classes = _classes(y)
    k = len(classes)
    if k < 2:
        raise ValueError("training data must contain at least two classes")
    if l2_lambda < 0:
        raise ValueError("l2_lambda must be non-negative")

    mean, scale = _standardization(X, center)
    Xs = _standardize(X, mean, scale, center)
    n, full_d = Xs.shape
    active = np.any(Xs != 0, axis=0)
    if not active.all():
        Xs = Xs[:, active]
    d = Xs.shape[1]

    if k == 2:
        yb = (y == classes[1]).astype(np.float64)

        def objective(theta):
            w, b = theta[:d], theta[d]
            z = Xs @ w + b
            # stable log(1 + e^z) - y z
            loss = float(np.mean(np.logaddexp(0.0, z) - yb * z))
            loss += 0.5 * l2_lambda * float(w @ w)
            r = 1.0 / (1.0 + np.exp(-z)) - yb
            gw = (Xs.T @ r) / n
            gw += l2_lambda * w
            return loss, np.concatenate([gw, [r.mean()]])

        theta0 = np.zeros(d + 1)
    else:
        yi = np.searchsorted(classes, y)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), yi] = 1.0

        def objective(theta):
            w = theta[: d * k].reshape(d, k)
            b = theta[d * k:]
            z = Xs @ w + b
            zmax = z.max(axis=1, keepdims=True)
            lse = zmax.ravel() + np.log(np.exp(z - zmax).sum(axis=1))
            loss = float(np.mean(lse - z[np.arange(n), yi]))
            loss += 0.5 * l2_lambda * float((w * w).sum())
            p = np.exp(z - lse[:, None])
            r = (p - onehot) / n
            gw = Xs.T @ r
            gw += l2_lambda * w
            return loss, np.concatenate([gw.ravel(), r.sum(axis=0)])

        theta0 = np.zeros(d * k + k)

    history: list[float] = []
    theta, grad, converged = _lbfgs(objective, theta0, iterations,
                                    lambda theta, loss: history.append(loss))
    grad_norm = float(np.linalg.norm(grad))

    if k == 2:
        weights, bias = theta[:d], np.float64(theta[d])
    else:
        weights, bias = theta[: d * k].reshape(d, k), theta[d * k:]
    if d < full_d:
        # the gradient of a dropped column is 0 at weight 0, so grad_norm
        # above is also the full-dimension one
        full = np.zeros((full_d, *weights.shape[1:]))
        full[active] = weights
        weights = full
    return LogRegModel(
        classes=classes, weights=weights, bias=bias, mean=mean, scale=scale,
        l2_lambda=l2_lambda, loss_history=history, grad_norm=grad_norm,
        converged=converged, center=center,
    )


def stratified_split(y, test_frac: float, rng: np.random.Generator):
    """Per-class shuffled train/test split preserving class ratios.

    Classes with a single example go entirely to the training side; for
    all others both sides get at least one example.  Returns
    ``(train_idx, test_idx)`` as sorted integer arrays.
    """
    y = np.asarray(y)
    if not 0.0 < test_frac < 1.0:
        raise ValueError("test_frac must be in (0, 1)")
    train, test = [], []
    for cls in _classes(y):
        idx = np.flatnonzero(y == cls)
        idx = rng.permutation(idx)
        n = len(idx)
        if n == 1:
            train.extend(idx)
            continue
        n_test = min(n - 1, max(1, int(round(test_frac * n))))
        test.extend(idx[:n_test])
        train.extend(idx[n_test:])
    return np.sort(np.array(train, dtype=int)), np.sort(np.array(test, dtype=int))


# ---------------------------------------------------------------------------
# advantage protocol
# ---------------------------------------------------------------------------

@dataclass
class SetResult:
    """Accuracy and advantage of one feature set over the trial splits.

    ``grad_norm`` is the largest final gradient norm of the set's fits.
    It stays out of :meth:`to_json`, so that a report does not change
    with the solver's rounding; ``converged`` says whether every fit
    ended with a gradient norm of at most 1e-4.
    """

    accuracies: list[float]
    baseline: float = 0.5
    grad_norm: float = 0.0

    @property
    def converged(self) -> bool:
        return self.grad_norm <= _FIT_TOLERANCE

    @property
    def accuracy_mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def normalized(self) -> list[float]:
        top = 1.0 - self.baseline
        return [max(0.0, a - self.baseline) / top for a in self.accuracies]

    @property
    def normalized_mean(self) -> float:
        return float(np.mean(self.normalized))

    @property
    def normalized_std(self) -> float:
        return float(np.std(self.normalized))

    @property
    def normalized_stderr(self) -> float:
        return self.normalized_std / math.sqrt(len(self.accuracies))

    def to_json(self) -> dict:
        return {
            "accuracies": [float(a) for a in self.accuracies],
            "accuracy_mean": self.accuracy_mean,
            "baseline": self.baseline,
            "raw_advantage_mean": max(0.0, self.accuracy_mean - self.baseline),
            "normalized_mean": self.normalized_mean,
            "normalized_std": self.normalized_std,
            "normalized_stderr": self.normalized_stderr,
        }


@dataclass
class AdvantageReport:
    sets: dict[str, SetResult]
    trials: int
    n_traces: int
    warnings: list[str] = field(default_factory=list)  # zero-fill, not in to_json

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "n_traces": self.n_traces,
            "sets": {name: r.to_json() for name, r in sorted(self.sets.items())},
        }


@dataclass(frozen=True)
class _Featurize:
    """The walk's job, picklable, on a chunk of group heads that it loads:
    ``(names, rows, warnings, error)``.  ``names`` are the F1–F5 columns
    of ``sets`` (they depend on ``sets`` and ``params`` alone), ``rows``
    one ``(values, tokens)`` per head (None without ``sets`` or ``seq``),
    ``warnings`` the heads' zero-fill warnings in order of first
    appearance.  A head whose file fails to load ends the chunk as ``error``.
    """

    sets: tuple | None
    params: object
    seq: bool = False

    def __call__(self, heads) -> tuple:
        from .features import extract_features, tokenize

        names, rows, warnings = None, [], []
        for entry in heads:
            try:
                trace = entry.load()
            except (OSError, ValueError) as error:
                return names, rows, warnings, error
            values = None
            if self.sets is not None:
                fv = extract_features(trace, self.sets, self.params)
                names, values = fv.names, fv.values
                warnings += [w for w in fv.warnings if w not in warnings]
            rows.append((values, tokenize(trace).tokens if self.seq else None))
        return names, rows, warnings, None


#: A walk task takes group heads until their files hold this many bytes, enough
#: to outweigh its process round trip; a fingerprint-phh head (750 KB) fills one.
_CHUNK_BYTES = 1 << 19


def _walk(dataset, featurize: _Featurize, jobs: int = 1) -> tuple:
    """``(names, X, tokens, labels, warnings)``: one row of ``X`` (None
    without sets) and one token stream per trace, in dataset order.  No
    trace outlives the walk, or leaves the process it was parsed in.

    Only the first trace of each observation group is loaded and
    featurized (see ``LabeledDataset.heads``); the other members get its
    row, after their file is read and checked.  That is exact: the
    runs of one group place the same observation, which renames pages
    one-to-one and keeps every event, and the featurizers read a page
    only through equality and order of first appearance, and a
    ciphertext diff only through its page and block.

    A task is a chunk of consecutive heads, closed once their files hold
    ``_CHUNK_BYTES`` (a missing one counts 0, and fails at load).  Up to
    ``jobs`` workers, never more than chunks, run the tasks (one chunk
    runs here) while this process checks the members' files.  An error
    is raised in its head's place, so neither the results nor the error,
    that of the first bad file in dataset order, depend on ``jobs``.
    """
    chunks, size = [[]], 0
    for e in dataset.heads():
        if chunks[-1] and size >= _CHUNK_BYTES:
            chunks.append([])
            size = 0
        chunks[-1].append(e)
        size += e.path.stat().st_size if e.path.is_file() else 0
    names, warnings = None, []

    def head_rows(results):
        nonlocal names
        for names, rows, chunk_warnings, error in results:
            warnings.extend(w for w in chunk_warnings if w not in warnings)
            yield from rows
            if error is not None:
                raise error

    with ordered_map(featurize, jobs, chunks) as results:
        rows = dataset.spread(head_rows(results))
    X = None if names is None else np.vstack([values for values, _ in rows])
    return (names, X, [tokens for _, tokens in rows],
            [e.label for e in dataset.entries], warnings)


def _trial_set(X, y, seed: tuple, trials: int, test_frac: float, l2_lambda: float,
               iterations: int, baseline: float = 0.5, center: bool = True) -> SetResult:
    """Held-out accuracy of one classifier per trial, as a :class:`SetResult`
    with ``baseline`` and the largest final gradient norm of the fits.

    Trial ``t`` splits with a generator seeded ``(*seed, t)``, so reports
    are reproducible and every matrix measured under one seed sees the
    same splits.  ``center`` is as in :func:`train_logreg`.  A split with
    no test example, which :func:`stratified_split` makes when no class
    has two examples, raises ``ValueError``.
    """
    accs, grad_norm = [], 0.0
    for trial in range(trials):
        tr, te = stratified_split(y, test_frac, np.random.default_rng([*seed, trial]))
        if not len(te):
            raise ValueError(f"trial {trial}: the test split is empty, so its accuracy "
                             f"would be NaN: no class has more than one of the "
                             f"{len(y)} traces")
        model = train_logreg(X[tr], y[tr], l2_lambda=l2_lambda, iterations=iterations,
                             center=center)
        accs.append(model.accuracy(X[te], y[te]))
        if not model.grad_norm <= grad_norm:  # a NaN norm counts as the worst
            grad_norm = model.grad_norm
    return SetResult(accs, baseline, grad_norm)


def advantage_from_matrices(X_by_set: dict, y, *, trials: int = 5,
                            test_frac: float = 0.2, l2_lambda: float = 1.0,
                            iterations: int = 1000, split_seed: int = 0,
                            center: bool = True) -> AdvantageReport:
    """Core advantage measurement over precomputed feature matrices.

    One classifier per feature set per trial, on the stratified splits
    seeded ``(split_seed, trial)``, plus one on the column-wise union of
    the sets when there are several.  ``center`` is as in
    :func:`train_logreg`.
    """
    y = np.asarray(y)
    mats = {name: np.asarray(X, dtype=np.float64) for name, X in X_by_set.items()}
    if len(mats) > 1:
        mats["union"] = np.hstack(list(mats.values()))
    fit = (trials, test_frac, l2_lambda, iterations)
    return AdvantageReport(
        sets={name: _trial_set(X, y, (split_seed,), *fit, center=center)
              for name, X in mats.items()},
        trials=trials, n_traces=len(y),
    )


def advantage_reports(dataset, feature_sets=None, *, seq: bool = False,
                      params=None, trials: int = 5, test_frac: float = 0.2,
                      l2_lambda: float = 1.0, iterations: int = 1000,
                      jobs: int = 1) -> dict[str, AdvantageReport]:
    """Distinguishing advantage of ``feature_sets`` (under ``"advantage"``,
    unless None) and of the sequence model (under ``"seq"``, when ``seq``
    is set; see :func:`evaluate_seq_advantage`) from one walk over the
    dataset, so each trace is loaded and parsed once.

    ``dataset`` is a :class:`~leaklab.games.LabeledDataset` whose labels
    form a two-class problem.  Up to ``jobs`` worker processes load and
    featurize its traces (see :func:`_walk`); the fits run here, and the
    reports do not depend on ``jobs``.
    """
    from .features import ngram_hash_matrix

    if feature_sets is not None:
        feature_sets = tuple(feature_sets)
    job = _Featurize(feature_sets, params, seq)
    names, X, tokens, labels, warnings = _walk(dataset, job, jobs)

    fit = dict(trials=trials, test_frac=test_frac, l2_lambda=l2_lambda,
               iterations=iterations, split_seed=getattr(dataset, "base_seed", 0))
    reports = {}
    if feature_sets is not None:
        # split the columns per set; names carry the set as a "F<k>." prefix
        X_by_set = {name: X[:, [n.startswith(f"{name}.") for n in names]]
                    for name in feature_sets}
        reports["advantage"] = advantage_from_matrices(X_by_set, labels, **fit)
        reports["advantage"].warnings = warnings
    if seq:
        reports["seq"] = advantage_from_matrices(
            {"seq": ngram_hash_matrix(tokens)}, labels, center=False, **fit)
    return reports


def evaluate_seq_advantage(dataset, *, trials: int = 5, test_frac: float = 0.2,
                           l2_lambda: float = 1.0, iterations: int = 1000,
                           jobs: int = 1) -> AdvantageReport:
    """Sequence-model advantage: hashed n-gram features over token streams.

    Stands in for a recurrent sequence classifier: the trace is tokenized,
    its n-grams (n <= 3) are hash-bucketed into 2**15 counts by
    :func:`~leaklab.features.ngram_hash_matrix`, and a logistic regression
    is trained on those counts, scaled but not centered.  Captures local ordering that the
    handcrafted count features discard.  The benchmark harness calls it.
    """
    return advantage_reports(
        dataset, seq=True, trials=trials, test_frac=test_frac,
        l2_lambda=l2_lambda, iterations=iterations, jobs=jobs)["seq"]


# ---------------------------------------------------------------------------
# fingerprinting protocol
# ---------------------------------------------------------------------------

@dataclass
class FingerprintReport:
    membership: SetResult
    fingerprint: SetResult
    s_c: float
    s_f: float
    warnings: list[str] = field(default_factory=list)  # zero-fill, not in to_json

    def to_json(self) -> dict:
        return {
            "s_c": self.s_c,
            "s_f": self.s_f,
            "membership": self.membership.to_json(),
            "fingerprint": self.fingerprint.to_json(),
        }


def fingerprint_advantage(dataset, *, params=None, trials: int = 5,
                          test_frac: float = 0.2, l2_lambda: float = 1.0,
                          iterations: int = 1000, jobs: int = 1) -> FingerprintReport:
    """Membership and identity advantage for a fingerprinting dataset.

    Baselines come from the sampling prior: ``s_c`` is the best blind
    interest/no-interest guess, ``s_f`` the best blind identity guess
    among interesting elements.  The membership classifier trains on all
    traces; the identity classifier only on traces whose element is in
    the interest set.  ``jobs`` is as in :func:`advantage_reports`.
    """
    from .features import FEATURE_SET_NAMES

    _, X, _, labels, warnings = _walk(dataset, _Featurize(FEATURE_SET_NAMES, params), jobs)
    members, identities = np.array(labels, dtype=int).T
    member_idx = np.flatnonzero(members == 1)
    split_seed = getattr(dataset, "base_seed", 0)
    fit = (trials, test_frac, l2_lambda, iterations)
    return FingerprintReport(
        membership=_trial_set(X, members, (split_seed, 101), *fit,
                              baseline=dataset.s_c),
        fingerprint=_trial_set(X[member_idx], identities[member_idx],
                               (split_seed, 202), *fit,
                               baseline=dataset.s_f),
        s_c=dataset.s_c, s_f=dataset.s_f, warnings=warnings,
    )


# ---------------------------------------------------------------------------
# analytic bound and distribution distance
# ---------------------------------------------------------------------------

def dp_bound(eps: float, delta: float) -> float:
    """Raw advantage cap implied by an (eps, delta)-DP observable:
    ``(e^eps - 1)/4 + delta/2``.

    Multiply by 2 to compare against normalized advantages.  The cap is
    informative only below the trivial advantage of 1/2; see
    :func:`dp_bound_useful`.
    """
    if eps < 0 or delta < 0:
        raise ValueError("eps and delta must be non-negative")
    return (math.exp(eps) - 1.0) / 4.0 + delta / 2.0


def dp_bound_useful(eps: float, delta: float) -> bool:
    """True when the bound is below the trivial cap, i.e. eps < ln(3 - 2 delta)."""
    return eps < math.log(3.0 - 2.0 * delta)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    pvalue: float


def ks_test(a, b) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p-value.

    The statistic is the sup-distance between the two empirical CDFs; the
    p-value is the classical limit ``2 * sum_k (-1)^(k-1) exp(-2 k^2 x^2)``
    evaluated at ``x = D * sqrt(n1 n2 / (n1 + n2))``.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / n1
    cdf_b = np.searchsorted(b, grid, side="right") / n2
    d = float(np.max(np.abs(cdf_a - cdf_b)))

    lam = d * math.sqrt(n1 * n2 / (n1 + n2))
    if lam < 10 * np.finfo(float).tiny or lam < 0.3:
        # the alternating series is numerically useless this low; the
        # distribution function is effectively 0 there, so p ~ 1
        p = 1.0
    else:
        terms = [2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
                 for k in range(1, 101)]
        p = min(1.0, max(0.0, math.fsum(terms)))
    return KsResult(statistic=d, pvalue=p)
