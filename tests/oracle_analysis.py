"""The advantage protocol with its trial loops written out, kept as a
differential oracle.

This is ``leaklab.analysis`` as it was before every analyze path shared
one dataset walk and one trial loop: ``advantage_from_matrices`` splits
once per trial and fits every set (and the union of several) on that
split, and ``fingerprint_advantage`` interleaves the membership split
seeded ``(split_seed, 101, trial)`` with the identity split seeded
``(split_seed, 202, trial)``.  The library's reports must equal these,
``to_json()`` for ``to_json()``.

``iter_labeled`` is the loader the library once had: every trace of a
dataset loaded and parsed from its own file, with its label.

``oracle_train_logreg`` is ``train_logreg`` as it was before it fitted
only the columns that are nonzero on some standardized training row: it
optimises every column.  Its default solver, :func:`scipy_lbfgsb`, is
scipy's L-BFGS-B with the stopping rule of ``analysis._lbfgs``, which
replaced it.  It still takes a scipy CSR matrix, as the n-gram model's
fit once did: scaled by the column root mean square, not centered, and
multiplied through scipy's sparse kernels.  ``center=False`` is that
rule on a dense matrix, as ``train_logreg`` applies it.
"""

import numpy as np
import scipy.sparse

from leaklab.analysis import (
    AdvantageReport,
    FingerprintReport,
    LogRegModel,
    SetResult,
    stratified_split,
    train_logreg,
)
from leaklab.features import FEATURE_SET_NAMES, FeatureParams, extract_features


def iter_labeled(dataset):
    for e in dataset.entries:
        yield e.load(), e.label


def _as_matrix(X):
    if scipy.sparse.issparse(X):
        return scipy.sparse.csr_matrix(X, dtype=np.float64)
    return np.asarray(X, dtype=np.float64)


def _standardization(X, center):
    if scipy.sparse.issparse(X):
        # column scaling only: centering would densify the matrix, and
        # hashed-count features are near-centered anyway
        m = np.zeros(X.shape[1])
        sq = np.asarray(X.multiply(X).mean(axis=0)).ravel()
        s = np.sqrt(sq)
    elif center:
        m = X.mean(axis=0)
        s = X.std(axis=0)
    else:
        m = np.zeros(X.shape[1])
        s = np.sqrt((X * X * (1.0 / X.shape[0])).sum(axis=0))
    s = np.where(s > 0, s, 1.0)
    return m, s


def _standardize(X, mean, scale, center):
    if scipy.sparse.issparse(X):
        return X.multiply(1.0 / scale).tocsr()
    return (X - mean) / scale if center else X * (1.0 / scale)


def scipy_lbfgsb(fun, x0, iterations: int, callback):
    """``analysis._lbfgs``'s contract, solved by scipy's L-BFGS-B."""
    import scipy.optimize

    def record(intermediate_result):
        callback(intermediate_result.x, intermediate_result.fun)

    res = scipy.optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B", callback=record,
        options={"maxiter": iterations, "maxfun": 20 * iterations,
                 "ftol": 1e-14, "gtol": 1e-9},
    )
    return res.x, res.jac, bool(res.success)


def oracle_train_logreg(X, y, l2_lambda: float = 1.0, iterations: int = 1000,
                        solver=scipy_lbfgsb, center: bool = True) -> LogRegModel:
    X = _as_matrix(X)
    sparse = scipy.sparse.issparse(X)
    center = center and not sparse
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row")
    if not np.all(np.isfinite(X.data if sparse else X)):
        raise ValueError("features must be finite")
    classes = np.unique(y)
    k = len(classes)
    if k < 2:
        raise ValueError("training data must contain at least two classes")
    if l2_lambda < 0:
        raise ValueError("l2_lambda must be non-negative")

    mean, scale = _standardization(X, center)
    Xs = _standardize(X, mean, scale, center)
    n, d = Xs.shape

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
            gw = np.asarray(gw).ravel()
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
            gw = np.asarray(gw)
            gw += l2_lambda * w
            return loss, np.concatenate([gw.ravel(), r.sum(axis=0)])

        theta0 = np.zeros(d * k + k)

    history: list[float] = []
    theta, _, converged = solver(objective, theta0, iterations,
                                 lambda theta, loss: history.append(loss))
    grad_norm = float(np.linalg.norm(objective(theta)[1]))

    if k == 2:
        weights, bias = theta[:d], np.float64(theta[d])
    else:
        weights, bias = theta[: d * k].reshape(d, k), theta[d * k:]
    return LogRegModel(
        classes=classes, weights=weights, bias=bias, mean=mean, scale=scale,
        l2_lambda=l2_lambda, loss_history=history, grad_norm=grad_norm,
        converged=converged, center=center,
    )


def oracle_advantage_from_matrices(X_by_set: dict, y, *, trials: int = 5,
                                   test_frac: float = 0.2, l2_lambda: float = 1.0,
                                   iterations: int = 1000, split_seed: int = 0,
                                   include_union: bool = True,
                                   center: bool = True) -> AdvantageReport:
    y = np.asarray(y)
    mats = {name: np.asarray(X, dtype=np.float64) for name, X in X_by_set.items()}
    if include_union and len(mats) > 1:
        mats["union"] = np.hstack([mats[name] for name in X_by_set])
    accs: dict[str, list[float]] = {name: [] for name in mats}
    for trial in range(trials):
        rng = np.random.default_rng([split_seed, trial])
        tr, te = stratified_split(y, test_frac, rng)
        for name, X in mats.items():
            model = train_logreg(X[tr], y[tr], l2_lambda=l2_lambda,
                                 iterations=iterations, center=center)
            accs[name].append(model.accuracy(X[te], y[te]))
    n = len(y)
    return AdvantageReport(
        sets={name: SetResult(a) for name, a in accs.items()},
        trials=trials, n_traces=n,
    )


def oracle_fingerprint_advantage(dataset, *, params=None, trials: int = 5,
                                 test_frac: float = 0.2, l2_lambda: float = 1.0,
                                 iterations: int = 1000) -> FingerprintReport:
    params = params or FeatureParams()
    rows, members, identities = [], [], []
    for trace, label in iter_labeled(dataset):
        member, ident = label
        fv = extract_features(trace, FEATURE_SET_NAMES, params)
        rows.append(fv.values)
        members.append(int(member))
        identities.append(int(ident))
    X = np.vstack(rows)
    members = np.array(members)
    identities = np.array(identities)
    s_c = dataset.s_c
    s_f = dataset.s_f
    split_seed = getattr(dataset, "base_seed", 0)

    mem_accs, fp_accs = [], []
    member_idx = np.flatnonzero(members == 1)
    for trial in range(trials):
        rng = np.random.default_rng([split_seed, 101, trial])
        tr, te = stratified_split(members, test_frac, rng)
        model = train_logreg(X[tr], members[tr], l2_lambda=l2_lambda,
                             iterations=iterations)
        mem_accs.append(model.accuracy(X[te], members[te]))

        rng2 = np.random.default_rng([split_seed, 202, trial])
        ym = identities[member_idx]
        trm, tem = stratified_split(ym, test_frac, rng2)
        model2 = train_logreg(X[member_idx][trm], ym[trm],
                              l2_lambda=l2_lambda, iterations=iterations)
        fp_accs.append(model2.accuracy(X[member_idx][tem], ym[tem]))

    return FingerprintReport(
        membership=SetResult(mem_accs, baseline=s_c),
        fingerprint=SetResult(fp_accs, baseline=s_f),
        s_c=s_c, s_f=s_f,
    )
