"""Classifier, advantage protocol, bound, and KS test."""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse

import leaklab.analysis as analysis
from leaklab.analysis import (
    SetResult,
    advantage_from_matrices,
    advantage_reports,
    dp_bound,
    dp_bound_useful,
    evaluate_seq_advantage,
    fingerprint_advantage,
    ks_test,
    stratified_split,
    train_logreg,
)
from leaklab.features import (
    FEATURE_SET_NAMES,
    FeatureParams,
    extract_features,
    ngram_hash_matrix,
    tokenize,
)
from leaklab.games import GameConfig, run_distinguishing_game, run_fingerprinting_game

from oracle_features import oracle_ngram_hash_matrix
from oracle_analysis import (
    iter_labeled,
    oracle_advantage_from_matrices,
    oracle_fingerprint_advantage,
    oracle_train_logreg,
    scipy_lbfgsb,
)


def blobs(rng, n=200, d=6, gap=6.0):
    y = rng.integers(0, 2, size=n)
    X = rng.normal(size=(n, d))
    X[:, 0] += gap * y
    return X, y


def test_logreg_separable_blobs(rng):
    X, y = blobs(rng)
    model = train_logreg(X, y, l2_lambda=0.01)
    assert model.accuracy(X, y) > 0.95
    proba = model.predict_proba(X)
    assert proba.shape == (len(y), 2)
    assert np.allclose(proba.sum(axis=1), 1.0)


def test_logreg_gradient_norm_small(rng):
    X, y = blobs(rng)
    model = train_logreg(X, y)
    assert model.grad_norm <= 1e-4
    assert model.loss_history == sorted(model.loss_history, reverse=True) or \
        model.loss_history[-1] <= model.loss_history[0]


def finite_diff_grad(f, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        tp = theta.copy(); tp[i] += h
        tm = theta.copy(); tm[i] -= h
        g[i] = (f(tp) - f(tm)) / (2 * h)
    return g


def test_objective_gradient_finite_difference(rng):
    # rebuild the training objective and check its analytic gradient
    X, y = blobs(rng, n=40, d=4)
    lam = 0.3
    mean, std = X.mean(axis=0), X.std(axis=0)
    Xs = (X - mean) / np.where(std > 0, std, 1.0)
    yb = y.astype(float)

    def loss_only(theta):
        w, b = theta[:4], theta[4]
        z = Xs @ w + b
        return float(np.mean(np.logaddexp(0, z) - yb * z)) + 0.5 * lam * w @ w

    def grad(theta):
        w, b = theta[:4], theta[4]
        z = Xs @ w + b
        r = 1 / (1 + np.exp(-z)) - yb
        return np.concatenate([Xs.T @ r / len(y) + lam * w, [r.mean()]])

    theta = rng.normal(size=5)
    num = finite_diff_grad(loss_only, theta)
    assert np.max(np.abs(num - grad(theta))) < 1e-5


def test_logreg_multinomial(rng):
    n, d = 300, 5
    y = rng.integers(0, 3, size=n)
    X = rng.normal(size=(n, d))
    for k in range(3):
        X[y == k, k] += 4.0
    model = train_logreg(X, y, l2_lambda=0.01)
    assert model.accuracy(X, y) > 0.9
    assert model.weights.shape == (d, 3)
    assert model.grad_norm <= 1e-4


def test_logreg_sparse_matches_dense(rng):
    # mostly-zero features, fitted with and without centering (the rule
    # for sparse counts)
    X, y = blobs(rng, n=120, d=8)
    X[X < 0.5] = 0.0
    dense = train_logreg(X, y, l2_lambda=0.5)
    sparse = train_logreg(X, y, l2_lambda=0.5, center=False)
    Xt = rng.normal(size=(50, 8))
    # the sparse rule skips centering, so compare predictions not weights
    agree = np.mean(dense.predict(Xt) == sparse.predict(Xt))
    assert agree > 0.85


def test_logreg_deterministic(rng):
    X, y = blobs(rng)
    m1 = train_logreg(X, y)
    m2 = train_logreg(X, y)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def test_logreg_input_validation(rng):
    X, y = blobs(rng, n=20)
    with pytest.raises(ValueError):
        train_logreg(X, y[:-1])
    with pytest.raises(ValueError):
        train_logreg(X, np.zeros(20))
    with pytest.raises(ValueError):
        train_logreg(X, y, l2_lambda=-1)
    X[0, 0] = np.nan
    with pytest.raises(ValueError):
        train_logreg(X, y)


def test_stratified_split_exact(rng):
    y = np.array([0] * 10 + [1] * 30 + [2] * 1)
    tr, te = stratified_split(y, 0.2, rng)
    assert sorted(np.concatenate([tr, te])) == list(range(41))
    assert np.sum(y[te] == 0) == 2
    assert np.sum(y[te] == 1) == 6
    assert np.sum(y[te] == 2) == 0  # singleton goes to train
    assert 40 in tr


@pytest.mark.parametrize("y", [
    [], [3], [1, 0, 1, 1, 0], [5, -2, 5, 7, -2, 0], [0.5, -1.0, 0.5, 2.25],
    ["b", "a", "c", "a"], [[2, 1], [1, 2]], [True, False, True],
], ids=["empty", "one", "binary", "ints", "floats", "strings", "2d", "bools"])
def test_classes_are_np_unique(y):
    # train_logreg and stratified_split take their classes from _classes,
    # which must give np.unique's values and dtype (np.unique loads numpy.ma)
    y = np.asarray(y)
    got, want = analysis._classes(y), np.unique(y)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_stratified_split_two_each_min():
    rng = np.random.default_rng(0)
    y = np.array([0, 0, 1, 1])
    tr, te = stratified_split(y, 0.5, rng)
    # both sides keep at least one of each non-singleton class
    assert set(y[tr]) == {0, 1} and set(y[te]) == {0, 1}


def test_set_result_normalization():
    r = SetResult([0.9, 1.0, 0.4], baseline=0.5)
    assert r.normalized == [0.8, 1.0, 0.0]
    assert abs(r.normalized_mean - 0.6) < 1e-12
    j = r.to_json()
    assert j["baseline"] == 0.5
    assert abs(j["raw_advantage_mean"] - (np.mean([0.9, 1.0, 0.4]) - 0.5)) < 1e-12


def test_advantage_null_is_near_chance(rng):
    # permuted labels: no feature set may show real advantage
    X = rng.normal(size=(300, 10))
    y = rng.integers(0, 2, size=300)
    rep = advantage_from_matrices({"a": X}, y, trials=5, split_seed=3)
    r = rep.sets["a"]
    assert abs(r.accuracy_mean - 0.5) < 0.12
    assert r.normalized_mean < 0.25


def test_advantage_perfect_signal(rng):
    y = rng.integers(0, 2, size=200)
    X = np.column_stack([y + 0.0, rng.normal(size=200)])
    rep = advantage_from_matrices({"a": X}, y, trials=3, split_seed=1)
    assert rep.sets["a"].normalized_mean == 1.0


def test_advantage_union_combines_sets(rng):
    # each half is noisy alone; their sum cancels the noise exactly
    y = rng.integers(0, 2, size=400).astype(float)
    e = rng.normal(scale=2.0, size=400)
    xa = (y + e)[:, None]
    xb = (y - e)[:, None]
    rep = advantage_from_matrices({"a": xa, "b": xb}, y.astype(int),
                                  trials=3, split_seed=9)
    assert "union" in rep.sets
    assert rep.sets["union"].accuracy_mean > 0.95
    assert rep.sets["a"].accuracy_mean < 0.8


def test_advantage_report_deterministic(rng):
    X = rng.normal(size=(100, 4))
    y = rng.integers(0, 2, size=100)
    r1 = advantage_from_matrices({"a": X}, y, trials=3, split_seed=5)
    r2 = advantage_from_matrices({"a": X}, y, trials=3, split_seed=5)
    assert r1.sets["a"].accuracies == r2.sets["a"].accuracies
    assert r1.to_json() == r2.to_json()


# Small datasets whose accuracies vary from split to split, so that a
# report taken on other splits, or without a set, differs.
_FIT = {"trials": 3, "test_frac": 0.2, "l2_lambda": 1.0, "iterations": 1000}


@pytest.fixture(scope="module")
def scan_dataset(tmp_path_factory):
    return run_distinguishing_game(GameConfig.from_json({
        "game": "distinguish",
        "workload": {"kind": "pir_scan", "db_size": 256},
        "policy": {"channels": ["page", "cache", "cipher", "pmc"], "targeted": True,
                   "cache_noise": {"drop_prob": 0.2}},
        "x0": 17, "x1": 200, "traces_per_class": 10, "base_seed": 5,
    }), tmp_path_factory.mktemp("scan") / "d")


def test_evaluate_advantage_matches_oracle(scan_dataset):
    # dense sets and their union, on the splits seeded (base_seed, trial)
    traces, labels = zip(*iter_labeled(scan_dataset))
    X_by_set = {name: np.vstack([extract_features(t, [name]).values for t in traces])
                for name in FEATURE_SET_NAMES}
    want = oracle_advantage_from_matrices(X_by_set, labels, split_seed=5, **_FIT)
    got = advantage_reports(scan_dataset, FEATURE_SET_NAMES, **_FIT)["advantage"]
    assert got.to_json() == want.to_json()
    assert advantage_from_matrices(X_by_set, labels, split_seed=5, **_FIT).to_json() \
        == want.to_json()


def test_evaluate_seq_advantage_matches_oracle(scan_dataset):
    traces, labels = zip(*iter_labeled(scan_dataset))
    X = ngram_hash_matrix([tokenize(t).tokens for t in traces])
    want = oracle_advantage_from_matrices({"seq": X}, labels, split_seed=5, center=False,
                                          **_FIT)
    assert evaluate_seq_advantage(scan_dataset, **_FIT).to_json() == want.to_json()


def test_fingerprint_advantage_matches_oracle(tmp_path):
    ds = run_fingerprinting_game(GameConfig.from_json({
        "game": "fingerprint",
        "workload": {"kind": "phh", "eps": 2.0, "delta": 1e-6, "mitigated": True},
        "policy": {"channels": ["page", "cache", "cipher", "pmc"], "targeted": True},
        "n_traces": 30, "base_seed": 31,
        "prior": {"kind": "table",
                  "table": {"a.io": 4, "b.io": 3, "c.com": 3, "d.com": 2}},
        "interest": {"kind": "list", "values": ["a.io", "b.io", "c.com"]},
    }), tmp_path / "d")
    params = FeatureParams(m_cf=16, m_da=32)
    want = oracle_fingerprint_advantage(ds, params=params, **_FIT)
    assert fingerprint_advantage(ds, params=params, **_FIT).to_json() == want.to_json()


def test_dp_bound_anchor():
    v = dp_bound(0.5, 0.01)
    assert abs(v - 0.16718031767503205) < 1e-12
    assert abs(v - 0.1672) < 1e-4
    assert v < 0.17
    assert 2 * v < 0.34
    assert dp_bound(0, 0) == 0.0


def test_dp_bound_useful_condition():
    assert dp_bound_useful(0.5, 0.01)
    assert dp_bound_useful(1.0, 0.0)
    assert not dp_bound_useful(math.log(3), 0.0)
    assert not dp_bound_useful(1.2, 0.0)
    # the delta term tightens the cutoff
    assert dp_bound_useful(1.09, 0.0)
    assert not dp_bound_useful(1.09, 0.49)


def test_ks_hand_enumerated():
    r = ks_test([1, 2], [1, 3])
    assert abs(r.statistic - 0.5) < 1e-12
    r2 = ks_test([1, 2, 3], [1, 2, 3])
    assert r2.statistic == 0.0
    assert r2.pvalue == 1.0
    r3 = ks_test([0] * 50, [1] * 50)
    assert r3.statistic == 1.0
    assert r3.pvalue < 1e-10


def test_ks_against_scipy(rng):
    import scipy.stats

    a = rng.normal(size=80)
    b = rng.normal(loc=0.5, size=120)
    ours = ks_test(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp")
    assert abs(ours.statistic - ref.statistic) < 1e-12
    assert abs(ours.pvalue - ref.pvalue) < 0.02


def _fit_with_reevaluated_history(monkeypatch, X, y, **kw):
    """Fit, also recording the loss history by re-running the objective at
    every iterate the solver accepts (how the history used to be kept)."""
    lbfgs = analysis._lbfgs
    reevaluated = []

    def spy(fun, x0, iterations, callback):
        def both(x, loss):
            reevaluated.append(fun(x)[0])
            callback(x, loss)
        return lbfgs(fun, x0, iterations, both)

    monkeypatch.setattr(analysis, "_lbfgs", spy)
    return train_logreg(X, y, **kw), reevaluated


@pytest.mark.parametrize("kind", ["binary", "multinomial", "sparse"])
def test_loss_history_equals_reevaluated_loss(rng, monkeypatch, kind):
    if kind == "multinomial":
        y = rng.integers(0, 4, size=150)
        X = rng.normal(size=(150, 6))
        X[np.arange(150), y] += 2.0
    else:
        X, y = blobs(rng, n=150, d=6, gap=1.5)
    if kind == "sparse":
        X[X < 0.5] = 0.0
    model, reevaluated = _fit_with_reevaluated_history(monkeypatch, X, y, l2_lambda=0.1,
                                                       center=kind != "sparse")
    assert len(model.loss_history) > 3
    assert model.loss_history == reevaluated


# A "sparse" case fits mostly-zero features by the rule of sparse counts
# (``center=False``); the oracle gets them as a scipy CSR matrix, except
# where a test needs the very same arithmetic.

def _fit_data(rng, kind, n=150, d=9):
    if kind == "multinomial":
        y = rng.integers(0, 4, size=n)
        X = rng.normal(size=(n, d))
        X[np.arange(n), y] += 2.0
        return X, y
    return blobs(rng, n=n, d=d, gap=1.5)


_DROPPED = [1, 4, 7]


def _plant_zero_columns(X, sparse):
    """``X`` with its ``_DROPPED`` columns exactly zero once standardized:
    zero or a constant integer when dense, zero when sparse."""
    X = X.copy()
    X[:, _DROPPED] = 0.0
    if sparse:
        X[X < 0.5] = 0.0
        return X
    X[:, 4] = 3.0
    return X


@pytest.mark.parametrize("kind", ["binary", "multinomial", "sparse"])
def test_logreg_without_zero_columns_is_the_full_fit(rng, kind):
    X, y = _fit_data(rng, "multinomial" if kind == "multinomial" else "binary")
    center = kind != "sparse"
    if not center:
        X[X < 0.5] = 0.0
        assert X.any(axis=0).all()
    got = train_logreg(X, y, l2_lambda=0.1, center=center)
    want = oracle_train_logreg(X, y, l2_lambda=0.1, solver=analysis._lbfgs, center=center)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.bias, want.bias)
    assert got.loss_history == want.loss_history
    assert got.grad_norm == want.grad_norm
    assert got.converged and want.converged


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("kind", ["binary", "multinomial"])
def test_logreg_zero_columns_get_zero_weight(rng, kind, sparse):
    # the fit skips the planted columns; the rest match the full fit to
    # solver tolerance, and held-out rows that use the skipped columns
    # are predicted alike
    X, y = _fit_data(rng, kind)
    X = _plant_zero_columns(X, sparse)
    Xt = rng.normal(size=(60, X.shape[1]))
    Xt[:, _DROPPED] += 5.0
    got = train_logreg(X, y, l2_lambda=0.1, center=not sparse)
    want = oracle_train_logreg(scipy.sparse.csr_matrix(X) if sparse else X, y, l2_lambda=0.1)
    assert got.weights.shape == want.weights.shape
    assert np.all(got.weights[_DROPPED] == 0.0)
    keep = np.setdiff1d(np.arange(X.shape[1]), _DROPPED)
    assert np.max(np.abs(got.weights[keep] - want.weights[keep])) <= 1e-6
    assert np.max(np.abs(got.bias - want.bias)) <= 1e-6
    assert np.array_equal(got.predict(Xt), want.predict(Xt))
    assert got.grad_norm <= 1e-4


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("k", [2, 3])
def test_logreg_all_zero_matrix_fits_bias_only(rng, k, sparse):
    # a zero-filled feature set: only the class frequencies are left
    y = np.array([0] * 24 + [1] * 10 + [2] * 6)[: 34 if k == 2 else 40]
    X = np.zeros((len(y), 5))
    got = train_logreg(X, y, l2_lambda=0.1, center=not sparse)
    want = oracle_train_logreg(scipy.sparse.csr_matrix(X) if sparse else X, y, l2_lambda=0.1)
    assert got.weights.shape == want.weights.shape
    assert not got.weights.any()
    assert np.max(np.abs(got.bias - want.bias)) <= 1e-6
    Xt = rng.normal(size=(20, 5))
    assert np.array_equal(got.predict(Xt), want.predict(Xt))
    assert got.grad_norm <= 1e-4


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("kind", ["binary", "multinomial"])
def test_solver_sees_only_active_columns(rng, monkeypatch, kind, sparse):
    lbfgs = analysis._lbfgs
    sizes = []

    def spy(fun, x0, *args):
        sizes.append(len(x0))
        return lbfgs(fun, x0, *args)

    monkeypatch.setattr(analysis, "_lbfgs", spy)
    X, y = _fit_data(rng, kind)
    X = _plant_zero_columns(X, sparse)
    train_logreg(X, y, l2_lambda=0.1, center=not sparse)
    active = X.shape[1] - len(_DROPPED)
    terms = 1 if kind == "binary" else 4
    assert sizes == [active * terms + terms]


# -- the solver against scipy's L-BFGS-B ----------------------------------------

def _solver_case(rng, kind, n):
    """Rows of one fit case; the same call gives held-out rows."""
    if kind == "a8":
        # A8's identity fits: 181 classes, most with one or two training
        # rows, over the 163 columns that move
        centers = np.random.default_rng(8).normal(size=(181, 163))
        y = np.concatenate([np.arange(181), rng.integers(0, 181, size=n - 181)])
        return centers[y] * 0.5 + rng.normal(size=(n, 163)), y
    X, y = _fit_data(rng, kind if kind == "multinomial" else "binary", n=n)
    if kind == "sparse":
        X[X < 0.5] = 0.0
    return X, y


@pytest.mark.parametrize("kind", ["binary", "multinomial", "sparse", "a8"])
def test_solver_matches_scipy_lbfgsb(rng, kind):
    X, y = _solver_case(rng, kind, 241)
    Xt, _ = _solver_case(rng, kind, 241)
    sparse = kind == "sparse"
    got = train_logreg(X, y, l2_lambda=0.1, center=not sparse)
    want = oracle_train_logreg(scipy.sparse.csr_matrix(X) if sparse else X, y, l2_lambda=0.1)
    assert np.max(np.abs(got.weights - want.weights)) <= 1e-6
    assert np.array_equal(got.predict(Xt), want.predict(Xt))
    assert got.converged and got.grad_norm <= 1e-4
    assert got.loss_history == sorted(got.loss_history, reverse=True)


def test_solver_backs_off_from_a_non_finite_loss(rng):
    # features scaled by 1e3 and the softplus written as log1p(exp(z)):
    # the first step (length 1) reaches rows with z ~ 1e3, where the loss
    # overflows to inf.  scipy's line search stops at a non-finite trial,
    # so it minimises the stable form, which is equal wherever both are
    # finite.  Weights are compared on the unscaled features.
    n, d, scale, lam = 120, 5, 1e3, 0.1
    X, y = blobs(rng, n=2 * n, d=d, gap=1.5)
    X[:, -1] = 1.0
    X *= scale
    y = y.astype(float)
    losses = []

    def objective(softplus):
        def fun(w):
            z = X[:n] @ w
            with np.errstate(over="ignore"):
                loss = float(np.mean(softplus(z) - y[:n] * z))
                r = 1.0 / (1.0 + np.exp(-z)) - y[:n]
            losses.append(loss + 0.5 * lam * scale**2 * float(w @ w))
            return losses[-1], X[:n].T @ r / n + lam * scale**2 * w
        return fun

    history = []
    w, g, converged = analysis._lbfgs(objective(lambda z: np.log1p(np.exp(z))),
                                      np.zeros(d), 1000, lambda x, loss: history.append(loss))
    assert not all(np.isfinite(losses))
    assert converged and np.linalg.norm(g) <= 1e-4
    assert history == sorted(history, reverse=True)
    want, _, _ = scipy_lbfgsb(objective(lambda z: np.logaddexp(0.0, z)),
                              np.zeros(d), 1000, lambda x, loss: None)
    assert np.max(np.abs(w - want)) * scale <= 1e-6
    assert np.array_equal(X[n:] @ w > 0, X[n:] @ want > 0)


def test_unconverged_fit_is_reported(rng):
    # separable rows and no penalty: the loss has no minimum, so two
    # iterations end far from a zero gradient
    X, y = blobs(rng, n=60, d=3, gap=20.0)
    model = train_logreg(X, y, l2_lambda=0.0, iterations=2)
    assert not model.converged and model.grad_norm > 1e-4
    assert len(model.loss_history) == 2
    rep = advantage_from_matrices({"a": X}, y, trials=2, l2_lambda=0.0, iterations=2)
    assert not rep.sets["a"].converged and rep.sets["a"].grad_norm > 1e-4
    rep = advantage_from_matrices({"a": X}, y, trials=2)
    assert rep.sets["a"].converged and 0 < rep.sets["a"].grad_norm <= 1e-4


def test_cli_import_leaves_optimizer_unloaded():
    # importing the CLI loads no scipy module
    code = ("import sys, leaklab.cli; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("center", [True, False], ids=["centered", "uncentered"])
def test_overflowing_scale_is_refused(rng, center):
    # an informative column of values near 1e200: its squares overflow,
    # and a scale of inf would make it a zero column
    n = 100
    y = rng.integers(0, 2, size=n)
    X = np.column_stack([rng.normal(size=n), (y + rng.normal(scale=0.1, size=n)) * 1e200,
                         rng.normal(size=n)])
    with pytest.raises(ValueError, match=r"feature columns \[1\] overflow"):
        train_logreg(X, y, center=center)
    with pytest.raises(ValueError, match=r"feature columns \[1\] overflow"):
        advantage_from_matrices({"a": X}, y, trials=1, center=center)
    # at 1e150 the squares are finite and the column carries the signal
    X[:, 1] *= 1e-50
    assert train_logreg(X, y, l2_lambda=0.01, center=center).accuracy(X, y) == 1.0


# -- one featurization per observation group -----------------------------------
# Configs whose observations are reusable: their datasets name, per run,
# the first run with the same secret, and the walk featurizes one trace
# per group.

_REUSABLE = {
    "fingerprint": {
        "game": "fingerprint",
        "workload": {"kind": "phh", "eps": 2.0, "delta": 1e-6, "marked_stage": "aggregate"},
        "policy": {"channels": ["page", "cache", "cipher", "pmc"], "targeted": True},
        "n_traces": 30, "base_seed": 31,
        "prior": {"kind": "table",
                  "table": {"a.io": 4, "b.io": 3, "c.com": 3, "d.com": 2}},
        "interest": {"kind": "list", "values": ["a.io", "b.io", "c.com"]},
    },
    "distinguish": {
        "game": "distinguish",
        "workload": {"kind": "pir_scan", "db_size": 256},
        "policy": {"channels": ["page", "cache", "cipher", "pmc"], "targeted": True},
        "x0": 17, "x1": 200, "sybil": {"kind": "copies", "value": 3, "count": 2},
        "traces_per_class": 10, "base_seed": 5,
    },
}


def _reusable_dataset(name, where, tmp_path):
    from leaklab.games import LabeledDataset

    cfg = GameConfig.from_json(_REUSABLE[name])
    run = run_fingerprinting_game if cfg.game == "fingerprint" else run_distinguishing_game
    if where == "returned":  # the runner's own dataset, not loaded back
        ds = run(cfg, out_dir=tmp_path / "d")
    else:
        run(cfg, out_dir=tmp_path / "d", jobs=int(where[-1]))
        ds = LabeledDataset.load(tmp_path / "d")
    assert len({e.obs for e in ds.entries}) < len(ds)
    return ds


def _walk_jobs(where, monkeypatch):
    """Analyze ``jobs`` for a ``_reusable_dataset``: at "jobs2" a pool of
    two, which these small datasets start only with a chunk per head."""
    if where != "jobs2":
        return 1
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 0)
    return 2


@pytest.mark.parametrize("where", ["returned", "jobs1", "jobs2"])
def test_reused_fingerprint_matches_oracle(tmp_path, monkeypatch, where):
    ds = _reusable_dataset("fingerprint", where, tmp_path)
    params = FeatureParams(m_cf=16, m_da=32)
    want = oracle_fingerprint_advantage(ds, params=params, **_FIT)
    got = fingerprint_advantage(ds, params=params, jobs=_walk_jobs(where, monkeypatch), **_FIT)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("where", ["returned", "jobs1", "jobs2"])
def test_reused_distinguish_matches_oracle(tmp_path, monkeypatch, where):
    ds = _reusable_dataset("distinguish", where, tmp_path)
    traces, labels = zip(*iter_labeled(ds))
    X_by_set = {name: np.vstack([extract_features(t, [name]).values for t in traces])
                for name in FEATURE_SET_NAMES}
    seq = ngram_hash_matrix([tokenize(t).tokens for t in traces])
    got = advantage_reports(ds, FEATURE_SET_NAMES, seq=True,
                            jobs=_walk_jobs(where, monkeypatch), **_FIT)
    assert got["advantage"].to_json() == oracle_advantage_from_matrices(
        X_by_set, labels, split_seed=5, **_FIT).to_json()
    assert got["seq"].to_json() == oracle_advantage_from_matrices(
        {"seq": seq}, labels, split_seed=5, center=False, **_FIT).to_json()


def _assert_same_walk(got, want):
    names, X, tokens, labels, warnings = got
    assert np.array_equal(X, want[1])
    assert (names, tokens, labels, warnings) == want[:1] + want[2:]


def _spy_on_tasks(monkeypatch):
    """The chunk sizes of each walk's tasks, and the traces parsed in
    this process."""
    import leaklab.games as games

    ordered_map, parse, tasks, parses = analysis.ordered_map, games.parse_trace, [], []

    def spy(job, jobs, chunks):
        tasks.append([len(c) for c in chunks])
        return ordered_map(job, jobs, chunks)

    monkeypatch.setattr(analysis, "ordered_map", spy)
    monkeypatch.setattr(games, "parse_trace", lambda text: parses.append(1) or parse(text))
    return tasks, parses


def test_walk_cuts_heads_into_chunks_of_trace_bytes(tmp_path, monkeypatch):
    ds = _reusable_dataset("distinguish", "jobs1", tmp_path)
    sizes = [e.path.stat().st_size for e in ds.heads()]
    assert len(sizes) == 2 and sum(sizes) < analysis._CHUNK_BYTES
    tasks, parses = _spy_on_tasks(monkeypatch)
    job = analysis._Featurize(FEATURE_SET_NAMES, None, seq=True)
    want = analysis._walk(ds, job, jobs=1)
    assert len(want[0]) == want[1].shape[1] and want[1].shape[0] == len(ds)
    # a chunk closes once its heads' files hold _CHUNK_BYTES
    for chunk_bytes, chunks in [(analysis._CHUNK_BYTES, [2]), (sum(sizes), [2]),
                                (sizes[0] + 1, [2]), (sizes[0], [1, 1]), (0, [1, 1])]:
        monkeypatch.setattr(analysis, "_CHUNK_BYTES", chunk_bytes)
        tasks.clear()
        parses.clear()
        _assert_same_walk(analysis._walk(ds, job, jobs=2), want)
        assert tasks == [chunks], chunk_bytes
        # one chunk runs in this process, two on a pool of two workers
        assert len(parses) == (2 if chunks == [2] else 0), chunk_bytes


def test_walk_of_many_small_traces_makes_few_tasks(tmp_path, monkeypatch):
    # A2's shape: 2000 page-only synthetic_loop traces of about 860 bytes
    ds = run_distinguishing_game(GameConfig.from_json({
        "game": "distinguish",
        "workload": {"kind": "synthetic_loop", "eps": 0.5, "delta": 1e-6},
        "policy": {"channels": ["page"], "targeted": True},
        "x0": 0, "x1": 1, "traces_per_class": 1000, "base_seed": 9104,
    }), tmp_path / "d", jobs=2)
    size = sum(e.path.stat().st_size for e in ds.heads())
    tasks, _ = _spy_on_tasks(monkeypatch)
    job = analysis._Featurize(("F1",), None)
    want = analysis._walk(ds, job, jobs=1)
    _assert_same_walk(analysis._walk(ds, job, jobs=2), want)
    assert tasks[0] == tasks[1] and sum(tasks[0]) == len(ds.heads())
    assert 1 < len(tasks[0]) <= math.ceil(size / analysis._CHUNK_BYTES)


# -- the n-gram model's fit: scaled, not centered -------------------------------

def test_uncentered_fit_matches_the_csr_fit_on_a6_data(tmp_path):
    # A6's ciphertext dataset: 400 rows of hashed n-gram counts, most of
    # them nonzero in every bucket in use.  The dense fit over the
    # buckets in use against the CSR fit over all 2**15 of them
    ds = run_distinguishing_game(GameConfig.from_json({
        "game": "distinguish",
        "workload": {"kind": "pir_scan", "db_size": 1000},
        "policy": {"channels": ["page", "cache", "cipher", "pmc"], "targeted": True},
        "x0": 137, "x1": 803, "sybil": {"kind": "copies", "value": 0, "count": 9},
        "traces_per_class": 200, "base_seed": 9600,
    }), tmp_path / "d")
    traces, labels = zip(*iter_labeled(ds))
    tokens = [tokenize(t).tokens for t in traces]
    X = ngram_hash_matrix(tokens)
    csr = oracle_ngram_hash_matrix(tokens)
    used = np.flatnonzero(csr.getnnz(axis=0))
    assert X.shape == (400, len(used)) and np.array_equal(X, csr[:, used].toarray())
    y = np.array(labels)
    tr, te = stratified_split(y, 0.2, np.random.default_rng([9600, 0]))
    got = train_logreg(X[tr], y[tr], l2_lambda=0.1, center=False)
    want = oracle_train_logreg(csr[tr], y[tr], l2_lambda=0.1, solver=analysis._lbfgs)
    assert np.array_equal(got.scale, want.scale[used])
    assert not np.any(np.delete(want.weights, used))
    assert np.max(np.abs(got.weights - want.weights[used])) <= 1e-6
    assert np.array_equal(got.predict(X[te]), want.predict(csr[te].toarray()))
    assert got.converged and got.grad_norm <= 1e-4


@pytest.mark.parametrize("name", list(_REUSABLE))
def test_walk_parses_and_featurizes_once_per_group(tmp_path, monkeypatch, name):
    from types import SimpleNamespace

    import leaklab.features as features
    import leaklab.games as games

    ds = _reusable_dataset(name, "jobs1", tmp_path)
    parses, reads, featurized = [], [], []
    parse, read = games.parse_trace, games.DatasetEntry.read_text
    monkeypatch.setattr(games, "parse_trace", lambda text: parses.append(1) or parse(text))
    monkeypatch.setattr(games.DatasetEntry, "read_text",
                        lambda self: reads.append(self.path) or read(self))
    # a token stream that counts the featurized traces
    monkeypatch.setattr(features, "tokenize", lambda trace: featurized.append(trace)
                        or SimpleNamespace(tokens=len(featurized)))
    _, X, rows, labels, _ = analysis._walk(ds, analysis._Featurize(None, None, seq=True))
    groups = sorted({e.obs for e in ds.entries})
    assert X is None and len(parses) == len(featurized) == len(groups)
    # every file is still read (and checked against its sha256); a chunk
    # reads its heads before the members between them
    assert sorted(reads) == sorted(e.path for e in ds.entries)
    # each run gets its group's row
    assert rows == [groups.index(e.obs) + 1 for e in ds.entries]
    assert labels == [e.label for e in ds.entries]
