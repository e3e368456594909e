"""Padding sampler, DP verifier, and the noise-and-threshold release."""

import math

import numpy as np
import pytest

from leaklab.machine import SimMachine
from leaklab.mitigation import (
    dummy_shift,
    noise_entry,
    sample_dummy_count,
    threshold_value,
    verify_dummy_dp,
)
from leaklab.workloads import HeavyHitters
from oracle_mitigation import noise_and_threshold


def tail(eps, a):
    alpha = math.exp(-eps)
    return alpha ** a / (1 + alpha)


def test_shift_anchor_values():
    assert dummy_shift(0.1, 1e-9) == 201
    # at eps=ln 2, delta=0.5 the zero-shift tail is 1/(1+1/2) = 2/3 > 1/2,
    # so the smallest valid shift is 1, not 0
    assert dummy_shift(math.log(2.0), 0.5) == 1


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.5, 1.0, math.log(2)])
@pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-3, 0.4])
def test_shift_is_minimal(eps, delta):
    a = dummy_shift(eps, delta)
    assert tail(eps, a) <= delta
    if a > 0:
        assert tail(eps, a - 1) > delta


def test_shift_rejects_bad_params():
    for eps, delta in [(0, 0.1), (-1, 0.1), (0.1, 0), (0.1, 1)]:
        with pytest.raises(ValueError):
            dummy_shift(eps, delta)


def test_sample_mean_matches_shift():
    rng = np.random.default_rng(1)
    draws = [sample_dummy_count(0.1, 1e-9, rng) for _ in range(100_000)]
    assert all(d >= 0 for d in draws)
    # E[max(0, A+Z)] ~ A since the clamp bites with probability <= delta
    assert abs(np.mean(draws) - 201) < 1.0
    # Var[Z] = 2 alpha / (1-alpha)^2
    alpha = math.exp(-0.1)
    var = 2 * alpha / (1 - alpha) ** 2
    assert abs(np.var(draws) - var) / var < 0.05


def test_sample_two_sided_geometric_pmf():
    # Z = G1 - G2 must have pmf alpha^|z| (1-alpha)/(1+alpha)
    eps = 0.5
    alpha = math.exp(-eps)
    rng = np.random.default_rng(7)
    a = dummy_shift(eps, 0.01)
    n = 200_000
    zs = np.array([sample_dummy_count(eps, 0.01, rng) for _ in range(n)]) - a
    norm = (1 - alpha) / (1 + alpha)
    for z in (-3, -1, 0, 1, 3):
        want = norm * alpha ** abs(z)
        got = np.mean(zs == z)
        assert abs(got - want) < 4 * math.sqrt(want / n) + 1e-4


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
@pytest.mark.parametrize("delta", [1e-9, 1e-6])
def test_verify_dummy_dp_holds(eps, delta):
    assert verify_dummy_dp(eps, delta)


def test_verify_dummy_dp_weaker_claims_hold():
    assert verify_dummy_dp(0.1, 1e-6, claim_eps=1.0)
    assert verify_dummy_dp(0.1, 1e-6, claim_delta=1e-3)


def test_verify_dummy_dp_stronger_claims_fail():
    assert not verify_dummy_dp(0.5, 1e-6, claim_eps=0.05)
    assert not verify_dummy_dp(0.1, 1e-4, claim_delta=1e-12)


def test_verify_dummy_dp_pure_eps_impossible():
    assert not verify_dummy_dp(0.1, 0)


def test_threshold_anchor():
    t = threshold_value(0.1, 1e-9)
    assert abs(t - (1 + math.log(0.5e9) / 0.1)) < 1e-9
    assert 201.0 < t < 202.0
    with pytest.raises(ValueError):
        threshold_value(0.1, 0.5)
    with pytest.raises(ValueError):
        threshold_value(0, 1e-9)


def test_never_queried_keys_rarely_survive():
    # count 1 crosses T with probability ~delta; at delta 1e-3 and 20k keys
    # the expected survivor count is ~20
    eps, delta = 0.5, 1e-3
    t = threshold_value(eps, delta)
    rng = np.random.default_rng(3)
    kept = sum(noise_entry(1, eps, t, rng)[1] for _ in range(20_000))
    assert kept < 100


def test_heavy_keys_always_survive():
    eps, delta = 0.5, 1e-6
    t = threshold_value(eps, delta)
    rng = np.random.default_rng(4)
    for _ in range(50):
        noisy, keep = noise_entry(int(t + 200), eps, t, rng)
        assert keep and noisy >= t


@pytest.mark.parametrize("seed", range(5))
def test_phh_release_is_noise_and_threshold(seed):
    # the service's stage two draws one Laplace per first-seen key, in
    # insertion order, from the same stream the unmitigated run starts on
    eps, delta = 0.5, 1e-3
    inputs = [f"k{i}" for i in range(30) for _ in range(i + 1)]
    np.random.default_rng(99).shuffle(inputs)
    counts = {}
    for key in inputs:
        counts[key] = counts.get(key, 0) + 1
    result = HeavyHitters(inputs, eps, delta, mitigated=False,
                          marked_stage=None, seed=seed)(SimMachine(alloc_seed=seed))
    expected = noise_and_threshold(counts, eps, delta,
                                   np.random.default_rng([seed, 0x9E37]))
    assert list(result.survivors.items()) == list(expected.items())
    assert 0 < len(expected) < len(counts)
