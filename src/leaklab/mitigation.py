"""Differentially private padding for loop-count side channels.

The observable being protected is a loop iteration count: a heavy-hitter
style computation iterates once per distinct key, so two inputs that
differ in one element produce counts differing by one.  Padding the loop
with ``m`` dummy iterations, ``m`` drawn from a shifted two-sided
geometric distribution, makes the padded count an (eps, delta)
differentially private function of the true count.

The sampler is ``m = max(0, A + Z)`` where ``Z`` has the two-sided
geometric law ``Pr[Z = z] = alpha^|z| * (1 - alpha) / (1 + alpha)`` with
``alpha = exp(-eps)``, and the shift ``A`` is the smallest integer whose
lower tail ``Pr[Z <= -A] = alpha^A / (1 + alpha)`` is at most delta.
The clamp at zero is what costs the delta term.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "dummy_shift",
    "sample_dummy_count",
    "verify_dummy_dp",
    "noise_entry",
    "threshold_value",
]


def _lower_tail(alpha: float, a: int) -> float:
    # Pr[Z <= -a] for the two-sided geometric law with parameter alpha:
    # sum_{z >= a} alpha^z * (1-alpha)/(1+alpha) = alpha^a / (1+alpha)
    return alpha ** a / (1.0 + alpha)


def dummy_shift(eps: float, delta: float) -> int:
    """Smallest shift A with ``Pr[Z <= -A] <= delta``.

    This is the expected number of dummy iterations the sampler adds.
    Computed in closed form and then confirmed against the tail formula,
    so boundary cases cannot round the wrong way.

    >>> dummy_shift(0.1, 1e-9)
    201
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    alpha = math.exp(-eps)
    # alpha^A / (1+alpha) <= delta  <=>  A >= log(delta * (1+alpha)) / -eps,
    # using log(alpha) = -eps exactly (alpha itself may underflow to 0)
    a = max(0, math.ceil(math.log(delta * (1.0 + alpha)) / -eps))
    while _lower_tail(alpha, a) > delta:
        a += 1
    while a > 0 and _lower_tail(alpha, a - 1) <= delta:
        a -= 1
    return a


def sample_dummy_count(eps: float, delta: float, rng: np.random.Generator) -> int:
    """Draw the number of dummy loop iterations, ``max(0, A + Z)``.

    ``Z`` is sampled as the difference of two iid geometric variables
    (success probability ``1 - alpha``), which has exactly the two-sided
    geometric law used in the tail analysis.
    """
    a = dummy_shift(eps, delta)
    alpha = math.exp(-eps)
    g1, g2 = rng.geometric(1.0 - alpha, size=2)
    return max(0, a + int(g1) - int(g2))


def _padded_pmf(eps: float, delta: float, true_count: int, support_hi: int) -> np.ndarray:
    """Exact pmf of ``true_count + max(0, A + Z)`` on ``[0, support_hi]``.

    Mass that the clamp collects at ``m = 0`` is summed analytically, so
    the vector is a true (not truncated-at-the-bottom) distribution up to
    the negligible upper tail beyond ``support_hi``.
    """
    import numpy as np

    a = dummy_shift(eps, delta)
    alpha = math.exp(-eps)
    norm = (1.0 - alpha) / (1.0 + alpha)
    pmf = np.zeros(support_hi + 1)
    # m = 0 collects all of Pr[Z <= -A]; note alpha^0/(1+alpha) = Pr[Z <= 0],
    # so the tail formula covers the A = 0 case as well
    pmf[true_count] = _lower_tail(alpha, a)
    for m in range(1, support_hi + 1 - true_count):
        pmf[true_count + m] = norm * alpha ** abs(m - a)
    return pmf


def verify_dummy_dp(eps: float, delta: float,
                    claim_eps: float | None = None,
                    claim_delta: float | None = None) -> bool:
    """Check the padded loop count against an (eps, delta)-DP claim.

    Enumerates the exact output distributions for neighboring true counts
    ``k`` and ``k + 1`` and tests the DP inequality on every threshold
    event (upper and lower tails, both directions).  Threshold events
    suffice here because the two pmfs have monotone likelihood ratio, so
    the worst event is always a tail.

    The sampler is built for ``(eps, delta)``; by default the claim being
    verified is the same pair.  Pass ``claim_eps``/``claim_delta`` to
    verify a weaker claim against the same sampler.
    """
    import numpy as np

    if claim_eps is None:
        claim_eps = eps
    if claim_delta is None:
        claim_delta = delta
    if delta == 0:
        # no finite shift exists, and the clamp at zero makes the event
        # {output == k} impossible for the neighbor: pure-eps never holds
        return False
    a = dummy_shift(eps, delta)
    # enough support that the remaining upper tail is far below delta
    hi = a + 1 + int(math.ceil(60.0 / eps))
    p = _padded_pmf(eps, delta, 0, hi)
    q = _padded_pmf(eps, delta, 1, hi)
    e = math.exp(claim_eps)

    upper_p = np.concatenate([np.cumsum(p[::-1])[::-1], [0.0]])  # Pr[X >= t]
    upper_q = np.concatenate([np.cumsum(q[::-1])[::-1], [0.0]])
    lower_p = np.cumsum(p)  # Pr[X <= t]
    lower_q = np.cumsum(q)

    # ignore distribution mass lost to truncation (provably tiny): fold it
    # into the claim check by requiring the inequality with the stated delta
    for tp, tq in ((upper_p, upper_q), (lower_p, lower_q)):
        if np.any(tp > e * tq + claim_delta) or np.any(tq > e * tp + claim_delta):
            return False
    return True


def threshold_value(eps: float, delta: float) -> float:
    """Release threshold ``T = 1 + ln(1 / (2 delta)) / eps``.

    A count of 1 with Laplace(1/eps) noise exceeds T with probability
    delta, so never-queried keys survive essentially never.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 < delta < 0.5:
        raise ValueError("delta must be in (0, 0.5)")
    return 1.0 + math.log(1.0 / (2.0 * delta)) / eps


def noise_entry(count: int, eps: float, threshold: float,
                rng: np.random.Generator) -> tuple[float, bool]:
    """One entry's release: ``(noisy_count, noisy_count >= threshold)``.

    Takes one Laplace draw at scale ``1/eps``, rounded to the nearest
    integer to preserve count semantics.
    """
    noisy = float(count + round(float(rng.laplace(0.0, 1.0 / eps))))
    return noisy, noisy >= threshold

