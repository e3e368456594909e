"""Independent restatement of the noise-and-threshold release.

Used as a differential oracle for the release loop in stage two of
``leaklab.workloads.HeavyHitters``: written from the documented rule
with its own Laplace draw and threshold arithmetic, so it shares no
code with ``leaklab.mitigation.noise_entry`` or ``threshold_value``.
"""

import math


def noise_and_threshold(counts: dict, eps: float, delta: float, rng) -> dict:
    """Laplace-noise each count and keep entries at or above the threshold.

    Entries are noised in ``counts`` order, one Laplace(1/eps) draw each,
    rounded to the nearest integer.  The threshold is
    ``1 + ln(1 / (2 delta)) / eps``.  Returns ``{key: noisy_count}`` for
    the survivors.
    """
    threshold = 1.0 + math.log(1.0 / (2.0 * delta)) / eps
    out = {}
    for key, count in counts.items():
        noisy = float(count + round(float(rng.laplace(0.0, 1.0 / eps))))
        if noisy >= threshold:
            out[key] = noisy
    return out
