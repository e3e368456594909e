"""Distinguishing attack on the heavy-hitters service, before and after padding.

A 99-copy sybil stream pins down everything except whether the victim
contributed url0 or url1.  Unmitigated, the release loop length gives
the secret away through nothing but code-fetch counts.  With dummy
iterations the attacker is capped: measured advantage tracks the exact
optimum of the padding noise, which sits just under the analytic bound.
"""

import math
import tempfile

import numpy as np

from leaklab.analysis import advantage_reports, dp_bound
from leaklab.games import GameConfig, run_distinguishing_game

BASE = {
    "game": "distinguish",
    "policy": {"channels": ["page", "cache", "cipher", "pmc"], "targeted": True},
    "x0": "url0.example.com",
    "x1": "url1.example.net",
    "sybil": {"kind": "copies", "value": "url0.example.com", "count": 99},
    "traces_per_class": 300,
    "base_seed": 7,
}


def measure(mitigated: bool, eps: float, delta: float) -> tuple[float, float]:
    """Unclipped normalized advantage and its stderr over trials."""
    cfg = GameConfig.from_json({
        **BASE,
        "workload": {"kind": "phh", "eps": eps, "delta": delta,
                     "mitigated": mitigated, "marked_stage": "noise_threshold"},
    })
    with tempfile.TemporaryDirectory() as out:
        ds = run_distinguishing_game(cfg, out)
        rep = advantage_reports(ds, ["F1"], trials=5, test_frac=0.2,
                                l2_lambda=0.1, iterations=1000)["advantage"]
    per = [2 * (a - 0.5) for a in rep.sets["F1"].accuracies]
    # trials re-split one dataset, so floor the error at one split's
    # binomial noise instead of pretending 5 independent measurements
    sigma0 = 2 * math.sqrt(0.25 / (0.2 * 2 * BASE["traces_per_class"]))
    se = float(np.std(per, ddof=1) / math.sqrt(len(per)))
    return float(np.mean(per)), max(se, sigma0)


def main() -> None:
    delta = 1e-6
    print("secret: did the victim submit url0 (same as sybils) or url1?")
    adv, se = measure(False, 0.5, delta)
    print(f"unmitigated release loop: F1 advantage {adv:.3f}\n")

    print("dummy-iteration padding, same attacker:")
    print(f"  {'eps':>5} {'measured':>16} {'noise optimum':>14} {'cap':>7}")
    for eps in (1.0, 0.5, 0.1):
        adv, se = measure(True, eps, delta)
        alpha = math.exp(-eps)
        optimum = (1 - alpha) / (1 + alpha)
        cap = 2 * dp_bound(eps, delta)
        print(f"  {eps:>5} {adv:>8.3f} +- {2 * se:.3f} {optimum:>14.3f} {cap:>7.3f}")
    print("\nthe padding mechanism sits just under its own cap, so the")
    print("measured point estimate rides the optimum, not zero")


if __name__ == "__main__":
    main()
