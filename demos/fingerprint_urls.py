"""Membership and identity inference against the heavy-hitters service.

The attacker floods the service with one sybil submission per element it
cares about, plus filler keys that pin the hash table one insert short
of a growth rung.  When the victim's key is in the interest set the
table stays put; when it is new, the insert triggers a full rehash the
page channel cannot miss.  Which interest-set element it was is read off
the fault pattern of the victim's counter update.
"""

import tempfile

from leaklab.analysis import fingerprint_advantage
from leaklab.features import FeatureParams
from leaklab.games import GameConfig, run_fingerprinting_game


def main() -> None:
    cfg = GameConfig.from_json({
        "game": "fingerprint",
        "workload": {"kind": "phh", "eps": 0.1, "delta": 1e-9,
                     "mitigated": False, "marked_stage": "aggregate"},
        "policy": {"channels": ["page", "cache", "cipher", "pmc"],
                   "targeted": True},
        "n_traces": 150,
        "base_seed": 99,
    })
    print(f"sampling {cfg.n_traces} victim submissions from the bundled prior")
    with tempfile.TemporaryDirectory() as out:
        ds = run_fingerprinting_game(cfg, out)
        rep = fingerprint_advantage(ds, params=FeatureParams(m_cf=16, m_da=160),
                                    trials=3, test_frac=0.2, l2_lambda=0.1,
                                    iterations=500)
    print(f"membership: advantage {rep.membership.normalized_mean:.3f} "
          f"(blind baseline {rep.s_c:.3f})")
    print(f"identity:   mean accuracy "
          f"{sum(rep.fingerprint.accuracies) / len(rep.fingerprint.accuracies):.3f} "
          f"(blind baseline {rep.s_f:.4f})")


if __name__ == "__main__":
    main()
