"""Command line interface.

Subcommands: ``simulate`` (generate a labeled dataset from a game
config), ``analyze`` (measure attack advantage on a dataset), ``bound``
(analytic privacy bound and padding parameters), ``sweep`` (bound table
over an epsilon grid) and ``covert`` (covert-channel self test).

Exit codes: 0 success, 2 configuration or usage error, 3 runtime
failure, 4 verification failure (a checked property did not hold).
All reports are JSON with sorted keys, validated against the bundled
report schema before they are written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .schemas import SchemaError, validate_config, validate_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_VERIFY = 4

_SEED_ENV = "LEAKLAB_SEED"


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _config_error(msg: str) -> _CliError:
    return _CliError(EXIT_CONFIG, msg)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise _config_error(f"config file not found: {path}")
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise _config_error(f"config is not valid JSON: {e}") from e
    try:
        validate_config(obj)
    except SchemaError as e:
        raise _config_error(f"config schema violation at {e}") from e
    return obj


def _resolve_seed(explicit: int | None, cfg_obj: dict | None = None) -> int | None:
    """--seed beats LEAKLAB_SEED beats the config value."""
    if explicit is not None:
        return explicit
    env = os.environ.get(_SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _config_error(f"{_SEED_ENV} must be an integer, got {env!r}")
    if cfg_obj is not None:
        return cfg_obj.get("base_seed")
    return None


def _emit_report(args, *, command: str, params: dict, results: dict,
                 config_hash: str | None = None, seed: int | None = None,
                 ok: bool = True) -> None:
    report = {
        "kind": "leaklab-report",
        "tool": "leaklab",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config_hash": config_hash,
        "params": params,
        "results": results,
        "ok": ok,
    }
    validate_report(report)
    text = json.dumps(report, sort_keys=True, indent=1)
    dest = getattr(args, "report", None)
    if dest:
        Path(dest).write_text(text + "\n")
    print(text)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # an OS without CPU affinity
        return os.cpu_count() or 1


def _write_svg(path: str | None, svg: str) -> None:
    if path:
        Path(path).write_text(svg)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    from .games import (GameConfig, _check_out_dir, _plan, run_distinguishing_game,
                        run_fingerprinting_game)

    if args.jobs < 1:
        raise _config_error("--jobs must be >= 1")
    cfg_obj = _load_config(args.config)
    seed = _resolve_seed(args.seed, cfg_obj)
    if seed is not None:
        cfg_obj["base_seed"] = int(seed)
    try:
        cfg = GameConfig.from_json(cfg_obj)
        plan = _plan(cfg)
    except (ValueError, TypeError, KeyError) as e:
        raise _config_error(f"bad game config: {e}") from e
    try:
        _check_out_dir(Path(args.out))
    except ValueError as e:
        raise _config_error(f"--out: {e}") from e

    params = {"config": str(args.config), "out": str(args.out),
              "jobs": args.jobs, "dry_run": bool(args.dry_run)}
    if args.dry_run:
        _emit_report(args, command="simulate", params=params,
                     results={"planned_traces": len(plan[1]), "game": cfg.game,
                              "workload": cfg.workload.get("kind"),
                              "channels": sorted(cfg.policy.get("channels", []))},
                     config_hash=cfg.config_hash(), seed=cfg.base_seed)
        return EXIT_OK

    runner = (run_distinguishing_game if cfg.game == "distinguish"
              else run_fingerprinting_game)
    ds = runner(cfg, out_dir=args.out, jobs=args.jobs, plan=plan)
    # observations: the distinct observations the runs placed
    results = {"n_traces": len(ds), "out_dir": str(args.out), "game": cfg.game,
               "observations": len({e.obs for e in ds.entries})}
    for key in ("s_c", "s_f"):
        if key in ds.metadata:
            results[key] = ds.metadata[key]
    _emit_report(args, command="simulate", params=params, results=results,
                 config_hash=cfg.config_hash(), seed=cfg.base_seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    from .analysis import _FIT_TOLERANCE, advantage_reports, fingerprint_advantage
    from .features import FeatureParams
    from .games import LabeledDataset

    for name in ("trials", "iterations", "n_bins", "m_cf", "m_da", "jobs"):
        if getattr(args, name) < 1:
            raise _config_error(f"--{name.replace('_', '-')} must be >= 1")
    if not 0.0 < args.test_frac < 1.0:
        raise _config_error("--test-frac must be in (0, 1)")
    if not 0.0 <= args.l2_lambda < math.inf:
        raise _config_error("--l2-lambda must be finite and >= 0")
    if args.fingerprint and args.seq:
        raise _config_error("--seq does not apply to --fingerprint")
    root = Path(args.dataset)
    if not (root / "dataset.json").is_file():
        raise _config_error(f"not a dataset directory: {args.dataset}")
    ds = LabeledDataset.load(root)
    params = FeatureParams(n_bins=args.n_bins, m_cf=args.m_cf, m_da=args.m_da)
    kw = dict(trials=args.trials, test_frac=args.test_frac,
              l2_lambda=args.l2_lambda, iterations=args.iterations)
    cli_params = {"dataset": str(args.dataset), "sets": args.sets,
                  "seq": bool(args.seq), "fingerprint": bool(args.fingerprint),
                  "trials": args.trials, "test_frac": args.test_frac,
                  "l2_lambda": args.l2_lambda, "iterations": args.iterations,
                  "n_bins": args.n_bins, "m_cf": args.m_cf, "m_da": args.m_da}
    results: dict = {"n_traces": len(ds)}

    if args.fingerprint:
        if ds.metadata.get("labels") != "membership_identity":
            raise _config_error("--fingerprint needs a fingerprinting dataset")
        rep = fingerprint_advantage(ds, params=params, jobs=args.jobs, **kw)
        results["fingerprint"] = rep.to_json()
        sets = {"membership": rep.membership, "fingerprint": rep.fingerprint}
        warnings = list(rep.warnings)
    else:
        names = _parse_sets(args.sets)
        if not names and not args.seq:
            raise _config_error("nothing to analyze: give --sets and/or --seq")
        reports = advantage_reports(ds, names or None, seq=args.seq,
                                    params=params, jobs=args.jobs, **kw)
        results.update((key, rep.to_json()) for key, rep in reports.items())
        sets = {name: r for rep in reports.values() for name, r in rep.sets.items()}
        warnings = [w for rep in reports.values() for w in rep.warnings]
    unconverged = sorted(name for name, r in sets.items() if not r.converged)
    warnings += [f"a fit of set {name} did not converge (gradient norm "
                 f"{sets[name].grad_norm:.3g} > {_FIT_TOLERANCE:g})" for name in unconverged]
    for warning in warnings:
        print(f"leaklab: warning: {warning}", file=sys.stderr)

    if args.svg:
        from .plotting import bar_chart

        bars = {}
        for group in ("advantage", "seq"):
            for name, r in results.get(group, {}).get("sets", {}).items():
                bars[name] = r["normalized_mean"]
        if "fingerprint" in results:
            bars["membership"] = results["fingerprint"]["membership"]["normalized_mean"]
            bars["identity"] = results["fingerprint"]["fingerprint"]["normalized_mean"]
        _write_svg(args.svg, bar_chart(bars, title="normalized advantage",
                                       y_label="advantage"))

    _emit_report(args, command="analyze", params=cli_params, results=results,
                 config_hash=ds.metadata.get("config_hash"),
                 seed=ds.base_seed, ok=not unconverged)
    return EXIT_VERIFY if unconverged else EXIT_OK


def _parse_sets(spec: str | None) -> list[str]:
    from .features import FEATURE_SET_NAMES

    if spec is None or spec == "":
        return []
    if spec == "all":
        return list(FEATURE_SET_NAMES)
    names = [s.strip() for s in spec.split(",") if s.strip()]
    bad = [n for n in names if n not in FEATURE_SET_NAMES]
    if bad:
        raise _config_error(
            f"unknown feature sets {bad}; valid: {', '.join(FEATURE_SET_NAMES)}")
    return names


# ---------------------------------------------------------------------------
# bound / sweep
# ---------------------------------------------------------------------------

def _bound_row(eps: float, delta: float) -> dict:
    from .analysis import dp_bound, dp_bound_useful
    from .mitigation import dummy_shift, threshold_value, verify_dummy_dp

    row = {
        "eps": eps,
        "delta": delta,
        "advantage_bound": dp_bound(eps, delta),
        "normalized_bound": 2.0 * dp_bound(eps, delta),
        "useful": dp_bound_useful(eps, delta),
    }
    row["dummy_shift"] = dummy_shift(eps, delta) if 0 < delta < 1 else None
    row["threshold"] = threshold_value(eps, delta) if 0 < delta < 0.5 else None
    row["padding_verified"] = verify_dummy_dp(eps, delta)
    return row


def _check_eps_delta(eps_flag: str, eps_values, delta: float) -> None:
    # written so that NaN fails each check
    if not all(0.0 < eps < math.inf for eps in eps_values):
        raise _config_error(f"{eps_flag} must be finite and > 0")
    if not 0.0 <= delta < 1.0:
        raise _config_error("--delta must be in [0, 1)")


def _cmd_bound(args) -> int:
    _check_eps_delta("--eps", [args.eps], args.delta)
    if args.claim_eps is not None and not 0.0 < args.claim_eps < math.inf:
        raise _config_error("--claim-eps must be finite and > 0")
    if args.claim_delta is not None and not 0.0 <= args.claim_delta < 1.0:
        raise _config_error("--claim-delta must be in [0, 1)")
    if args.claim_delta is not None and args.claim_eps is None:
        raise _config_error("--claim-delta needs --claim-eps")
    row = _bound_row(args.eps, args.delta)
    if args.claim_eps is not None:
        from .mitigation import verify_dummy_dp

        row["claim_eps"] = args.claim_eps
        row["claim_delta"] = args.claim_delta if args.claim_delta is not None else args.delta
        row["claim_verified"] = verify_dummy_dp(
            args.eps, args.delta, claim_eps=row["claim_eps"],
            claim_delta=row["claim_delta"])
    ok = row["padding_verified"] and row.get("claim_verified", True)
    _emit_report(args, command="bound",
                 params={"eps": args.eps, "delta": args.delta},
                 results=row, ok=bool(ok))
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_sweep(args) -> int:
    try:
        eps_list = [float(s) for s in args.eps_list.split(",") if s.strip()]
    except ValueError as e:
        raise _config_error(f"bad --eps-list: {e}") from e
    if not eps_list:
        raise _config_error("--eps-list needs positive numbers")
    _check_eps_delta("--eps-list", eps_list, args.delta)
    rows = [_bound_row(eps, args.delta) for eps in eps_list]
    ok = all(r["padding_verified"] for r in rows)
    if args.svg:
        from .plotting import line_chart

        series = {
            "normalized bound": [(r["eps"], min(1.0, r["normalized_bound"]))
                                 for r in rows],
        }
        if all(r["dummy_shift"] is not None for r in rows):
            hi = max(r["dummy_shift"] for r in rows) or 1
            series["padding shift (scaled)"] = [
                (r["eps"], r["dummy_shift"] / hi) for r in rows]
        _write_svg(args.svg, line_chart(series, title="privacy bound sweep",
                                        x_label="epsilon", y_label="bound"))
    _emit_report(args, command="sweep",
                 params={"eps_list": eps_list, "delta": args.delta},
                 results={"rows": rows}, ok=bool(ok))
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# covert
# ---------------------------------------------------------------------------

def _cmd_covert(args) -> int:
    from .games import derive_seed
    from .machine import CollectorPolicy, SimMachine, run_collect
    from .trace import DataAccess, windowed_events, write_trace
    from .workloads import CovertDecodeError, CovertSender, SecretMessage, covert_decode

    if args.hex is not None:
        try:
            payload = bytes.fromhex(args.hex)
        except ValueError as e:
            raise _config_error(f"bad --hex: {e}") from e
    else:
        payload = args.text.encode()
    if not payload:
        raise _config_error("message must be nonempty")
    if args.reps < 1:
        raise _config_error("--reps must be >= 1")
    channels = frozenset(s.strip() for s in args.channels.split(",") if s.strip())
    try:
        policy = CollectorPolicy(channels=channels)
    except Exception as e:
        raise _config_error(f"bad --channels: {e}") from e
    if not {"page", "cipher"} <= channels:
        raise _config_error("covert transport needs the page and cipher channels")

    seed = _resolve_seed(args.seed) or 0
    msg = SecretMessage(payload, repetitions=args.reps)
    machine = SimMachine(cipher_seed=derive_seed(seed, "cipher"),
                         alloc_seed=derive_seed(seed, "alloc"))
    trace, _sent = run_collect(machine, CovertSender(msg), policy,
                               trace_seed=seed)
    if args.out:
        Path(args.out).write_text(write_trace(trace))

    expected = msg.stream
    decode_error = None
    decoded = b""
    try:
        decoded = covert_decode(trace)
    except CovertDecodeError as e:
        decode_error = str(e)
    errors = sum(1 for a, b in zip(decoded, expected) if a != b)
    errors += abs(len(decoded) - len(expected))
    faults = sum(1 for ev in windowed_events(trace) if isinstance(ev, DataAccess))
    results = {
        "bytes_sent": len(expected),
        "repetitions": args.reps,
        "decoded_bytes": len(decoded),
        "byte_errors": errors,
        "error_rate": errors / len(expected),
        "faults_per_byte": faults / len(expected),
        "decode_error": decode_error,
    }
    ok = errors == 0 and decode_error is None
    _emit_report(args, command="covert",
                 params={"reps": args.reps, "channels": sorted(channels)},
                 results=results, seed=seed, ok=ok)
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="leaklab",
        description="Side-channel leakage estimation against a simulated "
                    "memory-encrypted guest.")
    p.add_argument("--version", action="version", version=f"leaklab {__version__}")
    sub = p.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="generate a labeled trace dataset")
    sim.add_argument("--config", required=True, help="game config JSON")
    sim.add_argument("--out", required=True, help="output dataset directory")
    sim.add_argument("--jobs", type=int, default=1)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--dry-run", action="store_true")
    sim.add_argument("--report", default=None, help="also write the report here")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="measure attack advantage on a dataset")
    ana.add_argument("--dataset", required=True)
    ana.add_argument("--sets", default="all",
                     help="comma list of feature sets, or 'all', or ''")
    ana.add_argument("--seq", action="store_true",
                     help="also run the sequence (n-gram) classifier")
    ana.add_argument("--fingerprint", action="store_true",
                     help="membership/identity analysis for fingerprint datasets")
    ana.add_argument("--trials", type=int, default=5)
    ana.add_argument("--test-frac", type=float, default=0.2)
    ana.add_argument("--l2-lambda", type=float, default=1.0)
    ana.add_argument("--iterations", type=int, default=1000)
    ana.add_argument("--n-bins", type=int, default=10)
    ana.add_argument("--m-cf", type=int, default=64)
    ana.add_argument("--m-da", type=int, default=64)
    ana.add_argument("--jobs", type=int, default=_usable_cpus(),
                     help="worker processes that load and featurize traces "
                          "(default: the CPUs this process may use)")
    ana.add_argument("--report", default=None)
    ana.add_argument("--svg", default=None)
    ana.set_defaults(func=_cmd_analyze)

    bnd = sub.add_parser("bound", help="analytic advantage bound for (eps, delta)")
    bnd.add_argument("--eps", type=float, required=True)
    bnd.add_argument("--delta", type=float, required=True)
    bnd.add_argument("--claim-eps", type=float, default=None)
    bnd.add_argument("--claim-delta", type=float, default=None)
    bnd.add_argument("--report", default=None)
    bnd.set_defaults(func=_cmd_bound)

    swp = sub.add_parser("sweep", help="bound table over an epsilon grid")
    swp.add_argument("--eps-list", required=True, help="comma-separated epsilons")
    swp.add_argument("--delta", type=float, required=True)
    swp.add_argument("--report", default=None)
    swp.add_argument("--svg", default=None)
    swp.set_defaults(func=_cmd_sweep)

    cov = sub.add_parser("covert", help="covert-channel roundtrip self test")
    g = cov.add_mutually_exclusive_group(required=True)
    g.add_argument("--text", default=None)
    g.add_argument("--hex", default=None)
    cov.add_argument("--reps", type=int, default=1)
    cov.add_argument("--seed", type=int, default=None)
    cov.add_argument("--channels", default="page,cache,cipher,pmc")
    cov.add_argument("--out", default=None, help="write the trace here")
    cov.add_argument("--report", default=None)
    cov.set_defaults(func=_cmd_covert)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except _CliError as e:
        print(f"leaklab: {e}", file=sys.stderr)
        return e.code
    except SchemaError as e:
        print(f"leaklab: schema violation: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"leaklab: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
