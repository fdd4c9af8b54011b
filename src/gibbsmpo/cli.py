"""Command-line surface: build, verify, sweep and fit.

Reports are machine-readable JSON first (sorted keys, stable layout);
tables printed to stdout are a convenience view.  Exit codes:

    0  success
    2  usage or configuration error
    3  no admissible error budget (for example beta >= n, or, beyond the
       dense cap, a power-law model whose kernel series cannot be formed)
    4  dense or bond-dimension cap exceeded
    5  a measured bound or verification check failed
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .expsum import fit_kernel
from .gibbs import BudgetError, build_gibbs_mpo, build_real_time_mpo, plan_budget
from .merge import MAX_TAYLOR_ORDER
from .model import DEFAULT_DENSE_CAP, ConfigError, DenseCapError, \
    spec_from_config
from .mpo import DEFAULT_MAX_BOND, BondCapError, CompressionPolicy, save_mpo
from . import verify as verify_mod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_CAP = 4
EXIT_VERIFY = 5

_MODE_EXCLUDED_KEYS = {"thermal": {"time"},
                       "real_time": {"beta", "beta_steps"}}
_SWEEP_KIND_KEYS = {"order": {"orders"}, "epsilon": {"epsilons", "beta_steps"},
                    "steps": {"max_steps", "epsilon", "beta_steps",
                              "override_order"}}
_TOP_KEYS = {"format", "model", "run", "verify", "sweep"}
# every key of the run, verify and sweep sections and what its value must
# be: float (any JSON number), int, another type, a collection of the
# allowed values (a range holds ints), or [kind] for a list of such values
_ORDER = range(MAX_TAYLOR_ORDER + 1)
_CHECK_NAMES = [tuple(verify_mod.ALL_CHECKS)]
_SECTION_KEYS = {
    "run": {"mode": tuple(_MODE_EXCLUDED_KEYS), "beta": float,
            "beta_steps": float, "time": float, "epsilon": float,
            "compress": str, "dense_cap": int,
            "max_bond": int, "override_order": _ORDER},
    "verify": {"checks": _CHECK_NAMES, "fast": bool,
               "expect_fail": _CHECK_NAMES, "seed": int},
    "sweep": {"kind": tuple(_SWEEP_KIND_KEYS), "orders": [int],
              "epsilons": [float], "beta_steps": float, "max_steps": int,
              "epsilon": float, "override_order": _ORDER},
}


def _fits(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(v, kind[0]) for v in value)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    if kind is int or isinstance(kind, range):
        return isinstance(value, int) and (kind is int or value in kind)
    return isinstance(value, kind) if isinstance(kind, type) else value in kind


def _describe(kind) -> str:
    if isinstance(kind, list):
        return f"a list of entries each {_describe(kind[0])}"
    return {float: "a number", int: "an integer", bool: "true or false",
            str: "a string", list: "a list"}.get(kind, f"one of {kind}")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a mapping")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    if cfg.get("format", 1) != 1:
        raise ConfigError(f"unsupported config format {cfg.get('format')}")
    for section, kinds in _SECTION_KEYS.items():
        if section in cfg:
            if not isinstance(cfg[section], dict):
                raise ConfigError(f"{section} section must be a mapping")
            bad = set(cfg[section]) - set(kinds)
            if bad:
                raise ConfigError(f"unknown {section} keys: {sorted(bad)}")
            # null means the default: the key is dropped
            cfg[section] = {k: v for k, v in cfg[section].items() if v is not None}
            for key, value in cfg[section].items():
                if not _fits(value, kinds[key]):
                    raise ConfigError(f"{section}.{key} must be "
                                      f"{_describe(kinds[key])}, got {value!r}")
    return cfg


def _dump_json(data: dict, path: Path) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=2,
                               allow_nan=True) + "\n", encoding="utf-8")


def _resolve_beta(run_cfg: dict, spec) -> float:
    if "beta" in run_cfg and "beta_steps" in run_cfg:
        raise ConfigError("give either beta or beta_steps, not both")
    if "beta" in run_cfg:
        return float(run_cfg["beta"])
    if "beta_steps" in run_cfg:
        return float(run_cfg["beta_steps"]) * verify_mod.base_step(spec)
    raise ConfigError("thermal run needs beta or beta_steps")


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _cmd_build(args) -> int:
    cfg = _load_config(args.config)
    if "model" not in cfg or "run" not in cfg:
        raise ConfigError("build needs both a model and a run section")
    spec = spec_from_config(cfg["model"])
    run = dict(cfg["run"])
    mode = run.get("mode", "thermal")
    unused = set(run) & _MODE_EXCLUDED_KEYS[mode]
    if unused:
        raise ConfigError(f"run keys {sorted(unused)} do nothing in mode "
                          f"{mode!r}")
    try:
        epsilon = float(run.get("epsilon", 1e-2))
        policy = CompressionPolicy.parse(args.compress
                                         or run.get("compress", "none"))
        dense_cap = int(run.get("dense_cap", DEFAULT_DENSE_CAP)
                        if args.cap_dense is None else args.cap_dense)
        max_bond = int(run.get("max_bond", DEFAULT_MAX_BOND))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if dense_cap < 1 or max_bond < 1:
        raise ConfigError(f"dense_cap and max_bond must be >= 1, got "
                          f"{dense_cap} and {max_bond}")
    kwargs = dict(policy=policy, dense_cap=dense_cap, max_bond=max_bond,
                  override_order=run.get("override_order"))
    if mode == "real_time":
        if "time" not in run:
            raise ConfigError("real_time run needs a time entry")
        mpo_out, report = build_real_time_mpo(spec, float(run["time"]),
                                              epsilon, **kwargs)
    else:
        beta = _resolve_beta(run, spec)
        mpo_out, report = build_gibbs_mpo(spec, beta, epsilon, **kwargs)

    out_dir = Path(args.out or "gibbsmpo-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    save_mpo(mpo_out, out_dir / "mbeta.mpo")
    _dump_json(report.to_dict(), out_dir / "report.json")
    measured = report.measured
    print(f"wrote {out_dir / 'mbeta.mpo'} (max bond "
          f"{max(report.bond_profile)}) and report.json")
    if measured:
        worst = max(v for k, v in measured.items() if k.startswith("p"))
        print(f"measured worst relative error {worst:.3e} "
              f"(target {epsilon:g})")
        if worst > epsilon or measured.get("trace", 0.0) > epsilon:
            print("TARGET MISSED", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    vcfg = {}
    if args.config:
        cfg = _load_config(args.config)
        vcfg = dict(cfg.get("verify", {}))
    names = vcfg.get("checks")
    expect_fail = set(vcfg.get("expect_fail", verify_mod.DEFAULT_EXPECT_FAIL))
    fast = args.fast or vcfg.get("fast", False)
    seed = args.seed if args.seed is not None else vcfg.get("seed")
    if seed is not None and seed < 0:
        raise ConfigError(f"verify seed must be non-negative, got {seed}")
    results = verify_mod.run_checks(names, fast=fast, seed=seed)
    all_ok = True
    for res in results:
        expected_to_fail = res["name"] in expect_fail
        ok = (not res["passed"]) if expected_to_fail else res["passed"]
        all_ok &= ok
        status = "PASS" if res["passed"] else "FAIL"
        if expected_to_fail:
            status += " (expected-fail)" if not res["passed"] else " (unexpected pass)"
        print(f"{res['name']:28s} {status}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _dump_json({"format": 1, "results": results,
                    "expect_fail": sorted(expect_fail)},
                   out_dir / "verify.json")
    if not all_ok:
        bad = [r for r in results
               if r["passed"] == (r["name"] in expect_fail)]
        print(f"{len(bad)} check(s) violated expectations", file=sys.stderr)
        for r in bad:
            print(json.dumps({r["name"]: r["details"]}, default=str)[:2000],
                  file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if "sweep" not in cfg or "model" not in cfg:
        raise ConfigError("sweep needs model and sweep sections")
    spec = spec_from_config(cfg["model"])
    sweep = dict(cfg["sweep"])
    kind = sweep.get("kind")
    if kind not in _SWEEP_KIND_KEYS:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    unused = set(sweep) - {"kind"} - _SWEEP_KIND_KEYS[kind]
    if unused:
        raise ConfigError(f"sweep keys {sorted(unused)} do nothing in a "
                          f"{kind!r} sweep")
    out_dir = Path(args.out or "gibbsmpo-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = {"order": _sweep_order, "epsilon": _sweep_epsilon,
            "steps": _sweep_steps}[kind](spec, sweep)
    path = out_dir / "sweep.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    flagged = sum(1 for r in rows if r.get("failed"))
    print(f"wrote {len(rows)} rows to {path}"
          + (f" ({flagged} flagged)" if flagged else ""))
    return EXIT_OK


def _sweep_rows(key: str, values, evaluate) -> list[dict]:
    """Rows of index, ``key``, the fields of ``evaluate(value)`` and runtime,
    one per value; a failing value is flagged and the sweep goes on."""
    rows = []
    for idx, value in enumerate(values):
        t0 = time.perf_counter()
        row = {"index": idx, key: value}
        try:
            row.update(evaluate(value))
        except Exception as exc:  # flagged, sweep continues
            row.update(failed=True, error=str(exc))
        row["runtime_s"] = time.perf_counter() - t0
        rows.append(row)
    return rows


def _sweep_order(spec, sweep) -> list[dict]:
    orders = sweep.get("orders", list(range(2, 13)))
    truncation = verify_mod.half_cut_truncation(spec)

    def evaluate(order):
        measured, bound = truncation(order)
        return dict(measured=measured, bound=bound,
                    within_bound=measured <= bound)

    return _sweep_rows("order", [int(o) for o in orders], evaluate)


def _sweep_epsilon(spec, sweep) -> list[dict]:
    epsilons = sweep.get("epsilons", [10.0 ** -x for x in range(1, 5)])
    beta = float(sweep.get("beta_steps", 4)) * verify_mod.base_step(spec)

    def evaluate(eps):
        report = build_gibbs_mpo(spec, beta, eps)[1]
        ledger = report.budget.to_dict()["high_temp_bond_ledger_log10"]
        return dict(order=report.budget.order, ham_bond=report.budget.ham_bond,
                    ledger_log10=ledger, measured=report.measured,
                    stored_max_bond=max(report.bond_profile))

    rows = _sweep_rows("epsilon", [float(e) for e in epsilons], evaluate)
    good = [r for r in rows if not r.get("failed")]
    if len(good) >= 3:
        xs = np.log([math.log(spec.n / r["epsilon"]) for r in good])
        ys = np.log([max(r["ledger_log10"], 1e-9) for r in good])
        slope = float(np.polyfit(xs, ys, 1)[0])
        rows.append({"index": len(rows), "fit": "ln(ledger_log10) vs "
                     "ln(ln(n/eps))", "polylog_exponent": slope})
    return rows


def _sweep_steps(spec, sweep) -> list[dict]:
    max_steps = int(sweep.get("max_steps", 8))
    epsilon = float(sweep.get("epsilon", 1e-2))
    override = sweep.get("override_order")
    # fixed target beta, split ever more finely: the powered error bound is
    # linear in the number of steps
    beta = float(sweep.get("beta_steps", 1)) * verify_mod.base_step(spec)
    q_min = plan_budget(spec, beta, epsilon)[0].steps

    def evaluate(q):
        report = build_gibbs_mpo(spec, beta, epsilon, override_order=override,
                                 override_steps=q)[1]
        predicted = report.budget.total_predicted
        errors = [report.measured[k] for k in ("p1", "p2", "pinf")
                  if k in report.measured]  # none beyond the dense cap
        return dict(predicted=predicted, measured=report.measured,
                    order=report.budget.order,
                    within_bound=max(errors) <= predicted if errors else None)

    return _sweep_rows("steps", range(q_min, q_min + max_steps), evaluate)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    try:
        series = fit_kernel(args.alpha, args.epsilon)
    except ValueError as exc:
        print(f"fit rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    payload = series.to_dict()
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out} ({series.num_terms} terms, certified "
              f"sup error {series.certified_sup_error:.3e})")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbsmpo",
        description="certified MPO approximations of thermal and real-time "
                    "propagators for 1D long-range chains")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="run the pipeline and write artifacts")
    p_build.add_argument("--config", required=True)
    p_build.add_argument("--out", default=None)
    p_build.add_argument("--cap-dense", type=int, default=None)
    p_build.add_argument("--compress", default=None,
                         help="none, tol=REAL or maxbond=INT")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="run the bound-verification suite")
    p_verify.add_argument("--config", default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--fast", action="store_true",
                          help="reduced sizes and trial counts")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="grid runs emitting JSONL rows")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fit = sub.add_parser("fit", help="fit the exponential kernel series")
    p_fit.add_argument("--alpha", type=float, required=True)
    p_fit.add_argument("--epsilon", type=float, required=True)
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DenseCapError, BondCapError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
