"""CLI surface: exit codes, artifacts, determinism, sweeps, fit."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import gibbsmpo
from gibbsmpo.cli import (
    EXIT_BUDGET,
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)
from gibbsmpo.mpo import load_mpo


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def demo_config(n=4, **run):
    base_run = {"mode": "thermal", "beta_steps": 2, "epsilon": 0.01}
    base_run.update(run)
    return {"format": 1,
            "model": {"name": "power_law_ising", "n": n, "alpha": 3.0},
            "run": base_run}


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, demo_config())
    out = tmp_path / "out"
    assert main(["build", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["format"] == 1
    assert report["measured"]["p2"] <= 0.01
    mpo = load_mpo(out / "mbeta.mpo")
    assert mpo.n == 4
    assert list(mpo.bond_profile) == report["bond_profile"]


def test_build_reports_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, demo_config(n=6))
    reports = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["build", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "report.json").read_text())
        data.pop("timings")
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]
    assert (tmp_path / "a" / "mbeta.mpo").read_bytes() \
        == (tmp_path / "b" / "mbeta.mpo").read_bytes()


def test_build_real_time_mode(tmp_path):
    payload = {"format": 1,
               "model": {"name": "power_law_ising", "n": 4, "alpha": 3.0},
               "run": {"mode": "real_time", "time": 0.25, "epsilon": 0.01}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "rt"
    assert main(["build", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["budget"]["real_time"] is True
    assert report["measured"]["pinf"] <= 0.01


def test_build_budget_error_exit_code(tmp_path):
    payload = demo_config()
    payload["run"] = {"mode": "thermal", "beta": 10.0, "epsilon": 0.01}
    cfg = write_config(tmp_path, payload, "over.json")
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "x")]) \
        == EXIT_BUDGET
    # json reads NaN, and a NaN step meets neither budget comparison; the
    # identity of a zero beta still needs an admissible target
    for run in ({"mode": "thermal", "beta": math.nan, "epsilon": 0.01},
                {"mode": "real_time", "time": math.nan, "epsilon": 0.01},
                {"mode": "thermal", "beta": 0, "epsilon": 5}):
        payload["run"] = run
        cfg = write_config(tmp_path, payload, "nan.json")
        assert main(["build", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == EXIT_BUDGET, run


@pytest.mark.parametrize("alpha", [1.5, 100.0, 1e308])
def test_build_without_kernel_series_exit_budget(tmp_path, alpha):
    # beyond the dense cap a power-law build runs the kernel surrogate, and
    # no float64 series exists below alpha = 2; at 100 its weights (even at
    # the first target, 0.5) and at 1e308 its half-width overflow.  The
    # refusal comes with no warning at all.
    payload = demo_config()
    payload["model"]["alpha"] = alpha
    cfg = write_config(tmp_path, payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["build", "--config", cfg, "--cap-dense", "4",
                     "--out", str(tmp_path / "o")])
    assert code == EXIT_BUDGET
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("alpha", [1.5, 50.0])
def test_build_in_cap_needs_no_kernel_series(tmp_path, alpha):
    # within the dense cap the input Hamiltonian runs, series or not
    payload = demo_config()
    payload["model"]["alpha"] = alpha
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["build", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["budget"]["two_local_path"] is False
    assert all(v <= 0.01 for v in report["measured"].values())


@pytest.mark.parametrize("coupling", [0, 1e-9])
def test_build_beyond_cap_with_tiny_coupling(tmp_path, coupling):
    # zero pair weight leaves no kernel to replace; a tiny one makes the
    # pair allowance so loose that the first fit target, 0.5, meets it.
    # A lossless merge assembly at this cap would exceed the bond cap.
    payload = demo_config()
    payload["model"]["coupling"] = coupling
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["build", "--config", cfg, "--cap-dense", "4",
                 "--compress", "tol=1e-10", "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["budget"]["two_local_path"] is (coupling != 0)


def test_build_beyond_cap_with_steep_alpha(tmp_path):
    # alpha = 50 has a float64 series at a loose target: halving from 0.5
    # certifies one before the weights overflow, so the surrogate builds
    payload = demo_config()
    payload["model"]["alpha"] = 50.0
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["build", "--config", cfg, "--cap-dense", "4",
                 "--compress", "tol=1e-10", "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["budget"]["two_local_path"] is True


def test_build_zero_coupling_runs_the_input_hamiltonian(tmp_path):
    # zero pair weight leaves no kernel to replace: the build runs the
    # input Hamiltonian and meets its target
    payload = demo_config()
    payload["model"]["coupling"] = 0
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["build", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["budget"]["two_local_path"] is False
    assert report["measured"]
    assert all(v <= 0.01 for v in report["measured"].values())


def test_build_config_error_exit_codes(tmp_path):
    bad = demo_config()
    bad["run"]["mystery"] = 1
    cfg = write_config(tmp_path, bad, "bad.json")
    assert main(["build", "--config", cfg]) == EXIT_CONFIG
    missing = {"format": 1, "model": {"name": "power_law_ising", "n": 4,
                                      "alpha": 3.0}}
    cfg2 = write_config(tmp_path, missing, "missing.json")
    assert main(["build", "--config", cfg2]) == EXIT_CONFIG
    cfg3 = tmp_path / "broken.json"
    cfg3.write_text("{not json")
    assert main(["build", "--config", str(cfg3)]) == EXIT_CONFIG
    listed = demo_config(mode=["thermal"])
    cfg4 = write_config(tmp_path, listed, "listed.json")
    assert main(["build", "--config", cfg4]) == EXIT_CONFIG
    for alpha in (math.inf, math.nan):  # json writes Infinity and NaN
        exponent = demo_config()
        exponent["model"]["alpha"] = alpha
        cfg5 = write_config(tmp_path, exponent, "alpha.json")
        assert main(["build", "--config", cfg5]) == EXIT_CONFIG, alpha


def test_build_bad_flag_values_exit_config(tmp_path):
    cfg = write_config(tmp_path, demo_config())
    assert main(["build", "--config", cfg, "--compress", "squash=5"]) \
        == EXIT_CONFIG
    assert main(["build", "--config", cfg, "--compress", "tol=nan"]) \
        == EXIT_CONFIG
    assert main(["build", "--config", cfg, "--cap-dense", "0"]) == EXIT_CONFIG
    for key in ("dense_cap", "max_bond"):
        bad = write_config(tmp_path, demo_config(**{key: 0}), "bad.json")
        assert main(["build", "--config", bad]) == EXIT_CONFIG, key


def test_removed_seed_and_sweep_keys_are_rejected(tmp_path):
    # the model section alone fixes the chain and a build is deterministic,
    # so neither a seed nor sweep-level n/alpha is accepted; the policy and
    # the dense cap decide dense vs MPO arithmetic, so no engine either; and
    # one spectrum serves every Schatten order, so no pnorms subset
    for key, value in (("seed", 7), ("engine", "mpo"),
                       ("pnorms", [2, "inf"])):
        removed = demo_config()
        removed["run"][key] = value
        assert main(["build", "--config", write_config(
            tmp_path, removed, f"{key}.json")]) == EXIT_CONFIG
    sweep = {"format": 1,
             "model": {"name": "power_law_ising", "n": 4, "alpha": 3.0},
             "sweep": {"kind": "order", "n": 4}}
    assert main(["sweep", "--config",
                 write_config(tmp_path, sweep, "sweep.json")]) == EXIT_CONFIG
    cfg = write_config(tmp_path, demo_config())
    for command, flag, value in (("build", "--seed", "1"),
                                 ("sweep", "--seed", "1"),
                                 ("build", "--pnorms", "2,inf")):
        with pytest.raises(SystemExit) as err:
            main([command, "--config", cfg, flag, value])
        assert err.value.code == EXIT_CONFIG


def test_build_cap_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, demo_config(
        n=6, max_bond=256, dense_cap=16))
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "c")]) \
        == EXIT_CAP


def test_build_missed_target_exit_code(tmp_path):
    # an identity-only merge cascade at a tight target must miss and say so
    cfg = write_config(tmp_path, demo_config(
        n=6, beta_steps=8, epsilon=1e-6, override_order=0))
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "m")]) \
        == EXIT_VERIFY
    report = json.loads((tmp_path / "m" / "report.json").read_text())
    assert report["measured"]["p2"] > 1e-6
    assert report["certified"] is False


def test_build_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, demo_config(n=6))
    out = tmp_path / "flags"
    assert main(["build", "--config", cfg, "--out", str(out),
                 "--compress", "maxbond=16"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["policy"] == "maxbond=16"
    assert set(report["measured"]) == {"p1", "p2", "pinf", "trace"}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fast_suite_passes(tmp_path):
    out = tmp_path / "verify"
    assert main(["verify", "--fast", "--out", str(out)]) == EXIT_OK
    results = json.loads((out / "verify.json").read_text())["results"]
    by_name = {r["name"]: r["passed"] for r in results}
    assert by_name["forced_low_order"] is False  # honored as expected-fail
    assert all(ok for name, ok in by_name.items()
               if name != "forced_low_order")


def test_verify_expected_fail_marker(tmp_path):
    cfg = write_config(tmp_path, {
        "format": 1,
        "verify": {"checks": ["decoupled_identity", "forced_low_order"],
                   "expect_fail": ["forced_low_order"]}})
    assert main(["verify", "--config", cfg]) == EXIT_OK
    # marking a passing check as expect_fail must flip the exit status
    cfg2 = write_config(tmp_path, {
        "format": 1,
        "verify": {"checks": ["decoupled_identity"],
                   "expect_fail": ["decoupled_identity"]}}, "c2.json")
    assert main(["verify", "--config", cfg2]) == EXIT_VERIFY


def test_verify_negative_seed_exits_config(tmp_path):
    assert main(["verify", "--fast", "--seed", "-1"]) == EXIT_CONFIG
    cfg = write_config(tmp_path, {"format": 1, "verify": {
        "checks": ["kernel_order_scaling"], "seed": -3}})
    assert main(["verify", "--config", cfg]) == EXIT_CONFIG


def test_run_checks_passes_seed_only_to_a_seed_parameter(monkeypatch):
    # a local variable named seed is not a parameter: the check must run
    # without an unexpected keyword
    def local_seed_check():
        seed = 11
        return {"name": "local_seed", "passed": seed == 11}

    def seeded_check(trials=1, seed=0):
        return {"name": "seeded", "passed": seed == 3}

    monkeypatch.setitem(gibbsmpo.verify.ALL_CHECKS, "local_seed", local_seed_check)
    monkeypatch.setitem(gibbsmpo.verify.ALL_CHECKS, "seeded", seeded_check)
    results = gibbsmpo.verify.run_checks(["local_seed", "seeded"], seed=3)
    assert [r["passed"] for r in results] == [True, True]


def test_verify_unknown_check_rejected(tmp_path):
    cfg = write_config(tmp_path, {"format": 1,
                                  "verify": {"checks": ["nonexistent"]}})
    assert main(["verify", "--config", cfg]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def read_rows(path):
    return [json.loads(line) for line in open(path)]


def test_sweep_order_rows_within_bound(tmp_path, monkeypatch):
    import numpy as np
    from gibbsmpo import oracle, verify
    from gibbsmpo.model import power_law_ising
    cfg = write_config(tmp_path, {
        "format": 1,
        "model": {"name": "power_law_ising", "n": 6, "alpha": 3.0},
        "sweep": {"kind": "order", "orders": [2, 4, 6]}})
    out = tmp_path / "sw"
    decomposed, eighs = [], []
    real, real_decompose = np.linalg.eigh, oracle.decompose
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: eighs.append(len(h)) or real(h))
    monkeypatch.setattr(oracle, "decompose",
                        lambda h: decomposed.append(len(h)) or real_decompose(h))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    # one H_AB, H_A, H_B for the whole sweep, each spin-flip symmetric and
    # decomposed as two half-size eigh
    assert decomposed == [64, 8, 8]
    assert eighs == [32, 32, 4, 4, 4, 4]
    rows = read_rows(out / "sweep.jsonl")
    assert len(rows) == 3
    assert all(r["within_bound"] for r in rows)
    assert all("runtime_s" in r for r in rows)
    monkeypatch.undo()
    check = verify.check_merge_truncation_sweep(power_law_ising(6, 3.0),
                                                [2, 4, 6])
    assert [r["measured"] for r in rows] == \
        [r["measured"] for r in check["details"]["rows"]]


def test_sweep_epsilon_reports_fit(tmp_path):
    cfg = write_config(tmp_path, {
        "format": 1,
        "model": {"name": "power_law_ising", "n": 4, "alpha": 3.0},
        "sweep": {"kind": "epsilon", "epsilons": [1e-1, 1e-2, 1e-3],
                  "beta_steps": 2}})
    out = tmp_path / "swe"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_rows(out / "sweep.jsonl")
    fit_row = rows[-1]
    assert "polylog_exponent" in fit_row
    data_rows = [r for r in rows if "epsilon" in r]
    assert all(r["measured"]["p2"] <= r["epsilon"] for r in data_rows)
    ledgers = [r["ledger_log10"] for r in data_rows]
    assert ledgers == sorted(ledgers)  # tighter targets need larger ledgers


def test_sweep_steps_measured_below_prediction(tmp_path):
    cfg = write_config(tmp_path, {
        "format": 1,
        "model": {"name": "power_law_ising", "n": 4, "alpha": 3.0},
        "sweep": {"kind": "steps", "max_steps": 4, "epsilon": 0.01}})
    out = tmp_path / "sws"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_rows(out / "sweep.jsonl")
    assert len(rows) == 4
    for row in rows:
        assert not row.get("failed"), row
        assert row["measured"]["p2"] <= row["predicted"]


def test_sweep_unknown_kind(tmp_path):
    for kind in ("banana", ["order"]):
        cfg = write_config(tmp_path, {
            "format": 1,
            "model": {"name": "power_law_ising", "n": 4, "alpha": 3.0},
            "sweep": {"kind": kind}})
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize("sweep", [
    {"kind": "order", "orders": [2], "epsilons": [1e-2]},
    {"kind": "order", "orders": [2], "max_steps": 2},
    {"kind": "epsilon", "epsilons": [1e-2], "max_steps": 2},
    {"kind": "steps", "max_steps": 1, "orders": [2]},
], ids=["order-epsilons", "order-max_steps", "epsilon-max_steps",
        "steps-orders"])
def test_sweep_keys_unused_by_kind_are_rejected(tmp_path, sweep):
    cfg = write_config(tmp_path, {
        "format": 1,
        "model": {"name": "power_law_ising", "n": 4, "alpha": 3.0},
        "sweep": sweep})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG


@pytest.mark.parametrize("run", [
    {"mode": "thermal", "beta_steps": 2, "time": 0.5},
    {"mode": "real_time", "time": 0.25, "beta": 0.1},
    {"mode": "real_time", "time": 0.25, "beta_steps": 2},
], ids=["thermal-time", "real_time-beta", "real_time-beta_steps"])
def test_run_keys_unused_by_mode_are_rejected(tmp_path, run):
    cfg = write_config(tmp_path, {
        "format": 1,
        "model": {"name": "power_law_ising", "n": 4, "alpha": 3.0},
        "run": run})
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG


# (command, its config section): one malformed value each
MALFORMED_VALUES = {
    "order-string": ("build", {"beta_steps": 2, "override_order": "x"}),
    "order-too-high": ("build", {"beta_steps": 2, "override_order": 100}),
    "order-fraction": ("build", {"beta_steps": 2, "override_order": 2.5}),
    "order-bool": ("build", {"beta_steps": 2, "override_order": True}),
    # two_local is no key at all: the dense cap picks the run Hamiltonian
    "two_local": ("build", {"beta_steps": 2, "two_local": "maybe"}),
    "two_local-on": ("build", {"beta_steps": 2, "two_local": "on"}),
    "two_local-auto": ("build", {"beta_steps": 2, "two_local": "auto"}),
    "two_local-off": ("build", {"beta_steps": 2, "two_local": "off"}),
    "sweep-two_local-on": ("sweep", {"kind": "steps", "two_local": "on"}),
    "sweep-two_local-off": ("sweep", {"kind": "steps", "two_local": "off"}),
    "beta_steps": ("build", {"beta_steps": "x"}),
    "beta": ("build", {"beta": "x"}),
    "time": ("build", {"mode": "real_time", "time": "x"}),
    "max_steps": ("sweep", {"kind": "steps", "max_steps": "x"}),
    "epsilons-entry": ("sweep", {"kind": "epsilon", "epsilons": ["x"]}),
    "epsilons-scalar": ("sweep", {"kind": "epsilon", "epsilons": 0.1}),
    "orders-entry": ("sweep", {"kind": "order", "orders": ["x"]}),
    "checks-unknown": ("verify", {"checks": ["bogus"]}),
    "checks-string": ("verify", {"checks": "kernel_order_scaling"}),
    "seed": ("verify", {"checks": ["kernel_order_scaling"], "seed": "x"}),
    "expect_fail-string": ("verify", {"checks": ["kernel_order_scaling"],
                                      "expect_fail": "forced_low_order"}),
}


@pytest.mark.parametrize("command, section", MALFORMED_VALUES.values(),
                         ids=MALFORMED_VALUES.keys())
def test_malformed_config_values_exit_config(tmp_path, command, section):
    cfg = write_config(tmp_path, {
        "format": 1,
        "model": {"name": "power_law_ising", "n": 4, "alpha": 3.0},
        "run" if command == "build" else command: section})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG


def test_null_config_values_mean_the_default(tmp_path):
    cfg = write_config(tmp_path, demo_config(override_order=None,
                                             epsilon=None))
    out = tmp_path / "o"
    assert main(["build", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["certified"] and report["budget"]["epsilon"] == 0.01


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_prints_series(tmp_path, capsys):
    assert main(["fit", "--alpha", "3", "--epsilon", "1e-3"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 28
    assert len(payload["weights"]) == 57


def test_fit_rejects_invalid(capsys):
    assert main(["fit", "--alpha", "3", "--epsilon", "1"]) == EXIT_CONFIG
    assert main(["fit", "--alpha", "1.0", "--epsilon", "1e-3"]) == EXIT_CONFIG
    # no finite exponent, or (1e308) no finite series half-width
    for alpha in ("inf", "nan", "1e308"):
        assert main(["fit", "--alpha", alpha, "--epsilon", "0.01"]) \
            == EXIT_CONFIG, alpha


def test_fit_boundary_alpha_warns(tmp_path, capsys):
    with pytest.warns(UserWarning):
        code = main(["fit", "--alpha", "2.5", "--epsilon", "1e-2",
                     "--out", str(tmp_path / "series.json")])
    assert code == EXIT_OK
    saved = json.loads((tmp_path / "series.json").read_text())
    assert saved["alpha"] == 2.5


# ---------------------------------------------------------------------------
# bundled demo configs
# ---------------------------------------------------------------------------

def test_bundled_configs_are_valid():
    from pathlib import Path
    import warnings
    from gibbsmpo.cli import _load_config
    from gibbsmpo.model import spec_from_config
    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    paths = sorted(cfg_dir.glob("*.json"))
    assert len(paths) >= 6
    for path in paths:
        cfg = _load_config(str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = spec_from_config(cfg["model"])
        assert spec.n >= 2


def test_bundled_steps_sweeps_are_within_bound(tmp_path):
    # a steps row predicts the composed error, kernel replacement included,
    # so every bundled steps sweep measures within it on every row
    from pathlib import Path
    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    paths = [p for p in sorted(cfg_dir.glob("sweep_*.json"))
             if json.loads(p.read_text())["sweep"]["kind"] == "steps"]
    assert paths
    for path in paths:
        out = tmp_path / path.stem
        assert main(["sweep", "--config", str(path), "--out", str(out)]) \
            == EXIT_OK
        rows = read_rows(out / "sweep.jsonl")
        assert rows and all(r["within_bound"] is True for r in rows), rows


def test_bundled_demo_build_runs(tmp_path):
    from pathlib import Path
    cfg = Path(__file__).resolve().parents[1] / "configs" / "thermal_heisenberg_a3.json"
    out = tmp_path / "demo"
    assert main(["build", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["measured"]["pinf"] <= 0.01


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def _child_env():
    # the child imports the same package as the tests, installed or not
    src = os.path.dirname(os.path.dirname(gibbsmpo.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "gibbsmpo.cli", "--help"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "build" in proc.stdout and "verify" in proc.stdout


# ---------------------------------------------------------------------------
# runtime dependencies: numpy only
# ---------------------------------------------------------------------------

def test_no_module_imports_scipy():
    # a lazy import inside a function counts too
    import re
    from pathlib import Path
    for path in Path(gibbsmpo.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(import|from)\s+scipy\b", text, re.M), path


def test_only_the_oracle_eigendecomposes():
    # every Hamiltonian eigendecomposition goes through the oracle
    from pathlib import Path
    for path in Path(gibbsmpo.__file__).parent.glob("*.py"):
        if path.name != "oracle.py":
            text = path.read_text(encoding="utf-8")
            assert "np.linalg.eigh(" not in text, path


def test_import_loads_no_scipy():
    code = ("import sys, gibbsmpo, gibbsmpo.cli; "
            "sys.exit('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["build", "--config", "configs/thermal_tfi_a3.json", "--out", "{tmp}/build"],
    ["verify", "--fast", "--out", "{tmp}/verify"],
    ["fit", "--alpha", "3", "--epsilon", "1e-3"],
], ids=["build", "verify-fast", "fit"])
def test_cli_runs_with_scipy_blocked(tmp_path, argv):
    # a None entry in sys.modules makes every scipy import raise ImportError
    from pathlib import Path
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.modules['scipy'] = None; "
            "from gibbsmpo.cli import main; sys.exit(main(sys.argv[1:]))")
    args = [a.format(tmp=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=root,
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == EXIT_OK, proc.stderr
