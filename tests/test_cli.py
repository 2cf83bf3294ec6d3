import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from conftest import FLAT_DAY_YAML, REPO_ROOT

from fleetdr.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    main,
)


def write_config(path, *, seed=11, n=40, spike=True, kappa=None,
                 mean_daily=17.0, out_dir=None, **run_extra):
    raw = {
        "seed": seed,
        "fleet": {
            "n_users": n,
            "capacity_kwh": 24.0,
            "rate_kw": 1.8,
            "v2g_fraction": 0.0,
            "day_start_hour": 12,
            "arrival": {"family": "truncnorm", "mean": 19.0, "std": 1.2,
                        "lo": 15.0, "hi": 20.4, "round_to": 1.0},
            "departure": {"family": "truncnorm", "mean": 4.0, "std": 0.3,
                          "lo": 3.6, "hi": 5.4, "round_to": 1.0},
            "charging_time": {"family": "truncnorm", "mean": 5.0, "std": 2.0,
                              "lo": 1.0, "hi": 7.0, "round_to": 1.0},
            "initial_soc": {"family": "choice",
                            "values": [0.2, 0.35, 0.5],
                            "probs": [0.35, 0.4, 0.25]},
            "energy_grid": 1.8,
        },
        "households": {"mean_daily_kwh": mean_daily},
        "market": {
            "synthetic": {
                "base_level_mwh": 33.0,
                "amplitude": 0.35,
                "peak_slot": 9,
                "rt_noise_sigma": 0.0,
                **({"spike": {"slot": 10, "multiplier": 10.0}} if spike
                   else {}),
            },
            "purchase": {"coverage": 0.95},
        },
        "run": {"lam_rt": 0.5, "trigger": 2.0, "t0_term_scale": 1000.0,
                **({"kappa": kappa} if kappa else {}), **run_extra},
    }
    if out_dir is not None:
        raw["out_dir"] = out_dir
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh, sort_keys=False)
    return str(path)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


# ---------------------------------------------------------------------------
# gen-fleet

def test_gen_fleet_writes_csv_and_stats(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    assert main(["gen-fleet", "--config", cfg, "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "40 vehicles" in text
    assert "window length" in text and "energy demand" in text
    assert (out / "fleet.csv").exists()


def test_gen_fleet_refuses_overwrite_without_force(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    main(["gen-fleet", "--config", cfg, "--out", str(out)])
    capsys.readouterr()
    assert main(["gen-fleet", "--config", cfg, "--out", str(out)]) == EXIT_IO
    assert "--force" in capsys.readouterr().err


def test_gen_fleet_same_seed_reproduces_file(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out"
    main(["gen-fleet", "--config", cfg, "--out", str(out)])
    first = (out / "fleet.csv").read_bytes()
    main(["gen-fleet", "--config", cfg, "--out", str(out), "--force"])
    assert (out / "fleet.csv").read_bytes() == first
    # a different seed must override the config's
    main(["gen-fleet", "--config", cfg, "--out", str(out), "--force",
          "--seed", "99"])
    assert (out / "fleet.csv").read_bytes() != first


def test_out_dir_falls_back_to_config(tmp_path, capsys):
    out = tmp_path / "from-config"
    cfg = write_config(tmp_path / "cfg.yaml", out_dir=str(out))
    assert main(["gen-fleet", "--config", cfg]) == EXIT_OK
    assert (out / "fleet.csv").exists()


def test_missing_out_dir_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml")
    assert main(["gen-fleet", "--config", cfg]) == EXIT_CONFIG
    assert "out" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_reports_spike_alteration(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "shaping sweeps" in text
    for name in ("aggregate.csv", "mse_trace.csv", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert 10 in summary["altered_slots"]
    assert summary["meta"]["seed"] == 11
    assert summary["meta"]["stage_seeds"] == {"fleet": 11, "households": 12,
                                              "prices": 13}


def test_simulate_flat_day_never_alters(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", spike=False)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "none" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["altered_slots"] == []


# ---------------------------------------------------------------------------
# compare-cases

def test_compare_cases_outputs_and_table(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", kappa=1.5)
    out = tmp_path / "cmp"
    assert main(["compare-cases", "--config", cfg,
                 "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "no-dr" in text and "shaping+altering+cap" in text
    assert "delta 1-2:" in text
    summary = json.loads((out / "summary.json").read_text())
    costs = {c["case"]: c["cost_usd"] for c in summary["cases"]}
    assert costs[1] > costs[2] > costs[3]
    assert costs[4] >= costs[3]


def test_compare_cases_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml", kappa=1.5)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["compare-cases", "--config", cfg, "--out", str(a)]) == EXIT_OK
    assert main(["compare-cases", "--config", cfg, "--out", str(b)]) == EXIT_OK
    ta, tb = tree_bytes(a), tree_bytes(b)
    assert set(ta) == set(tb) and len(ta) == 7
    for name in ta:
        assert ta[name] == tb[name], f"{name} differs between reruns"


def test_compare_cases_flat_day_equalizes_cases_2_and_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", spike=False)
    out = tmp_path / "cmp"
    assert main(["compare-cases", "--config", cfg,
                 "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["deltas_usd"]["2-3"] == 0.0
    assert summary["deltas_usd"]["3-4"] == 0.0  # no kappa: case 4 == case 3


# ---------------------------------------------------------------------------
# failure modes

def test_bad_yaml_exits_config(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("seed: [oops\n")
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml")
    raw = yaml.safe_load(open(cfg))
    raw["typo_key"] = 1
    yaml.safe_dump(raw, open(cfg, "w"))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("section, key, value, where", [
    ("fleet", "n_users", 2.5, "fleet.n_users"),
    ("households", "valley", "abc", "households.valley"),
    ("run", "max_sweeps", 2.5, "run.max_sweeps"),
    ("run", "kappa", "1.5", "run.kappa"),
    ("market", "files", 123, "market.files"),
    ("fleet", "arrival", {"family": "point", "value": "19"},
     "fleet.arrival.value"),
])
def test_mistyped_config_value_exits_config(tmp_path, capsys, section, key,
                                            value, where):
    cfg = write_config(tmp_path / "cfg.yaml")
    raw = yaml.safe_load(open(cfg))
    raw[section][key] = value
    yaml.safe_dump(raw, open(cfg, "w"))
    assert main(["gen-fleet", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"{where}: expected" in capsys.readouterr().err


def flat_day_with_fleet(tmp_path, **fleet):
    raw = yaml.safe_load(open(FLAT_DAY_YAML))
    raw["fleet"].update(fleet)
    path = tmp_path / "cfg.yaml"
    yaml.safe_dump(raw, open(path, "w"))
    return str(path)


def test_far_tail_truncnorm_exits_config(tmp_path):
    # rejection sampling would never return, so run it where a hang is
    # caught by the timeout
    cfg = flat_day_with_fleet(tmp_path, arrival={
        "family": "truncnorm", "mean": 0, "std": 1, "lo": 9, "hi": 10})
    path = [os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "fleetdr.cli", "gen-fleet", "--config", cfg,
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_CONFIG
    assert "fleet.arrival: [lo, hi] holds less than" in proc.stderr


def test_window_wrapping_past_the_day_exits_config(tmp_path, capsys):
    # with a midnight day start, evening-to-morning windows wrap
    cfg = flat_day_with_fleet(tmp_path, day_start_hour=0)
    assert main(["gen-fleet", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "wraps" in capsys.readouterr().err
    assert not (tmp_path / "o" / "fleet.csv").exists()


def test_negative_seed_exits_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--seed", "-3"])
    assert code == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err


def test_tight_cap_exits_infeasible(tmp_path, capsys):
    # kappa barely above 1 puts the cap below the household evening peak
    cfg = write_config(tmp_path / "cfg.yaml", kappa=1.01)
    code = main(["compare-cases", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_INFEASIBLE
    assert "infeasible:" in capsys.readouterr().err
