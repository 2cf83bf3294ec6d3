import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
import yaml

from conftest import (FLAT_DAY_YAML, REFERENCE_YAML, REPO_ROOT, save_config,
                      save_market_day, with_each_yaml_loader)

from fleetdr.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    main,
)
from fleetdr.scenario import build_scenario, load_config


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
            out[os.path.relpath(full, root)] = Path(full).read_bytes()
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
# pinned flat-day outputs

# sha256 of what gen-fleet and simulate write for configs/flat_day.yaml
# (60 vehicles); summary.json is pinned too, since its config digest is
FLAT_DAY_DIGESTS = {
    ("gen-fleet", "fleet.csv"):
        "218c6bf498292251a176c138f5a3490fb8fb911f894f75eb4b13a913b14b54c1",
    ("simulate", "aggregate.csv"):
        "2d609170eca8e58d4431ce4f5e70d04710eaefc42babd45ca676f9a1b29af70f",
    ("simulate", "mse_trace.csv"):
        "321e444f9cb6f3611a682749ec2e1387a250b94e71b3a3970bfe0772995e0d7c",
    ("simulate", "summary.json"):
        "b8ea33904892f75157b9d3f2a2be95a1fde788e57f0a6f0e145372ce2a4b4ab7",
}


def test_flat_day_artifacts_match_pinned_digests(tmp_path, capsys):
    for command in ("gen-fleet", "simulate"):
        assert main([command, "--config", FLAT_DAY_YAML,
                     "--out", str(tmp_path / command)]) == EXIT_OK
    got = {(cmd, name): hashlib.sha256(
               (tmp_path / cmd / name).read_bytes()).hexdigest()
           for cmd, name in FLAT_DAY_DIGESTS}
    changed = sorted(k for k in got if got[k] != FLAT_DAY_DIGESTS[k])
    assert not changed, f"flat-day artifacts changed: {changed}"


# ---------------------------------------------------------------------------
# failure modes

def test_bad_yaml_exits_config(tmp_path, capsys, monkeypatch):
    path = tmp_path / "broken.yaml"
    path.write_text("seed: [oops\n")

    def simulate():
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    for code, err in with_each_yaml_loader(monkeypatch, simulate):
        assert code == EXIT_CONFIG
        # only the parser's own wording after this prefix may differ
        assert err.startswith(f"error: {path}: invalid YAML: ")


def test_unknown_config_key_exits_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml")
    with open(cfg) as fh:
        raw = yaml.safe_load(fh)
    raw["typo_key"] = 1
    with open(cfg, "w") as fh:
        yaml.safe_dump(raw, fh)
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
    with open(cfg) as fh:
        raw = yaml.safe_load(fh)
    raw[section][key] = value
    with open(cfg, "w") as fh:
        yaml.safe_dump(raw, fh)
    assert main(["gen-fleet", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"{where}: expected" in capsys.readouterr().err


def reference_day_with(tmp_path, key, value, n_users=30):
    """``configs/reference.yaml`` at ``n_users`` vehicles with the dotted
    ``key`` set to ``value``."""
    with open(REFERENCE_YAML) as fh:
        raw = yaml.safe_load(fh)
    raw["fleet"]["n_users"] = n_users
    *parents, leaf = key.split(".")
    section = raw
    for name in parents:
        section = section[name]
    section[leaf] = value
    path = tmp_path / "cfg.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
    return str(path)


# one-key edits that overflowed somewhere in set-up: each exits 2 naming
# the key whose value overflows (None: the day runs, to exit 0 or 3)
@pytest.mark.parametrize("key, value, named", [
    ("households.noise_sigma", 1.0e308, "households.noise_sigma 1e+308"),
    ("fleet.rate_kw", 2 ** 63, None),
    ("fleet.n_users", 2 ** 63, "fleet.n_users must be at most"),
    ("fleet.rate_kw", 1.0e308, "fleet.rate_kw 1e+308"),
    ("market.synthetic.spike.multiplier", 1.0e308,
     "market.synthetic.spike.multiplier 1e+308"),
    ("market.synthetic.base_level_mwh", 1.0e308,
     "market.synthetic.spike.multiplier 10.0 times"),
    ("market.synthetic.base_level_mwh", 1.5e308,
     "market.synthetic.base_level_mwh 1.5e+308"),
    ("market.synthetic.rt_noise_sigma", 1.0e308,
     "market.synthetic.rt_noise_sigma 1e+308"),
    ("households.mean_daily_kwh", 1.0e308,
     "households.mean_daily_kwh 1e+308"),
    ("households.valley", 1.0e308, "households.valley 1e+308"),
    ("households.valley", 2 ** 63, "households.valley 9223372036854775808"),
    ("households.evening_peak", 1.0e308, "evening_peak 1e+308"),
    ("households.evening_width", 1.0e-320, None),
    ("run.kappa", 1.0e308, "kappa 1e+308"),
    # an int too large for a float
    pytest.param("fleet.rate_kw", 10 ** 400,
                 "fleet.rate_kw: expected a finite number",
                 id="fleet.rate_kw-10**400"),
    pytest.param("fleet.arrival.mean", 10 ** 400,
                 "fleet.arrival.mean: expected a finite number",
                 id="fleet.arrival.mean-10**400"),
])
def test_an_overflowing_value_ends_cleanly(tmp_path, capsys, key, value,
                                           named):
    cfg = reference_day_with(tmp_path, key, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["compare-cases", "--config", cfg,
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if named is None:
        assert code in (EXIT_OK, EXIT_INFEASIBLE), err
    else:
        assert code == EXIT_CONFIG
        assert named in err


# values PyYAML's constructors refuse with a ValueError, not a YAMLError
@pytest.mark.parametrize("old, new, says", [
    # int() refuses a string of more than 4,300 digits
    (b"rate_kw: 1.8\n", b"rate_kw: 1" + b"0" * 5000 + b"\n", "4300 digits"),
    (b"seed: 20250401\n", b"seed: 2025-13-01\n", "month must be in 1..12"),
    (b"seed: 20250401\n", b"seed: \xff\n", "can't decode byte 0xff"),
], ids=["long-int", "month-13", "not-utf-8"])
def test_a_value_yaml_cannot_construct_exits_config(tmp_path, capsys, old,
                                                     new, says):
    path = tmp_path / "bad_value.yaml"
    raw = Path(REFERENCE_YAML).read_bytes()
    assert old in raw
    path.write_bytes(raw.replace(old, new))
    code = main(["gen-fleet", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: {path}: invalid YAML: ")
    assert says in err and "Traceback" not in err


def test_a_fleet_numpy_cannot_lay_out_is_refused_before_any_array(tmp_path):
    cfg = reference_day_with(tmp_path, "fleet.n_users", 2 ** 62)
    tracemalloc.start()
    try:
        assert main(["gen-fleet", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def empty_fleet_config(tmp_path, source):
    """A config of no vehicles, with a synthetic market or a bundle."""
    if source == "synthetic":
        return reference_day_with(tmp_path, "fleet.n_users", 0)
    path, _ = flat_day_from_files(tmp_path)
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    raw["fleet"]["n_users"] = 0
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
    return path


@pytest.mark.filterwarnings("error")  # else pytest keeps them off stderr
@pytest.mark.parametrize("source", ["synthetic", "files"])
@pytest.mark.parametrize("command", ["gen-fleet", "simulate",
                                     "compare-cases"])
def test_an_empty_fleet_exits_config_naming_n_users(tmp_path, capsys,
                                                    command, source):
    cfg = empty_fleet_config(tmp_path, source)
    out = tmp_path / "o"
    code = main([command, "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "fleet.n_users" in err
    assert "coverage" not in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("fleet.arrival", 3,
     "fleet.arrival: expected a distribution mapping with a 'family' key"),
    ("households", [1], "households: expected a mapping, got list"),
])
def test_a_value_of_the_wrong_shape_exits_config_naming_its_key(
        tmp_path, capsys, key, value, message):
    cfg = reference_day_with(tmp_path, key, value)
    code = main(["compare-cases", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def flat_day_with_fleet(tmp_path, **fleet):
    with open(FLAT_DAY_YAML) as fh:
        raw = yaml.safe_load(fh)
    raw["fleet"].update(fleet)
    path = tmp_path / "cfg.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
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


# ---------------------------------------------------------------------------
# market.files: the CSV bundle

def flat_day_from_files(tmp_path):
    """configs/flat_day.yaml with its market day written out as a bundle
    and named by ``market.files``: the config's path and the bundle."""
    cfg = load_config(FLAT_DAY_YAML)
    bundle = tmp_path / "market"
    save_market_day(build_scenario(cfg).market, bundle)
    cfg.market_synth, cfg.market_files = None, str(bundle)
    save_config(cfg, tmp_path / "files.yaml")
    return str(tmp_path / "files.yaml"), bundle


def with_row(row, text):
    """An edit of a CSV's lines that puts ``text`` on ``row`` (the header
    is row 1), or deletes that row when ``text`` is None."""
    return lambda lines: [*lines[:row - 1], *([] if text is None else [text]),
                          *lines[row:]]


# one corruption each: the edit, and the error after the file's path
# ({column} is the file's value column); slot 5 sits on row 6
CSV_CORRUPTIONS = {
    "non-numeric": (with_row(6, "5,abc"), "row 6: non-numeric value"),
    "slot-out-of-range": (with_row(6, "25,1.0"),
                          "row 6: slot 25 out of 1..24"),
    "duplicate-slot": (with_row(6, "4,1.0"), "row 6: duplicate slot 4"),
    "negative": (with_row(6, "5,-1.0"),
                 "row 6: {column} must be finite and >= 0, got -1.0"),
    "nan": (with_row(6, "5,nan"),
            "row 6: {column} must be finite and >= 0, got nan"),
    "inf": (with_row(6, "5,inf"),
            "row 6: {column} must be finite and >= 0, got inf"),
    "extra-field": (with_row(6, "5,1.0,1"),
                    "row 6: expected 2 fields, got 3"),
    "short-row": (with_row(6, "5"), "row 6: expected 2 fields, got 1"),
    "bad-header": (with_row(1, "slot,value"),
                   "bad header ['slot', 'value']; expected "
                   "['slot', '{column}']"),
    "empty-file": (lambda lines: [], "empty file"),
    "missing-slot": (with_row(6, None), "missing slots [5]"),
}


def test_a_market_bundle_runs_compare_cases(tmp_path):
    cfg, bundle = flat_day_from_files(tmp_path)
    path = bundle / "da_profile.csv"  # with a blank row after each row
    path.write_text(path.read_text().replace("\n", "\n\n"))
    assert main(["compare-cases", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_OK


@pytest.mark.parametrize("replace", [
    pytest.param(os.remove, id="missing"),
    pytest.param(lambda path: (os.remove(path), os.mkdir(path)),
                 id="a-directory"),
])
def test_a_market_file_that_is_no_file_exits_config_naming_it(
        tmp_path, capsys, replace):
    cfg, bundle = flat_day_from_files(tmp_path)
    replace(bundle / "da_profile.csv")
    assert main(["compare-cases", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"error: {cfg}: market.files: missing file {bundle / 'da_profile.csv'}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("corruption", CSV_CORRUPTIONS)
@pytest.mark.parametrize("name, column", [("da_prices.csv", "price_per_mwh"),
                                          ("rt_prices.csv", "price_per_mwh"),
                                          ("da_profile.csv", "kwh")])
def test_a_corrupt_market_csv_exits_config_naming_file_and_row(
        tmp_path, capsys, name, column, corruption):
    cfg, bundle = flat_day_from_files(tmp_path)
    edit, says = CSV_CORRUPTIONS[corruption]
    lines = edit((bundle / name).read_text().splitlines())
    (bundle / name).write_text("".join(line + "\n" for line in lines))
    assert main(["compare-cases", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"error: {bundle / name}: {says.format(column=column)}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tail, says", [
    pytest.param(b"6,\xff\n", "codec can't decode byte 0xff", id="not-text"),
    pytest.param(b'"' + b"1" * 200_000 + b'",1\n',
                 "field larger than field limit", id="oversized-field"),
])
def test_an_unparsable_market_csv_exits_config_naming_file(
        tmp_path, capsys, tail, says):
    cfg, bundle = flat_day_from_files(tmp_path)
    with open(bundle / "rt_prices.csv", "ab") as fh:
        fh.write(tail)
    assert main(["compare-cases", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bundle / 'rt_prices.csv'}: ")
    assert says in err
