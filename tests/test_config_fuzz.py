"""Every one-key edit of a shipped config ends in exit 0, 2 or 3.

The edits run ``compare-cases`` in this process, with warnings raised as
errors. An edit may not end in a traceback, and an exit 2 must name the
key path it edited: a distribution's parameter by the distribution's path
and the parameter's name. Exit 3s include the demand cap's false verdicts
(ROADMAP item 1), so they are counted, never filtered out.
"""

import collections
import contextlib
import copy
import io
import os
import warnings

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FLAT_DAY_YAML, REFERENCE_YAML

from fleetdr.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from fleetdr.fleet import _number

N_USERS = 30
# "exponent" rewrites a value in a YAML 1.2 exponent form that YAML 1.1's
# resolver leaves as a string
MUTATIONS = ("sign", 0, 1.0e308, 2 ** 63, "x", None, True, "missing",
             "exponent")
_EXPONENT = "exponent-form-of-the-value"
# edits whose exit 2 once named another key or none, run on every draw
NAMED_SINCE = {
    ("reference.yaml", ("market", "synthetic", "base_level_mwh"), 1.0e308),
    ("reference.yaml", ("households", "evening_peak"), 1.0e308),
    ("reference.yaml", ("households", "morning_peak"), 1.0e308),
    ("reference.yaml", ("fleet", "day_start_hour"), 0),
    ("flat_day.yaml", ("market", "synthetic"), None),
    ("flat_day.yaml", ("market", "synthetic"), "missing"),
}


def _key_paths(node, prefix=()):
    """Every key path of a YAML mapping, sections and leaves alike."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _edits():
    """(config file name, config, key path, mutation) for each mutation
    that applies: a sign flip only to a number."""
    out = []
    for path in (REFERENCE_YAML, FLAT_DAY_YAML):
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        raw["fleet"]["n_users"] = N_USERS
        for keys in _key_paths(raw):
            value = _lookup(raw, keys)
            out += [(os.path.basename(path), raw, keys, how)
                    for how in MUTATIONS if how != "sign" or _number(value)]
    return out


def _lookup(raw, keys):
    for key in keys:
        raw = raw[key]
    return raw


def edited_text(raw, keys, how) -> str:
    """The YAML text of ``raw`` with the value at ``keys`` mutated."""
    raw = copy.deepcopy(raw)
    *parents, leaf = keys
    section = _lookup(raw, parents)
    value = section[leaf]
    if how == "missing":
        del section[leaf]
    elif how == "sign":
        section[leaf] = -value
    elif how == "exponent":
        section[leaf] = _EXPONENT
    else:
        section[leaf] = how
    text = yaml.safe_dump(raw, sort_keys=False)
    if how == "exponent":
        # 1.8 as 1.8e0 and 1e-06 as it is: no dot or no signed exponent
        form = repr(float(value)) if _number(value) else "1.0"
        text = text.replace(_EXPONENT, form if "e" in form else form + "e0")
    return text


EDITS = _edits()


def names_the_key(keys, err: str) -> bool:
    if ".".join(keys) in err:
        return True
    # fleet.arrival.std: 0 reads "fleet.arrival: std must be positive"
    return (len(keys) == 3 and keys[0] == "fleet"
            and ".".join(keys[:2]) in err and keys[2] in err)


def test_a_one_key_edit_ends_in_exit_0_2_or_3(tmp_path):
    config = tmp_path / "cfg.yaml"
    codes = collections.Counter()

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(st.sampled_from(EDITS))
    def run(edit):
        _, raw, keys, how = edit
        config.write_text(edited_text(raw, keys, how))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(["compare-cases", "--config", str(config),
                         "--out", str(tmp_path / "out"), "--force"])
        err = err.getvalue()
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE), (code, err)
        assert "Traceback" not in err, err
        if code == EXIT_CONFIG:
            assert names_the_key(keys, err), (keys, how, err)
        codes[code] += 1

    for edit in EDITS:
        if (edit[0], edit[2], edit[3]) in NAMED_SINCE:
            run = example(edit)(run)
    run()
    print(f"one-key edits by exit code: {dict(codes)}")
    # the edits reach every ending; every exit 3 is counted
    assert codes[EXIT_OK] and codes[EXIT_CONFIG] and codes[EXIT_INFEASIBLE]


def test_each_mutation_is_written_as_intended():
    raw = {"run": {"mse_tol": 1.0e-6, "max_sweeps": 10}}
    assert edited_text(raw, ("run", "mse_tol"), "exponent") == \
        "run:\n  mse_tol: 1e-06\n  max_sweeps: 10\n"
    assert "max_sweeps: 10.0e0\n" in edited_text(raw, ("run", "max_sweeps"),
                                                 "exponent")
    assert edited_text(raw, ("run", "max_sweeps"), "sign") == \
        "run:\n  mse_tol: 1.0e-06\n  max_sweeps: -10\n"
    assert edited_text(raw, ("run",), "missing") == "{}\n"
    assert raw == {"run": {"mse_tol": 1.0e-6, "max_sweeps": 10}}
