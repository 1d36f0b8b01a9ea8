"""Fuzz the config path: a config never ends in a traceback, and the
CLI's own validator says what jsonschema says.

Only `rates` is fuzzed: it builds no grid, so no fuzzed value sizes an
allocation (`envelope`, `ramsey` and `t2scan` size their grids from the
config). Numbers are drawn log-uniformly over 1e-300..1e300, because the
overflows sit at extreme magnitudes that uniform floats rarely reach.
Literals no Python float holds (`1e400`) are checked in `test_cli.py`.
A numpy RuntimeWarning fails the test (pyproject.toml turns it into an
error suite-wide): an overflow must end in a documented exit code, not
in a silent inf or NaN.

The differential test draws configs over every SCHEMA section and checks
`cli.validate_config` against jsonschema 4.26's `best_match`, the oracle
the CLI's messages are worded after.
"""

import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from nvcdd.cli import SCHEMA, ConfigError, main, validate_config

magnitudes = st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)
non_negative = st.one_of(magnitudes, st.just(0.0), st.integers(0, 2**70))
anything = st.one_of(
    non_negative, magnitudes.map(lambda x: -x), st.integers(-2**70, -1),
    st.booleans(), st.text(max_size=3), st.none())


def configs_of(values):
    def section(*keys, **fixed):
        return st.fixed_dictionaries(fixed,
                                     optional=dict.fromkeys(keys, values))

    return st.fixed_dictionaries({}, optional={
        "system": section("omega_khz", "delta_khz", "a_par_khz",
                          "omega_mech_mhz", "q_factor"),
        "noise": section(
            "sigma_b_mg", "gamma_sigma_b_khz", "t2_0m1_us", "sigma_t_c",
            amplitude=section(
                "sigma_omega_khz", "eta", "alpha_khz",
                mode=st.sampled_from(["fixed", "reflectometer"]))),
        "sim": section("shots", "seed"),
    })


# A config with one value of the wrong type or sign fails the schema
# (exit 2) before any arithmetic, so half the configs hold only
# non-negative numbers.
configs = st.one_of(configs_of(non_negative), configs_of(anything))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(config=configs)
@example(config={"system": {"omega_khz": math.nan}})
@example(config={"system": {"omega_khz": math.inf}})
@example(config={"system": {"omega_khz": -math.inf}})
@example(config={"system": {"omega_khz": 10**400}})
@example(config={"system": {"omega_khz": 1e60}})
@example(config={"system": {"a_par_khz": 1e60}})
@example(config={"noise": {"gamma_sigma_b_khz": 1e100}})
@example(config={"noise": {"sigma_b_mg": 1e308}})
def test_rates_exits_with_a_documented_code(config, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    path = tmp / "fuzz.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = CliRunner().invoke(
        main, ["--config", str(path), "--out", str(tmp / "fuzz_out"), "rates"])
    assert result.exit_code in (0, 2, 3, 4), (result.output, result.exception)


# JSON values of every kind, nested lists and objects included.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
              st.integers(-2**70, 2**70), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
# Numbers on, inside and just outside SCHEMA's bounds (0 and 1), as ints
# and as floats, integral or not.
bound_numbers = st.one_of(st.sampled_from([-1, 0, 1, 2, -0.5, 0.5, 1e-300]),
                          st.integers(-2, 3).map(float))


def mostly(often, rarely):
    """often three times in four, rarely the fourth."""
    return st.integers(0, 3).flatmap(lambda i: often if i else rarely)


def near(rule: dict):
    """Values that meet rule, break one of its bounds or break its type:
    mostly of rule's type, a quarter of them any JSON value."""
    kind = rule.get("type")
    typed = []
    if "enum" in rule:
        typed.append(st.sampled_from(rule["enum"]))
    if kind in ("number", "integer"):
        typed.append(bound_numbers)
    if kind == "boolean":
        typed.append(st.booleans())
    if kind == "string":
        typed.append(st.text(max_size=3))
    if kind == "array":
        typed.append(st.lists(near(rule["items"]), max_size=3))
    if kind == "object":
        typed.append(objects(rule))
    return mostly(st.one_of(typed), json_values)


def objects(rule: dict):
    """Objects of rule's properties, a quarter of them with unknown keys."""
    known = st.fixed_dictionaries({}, optional={
        name: near(sub) for name, sub in rule["properties"].items()})
    unknown = st.dictionaries(st.sampled_from(["turbo", "extra"]),
                              json_values, min_size=1, max_size=2)
    return mostly(known, st.builds(lambda a, b: {**a, **b}, known, unknown))


# Whole configs, and configs of one section, whose errors lie deeper.
configs_to_check = st.one_of(objects(SCHEMA), *(
    st.fixed_dictionaries({name: near(sub)})
    for name, sub in SCHEMA["properties"].items()))


ORACLE = Draft202012Validator(SCHEMA)


def oracle_message(cfg):
    error = best_match(ORACLE.iter_errors(cfg))
    return None if error is None \
        else f"config key {error.json_path}: {error.message}"


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(config=configs_to_check)
@example(config={"turbo": True, "sim": {"shots": 0}})
@example(config={"noise": 5})
@example(config={"noise": {"sigma_b_mg": 1, "t2_0m1_us": -1,
                           "gamma_sigma_b_khz": "x"}})
@example(config={"noise": {"amplitude": {"eta": -1}}})
@example(config={"spectra": {"omega_list_khz": [1, -1, True]}})
@example(config={"t2scan": {"omega_list_khz": []}, "sim": {"seed": 2.5}})
@example(config={"sim": {"seed": 2**64}})
@example(config={"noise": {"amplitude": {"mode": "reflectometer", "eta": 1.0,
                                         "alpha_khz": 0}}})
def test_validator_matches_jsonschema(config):
    assert_same_verdict(config, oracle_message(config))


def assert_same_verdict(config, expected):
    if expected is None:
        validate_config(config)
    else:
        with pytest.raises(ConfigError) as caught:
            validate_config(config)
        assert str(caught.value) == expected
