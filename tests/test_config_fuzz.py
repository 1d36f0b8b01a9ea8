"""Fuzz the config path: a config never ends in a traceback.

Only `rates` is fuzzed: it builds no grid, so no fuzzed value sizes an
allocation (`envelope`, `ramsey` and `t2scan` size their grids from the
config). Numbers are drawn log-uniformly over 1e-300..1e300, because the
overflows sit at extreme magnitudes that uniform floats rarely reach.
Literals no Python float holds (`1e400`) are checked in `test_cli.py`.
"""

import json
import math

from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from nvcdd.cli import main

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
