"""Golden regression: the committed reference traces still reproduce.

Shot RNG streams are keyed by grid-point index, so a leading prefix of a
committed grid regenerates exactly.  The committed CSVs print 12
significant digits, hence the 1e-12 tolerance.
"""

import json
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from nvcdd.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
NV2_CONFIG = REPO_ROOT / "configs" / "nv2.json"
SEED = 7
TOLERANCE = 1e-12


def run_cli(args):
    result = CliRunner().invoke(main, [str(a) for a in args],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output


def assert_prefix_matches(produced: Path, reference: Path, n_points: int):
    got = np.loadtxt(produced, delimiter=",", skiprows=1, ndmin=2)
    ref = np.loadtxt(reference, delimiter=",", skiprows=1, ndmin=2)
    assert len(got) == n_points
    assert np.abs(got - ref[:n_points]).max() <= TOLERANCE
    meta = Path(str(produced) + ".meta.json").read_text()
    assert json.loads(meta) == json.loads(
        Path(str(reference) + ".meta.json").read_text())


def test_ramsey_dressed_mp_prefix(tmp_path):
    ref = REPO_ROOT / "out" / "nv2" / "ramsey_dressed_mp.csv"
    # tau = 0, 0.05, ..., 1.0 us of the committed 0..20 us grid
    run_cli(["--config", NV2_CONFIG, "--seed", SEED, "--shots", 400,
             "--out", tmp_path, "ramsey", "--kind", "dressed_mp",
             "--tau-stop-us", 1.0])
    assert_prefix_matches(tmp_path / ref.name, ref, 21)


def test_spec_smoke_spectrum_prefix(tmp_path):
    ref = REPO_ROOT / "out" / "spec_smoke" / "spectrum_omega470khz.csv"
    cfg = json.loads(NV2_CONFIG.read_text())
    cfg["system"]["a_par_khz"] = 0.0
    # detunings -600, -596, ..., -520 kHz of the committed grid
    cfg["spectra"]["detuning_stop_khz"] = -520.0
    config = tmp_path / "spec_smoke.json"
    config.write_text(json.dumps(cfg))
    run_cli(["--config", config, "--seed", SEED, "--shots", 200,
             "--out", tmp_path, "spectra", "--omega-khz", 470])
    assert_prefix_matches(tmp_path / ref.name, ref, 21)
