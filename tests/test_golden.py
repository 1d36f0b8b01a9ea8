"""Golden regression: the committed reference traces still reproduce.

Each test regenerates a committed trace on its full grid at the committed
seed and shot count.  The committed CSVs print 12 significant digits,
hence the 1e-12 tolerance; the sidecars must match exactly.
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


def assert_matches(produced: Path, reference: Path, n_points: int):
    got = np.loadtxt(produced, delimiter=",", skiprows=1, ndmin=2)
    ref = np.loadtxt(reference, delimiter=",", skiprows=1, ndmin=2)
    assert len(got) == len(ref) == n_points
    assert np.abs(got - ref).max() <= TOLERANCE
    meta = Path(str(produced) + ".meta.json").read_text()
    assert json.loads(meta) == json.loads(
        Path(str(reference) + ".meta.json").read_text())


def test_ramsey_dressed_mp_full_grid(tmp_path):
    ref = REPO_ROOT / "out" / "nv2" / "ramsey_dressed_mp.csv"
    # tau = 0, 0.05, ..., 20 us
    run_cli(["--config", NV2_CONFIG, "--seed", SEED, "--shots", 400,
             "--out", tmp_path, "ramsey", "--kind", "dressed_mp"])
    assert_matches(tmp_path / ref.name, ref, 401)


def test_spec_smoke_spectra_full_grid(tmp_path):
    cfg = json.loads(NV2_CONFIG.read_text())
    cfg["system"]["a_par_khz"] = 0.0
    config = tmp_path / "spec_smoke.json"
    config.write_text(json.dumps(cfg))
    # detunings -600, -596, ..., 600 kHz
    run_cli(["--config", config, "--seed", SEED, "--shots", 200,
             "--out", tmp_path, "spectra", "--omega-khz", 0,
             "--omega-khz", 470])
    for name in ("spectrum_omega0khz.csv", "spectrum_omega470khz.csv"):
        assert_matches(tmp_path / name,
                       REPO_ROOT / "out" / "spec_smoke" / name, 301)
