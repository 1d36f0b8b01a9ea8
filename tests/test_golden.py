"""Golden regression: the committed reference traces still reproduce.

Each trace test regenerates a committed trace on its full grid at the
committed seed and shot count.  The committed CSVs print 12 significant
digits, hence the 1e-12 tolerance; the sidecars must match exactly.  The
Monte-Carlo t2scan's fitted T2* and their CI half-widths are kept as
float.hex literals and must match bit for bit.
"""

import json
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from nvcdd import cli
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


# t2scan --mc on nv2 (tau 0-20 us, 200 shots, seed 3): per drive, the
# ramsey_mp fit's t2_us and its 95% CI half-width
T2SCAN_MC_SEED3 = {
    230.0: ("0x1.d5fe0e63821a4p+2", "0x1.98981036338c0p-2"),
    348.0: ("0x1.2d00c64148aebp+3", "0x1.a88a1e7da5be0p-2"),
    470.0: ("0x1.70a0ea021c292p+3", "0x1.985916f87e020p-2"),
    581.0: ("0x1.ac2808af82d39p+3", "0x1.974d6233ca560p-2"),
}


def test_t2scan_mc_fits(tmp_path, monkeypatch):
    fits = []

    def spy(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    fit = cli.nlls_fit
    monkeypatch.setattr(cli, "nlls_fit", spy)
    cfg = json.loads(NV2_CONFIG.read_text())
    cfg["t2scan"].update(mc=True, tau_stop_us=20.0)
    config = tmp_path / "mc.json"
    config.write_text(json.dumps(cfg))
    run_cli(["--config", config, "--seed", 3, "--shots", 200,
             "--out", tmp_path, "t2scan"])
    rows = (tmp_path / "t2scan.csv").read_text().splitlines()[1:]
    assert len(fits) == len(rows) == len(T2SCAN_MC_SEED3)
    for (drive, (t2, err)), outcome, row in zip(T2SCAN_MC_SEED3.items(),
                                                fits, rows):
        want = float.fromhex(t2), float.fromhex(err)
        assert (outcome.params["t2_us"], outcome.ci_halfwidth("t2_us")) \
            == want, drive
        assert row.split(",")[3:] == [f"{v:.10g}" for v in want]
        assert float(row.split(",")[0]) == drive
