"""The benchmark's workloads: nvcdd CLI invocations and their output checks.

Each workload is a list of CLI operations run in order as one pass.  Every
operation writes into a scratch ``--out`` directory, so the committed
``out/`` tree is only ever read, and names the files it must produce and
the committed reference each file is checked against.

Why these three workloads:

* ``ramsey_mp`` -- the paper's headline dressed {m,p} Ramsey trace (nv2,
  400 shots, three segments per shot).  Propagation and sampling share
  the time, so it shows a change to either half of the shot engine.
* ``spectra`` -- the ``spec_smoke`` pulsed spectra (2 drives x 200 shots):
  one pulse segment per shot, no free evolution, including the undressed
  branch.  Sampling dominates, so a sampler change shows more here and a
  free-evolution shortcut should show nothing.
* ``analysis`` -- no Monte Carlo: rate budget, envelopes, analytic T2*
  scan and the two committed-trace fits.  Config handling, fitting, the
  models and the dephasing closed forms do the work; every shot-engine
  change should leave it unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

# Seed of the committed reference traces under out/.
REFERENCE_SEED = 7
# The committed CSVs print 12 significant digits; the CLI prints repr().
TOLERANCE = 1e-12

NV2_CONFIG = "configs/nv2.json"
REQUIRED_FILES = (
    "src/nvcdd/cli.py",
    NV2_CONFIG,
    "out/nv2/ramsey_dressed_mp.csv",
    "out/nv2/fit_ramsey_mp.txt",
    "out/spec_smoke/spectrum_omega0khz.csv",
    "out/spec_smoke/spectrum_omega470khz.csv",
    "out/spec_smoke/fit_spectrum_joint.txt",
)


@dataclass(frozen=True)
class Output:
    name: str               # file written into the scratch directory
    kind: str               # "trace", "fft", "meta" or "bytes"
    reference: str | None   # committed file it is checked against


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    outputs: tuple   # of Output


@dataclass(frozen=True)
class Workload:
    name: str
    config: str      # config the set-up measurement loads
    ops: tuple       # of Op
    shots: int       # shots per grid point; 0 without Monte Carlo
    points: int      # grid points per trace; 0 without Monte Carlo
    seed_dependent: bool


NAMES = ("ramsey_mp", "spectra", "analysis")

# The Monte-Carlo workloads run a leading prefix of the committed grids.
# Shot RNG streams are keyed by grid-point index, so the prefix reproduces
# the committed rows exactly.  A pass then takes well under a second, so a
# run holds dozens of passes and some of them fall between the slowdowns
# a shared machine shows; the full grids would give a handful of passes.
RAMSEY_TAU_STOP_US = 2.5            # tau = 0, 0.05, ..., 2.5 us: 51 points
SPECTRA_DETUNING_STOP_KHZ = -400.0  # -600, -596, ..., -400 kHz: 51 points


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """The workload's operations; generated inputs go into out_dir."""
    common = ("--seed", str(seed), "--out", str(out_dir))
    if name == "ramsey_mp":
        ref = "out/nv2/ramsey_dressed_mp"
        op = Op("ramsey", ("--config", NV2_CONFIG, *common, "--shots", "400",
                           "ramsey", "--tau-stop-us", str(RAMSEY_TAU_STOP_US)),
                (Output("ramsey_dressed_mp.csv", "trace", ref + ".csv"),
                 Output("ramsey_dressed_mp.csv.meta.json", "meta",
                        ref + ".csv.meta.json"),
                 Output("ramsey_dressed_mp_fft.csv", "fft", None)))
        return Workload(name, NV2_CONFIG, (op,), 400, 51, True)
    if name == "spectra":
        config = str(_spec_smoke_config(out_dir, SPECTRA_DETUNING_STOP_KHZ))
        outputs = []
        for drive in ("0", "470"):
            ref = f"out/spec_smoke/spectrum_omega{drive}khz.csv"
            outputs += [Output(Path(ref).name, "trace", ref),
                        Output(Path(ref).name + ".meta.json", "meta",
                               ref + ".meta.json")]
        op = Op("spectra", ("--config", config, *common, "--shots", "200",
                            "spectra", "--omega-khz", "0", "--omega-khz", "470"),
                tuple(outputs))
        return Workload(name, config, (op,), 200, 51, True)
    if name == "analysis":
        spec_config = str(_spec_smoke_config(out_dir))

        def op(name, config, *argv, ref):
            return Op(name, ("--config", config, *common, *argv),
                      (Output(Path(ref).name, "bytes", ref),))

        ops = (
            op("rates", NV2_CONFIG, "rates", ref="out/nv2/rates.txt"),
            op("envelope", NV2_CONFIG, "envelope", ref="out/nv2/envelope.csv"),
            op("t2scan", NV2_CONFIG, "t2scan", ref="out/nv2/t2scan.csv"),
            op("fit_ramsey_mp", NV2_CONFIG, "fit", "--model", "ramsey_mp",
               "--input", "out/nv2/ramsey_dressed_mp.csv",
               ref="out/nv2/fit_ramsey_mp.txt"),
            op("fit_spectrum_joint", spec_config, "fit", "--model",
               "spectrum_joint",
               "--input", "out/spec_smoke/spectrum_omega470khz.csv",
               "--undressed", "out/spec_smoke/spectrum_omega0khz.csv",
               ref="out/spec_smoke/fit_spectrum_joint.txt"),
        )
        return Workload(name, NV2_CONFIG, ops, 0, 0, False)
    raise ValueError(f"unknown workload {name!r}")


def _spec_smoke_config(out_dir: Path, detuning_stop_khz=None) -> Path:
    """The spec_smoke scenario: configs/nv2.json without hyperfine split."""
    cfg = json.loads(Path(NV2_CONFIG).read_text(encoding="utf-8"))
    cfg["system"]["a_par_khz"] = 0.0
    if detuning_stop_khz is not None:
        cfg["spectra"]["detuning_stop_khz"] = detuning_stop_khz
    path = out_dir / "spec_smoke.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


def check(output: Output, produced: bytes, workload: Workload,
          seed: int) -> tuple[str | None, float]:
    """Compare one output with its reference.

    Returns (problem or None, largest absolute deviation of the numeric
    fields compared).  Seed-independent outputs are compared with the
    committed reference at every seed; Monte-Carlo values only at the
    reference seed, and otherwise checked for validity.
    """
    if output.kind == "fft":
        return _check_fft(produced), 0.0
    reference = Path(output.reference).read_bytes()
    if output.kind == "bytes":
        return (None if produced == reference else "differs from reference",
                0.0)
    if output.kind == "meta":
        want = json.loads(reference)
        if workload.seed_dependent:
            want["seed"] = seed
        try:
            same = json.loads(produced) == want
        except ValueError as exc:
            return f"unparsable metadata: {exc}", 0.0
        return (None if same else "metadata differs from reference", 0.0)
    try:
        got = _rows(produced)
    except (ValueError, IndexError) as exc:
        return f"unparsable CSV: {exc!r}", 0.0
    ref = _rows(reference)[:len(got)]
    if got[0] != ref[0] or len(got) != workload.points + 1:
        return "header or row count differs from reference", 0.0
    if seed == REFERENCE_SEED or not workload.seed_dependent:
        compare = range(len(ref[1]))
    else:
        compare = (0,)      # the abscissa does not depend on the seed
    dev = max(abs(g[i] - r[i]) for g, r in zip(got[1:], ref[1:])
              for i in compare)
    if dev > TOLERANCE:
        return f"deviates from reference by {dev:.3g}", dev
    for row in got[1:]:
        _, mean_p0, stderr, n_shots = row
        if not (0.0 <= mean_p0 <= 1.0 and 0.0 <= stderr < math.inf
                and n_shots == workload.shots):
            return f"invalid row {row}", dev
    return None, dev


def _check_fft(produced: bytes) -> str | None:
    """The committed spectrum is of the full grid: check shape and sign."""
    try:
        got = _rows(produced)
    except (ValueError, IndexError) as exc:
        return f"unparsable CSV: {exc!r}"
    if got[0] != "freq_khz,magnitude" or len(got) < 2:
        return "header or row count wrong"
    freq = [row[0] for row in got[1:]]
    if freq[0] != 0.0 or any(b <= a for a, b in zip(freq, freq[1:])):
        return "frequency axis not ascending from 0"
    if any(not 0.0 <= row[1] < math.inf for row in got[1:]):
        return "negative or non-finite magnitude"
    return None


def _rows(data: bytes) -> list:
    lines = data.decode("utf-8").splitlines()
    return [lines[0]] + [tuple(float(v) for v in ln.split(","))
                         for ln in lines[1:] if ln]
