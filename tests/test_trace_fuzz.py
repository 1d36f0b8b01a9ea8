"""Fuzz trace reading through `nvcdd fit`: a trace never ends in a traceback.

Each example writes one trace CSV and, sometimes, its `.meta.json`
sidecar (malformed, a non-object or an object), then fits it with one
registered model; `spectrum_joint` reads the same file as its undressed
spectrum too.  Rows mix well-formed ones -- log-uniform abscissae over
+-1e-300..1e300, huge standard errors, or a uniform grid that the fit
models can seed from -- with bad ones: wrong field counts, text, nan/inf
and integers of 2**70.  Some files get a wrong header.  The solver's
iteration budget is cut to a few steps: the property is the exit code,
not convergence, and a fit that never converges would otherwise run to
its full budget of evaluations.  A numpy RuntimeWarning fails the test
(pyproject.toml turns it into an error suite-wide): a bad trace must end
in a documented exit code, not in a silent inf or NaN.

The same drawn files, and pinned ones with several faults or other line
ends, also go straight to `read_trace_csv`, which checks whole columns
against one rule table, and to `reference.read_trace_csv_per_row`, which
checks each row in full before reading the next: both must give the same
Trace or the same error text.
"""

import json

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nvcdd import fitting
from nvcdd.cli import main
from nvcdd.models import FIT_MODELS
from nvcdd.pulse_sim import read_trace_csv

from reference import read_trace_csv_per_row

HEADER = "abscissa,mean_p0,stderr,n_shots"

magnitudes = st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)
signed = st.one_of(magnitudes, magnitudes.map(lambda x: -x), st.just(0.0))
populations = st.floats(0.0, 1.0)
bad_fields = st.sampled_from(
    ["nan", "inf", "-inf", "NaN", "text", "", str(2 ** 70), str(-2 ** 70),
     "1e400", "0x10"])
any_field = st.one_of(signed.map(repr), bad_fields)


def row(*fields):
    return ",".join(map(str, fields))


def good_rows(n_shots):
    return st.tuples(signed.map(repr), populations.map(repr),
                     st.one_of(magnitudes, st.just(0.0)).map(repr),
                     st.just(n_shots)).map(lambda fields: row(*fields))


bad_rows = st.one_of(
    st.lists(any_field, min_size=0, max_size=6)
    .filter(lambda fields: len(fields) != 4).map(lambda fields: row(*fields)),
    st.tuples(any_field, any_field, any_field, any_field)
    .map(lambda fields: row(*fields)),
)


@st.composite
def uniform_grids(draw, n_shots):
    """A well-formed trace on a uniform grid, which the models can seed."""
    start = draw(st.one_of(st.just(0.0), signed))
    step = draw(st.one_of(st.floats(1e-3, 1.0), magnitudes))
    means = draw(st.lists(populations, min_size=20, max_size=40))
    stderr = draw(st.one_of(st.just(0.01), magnitudes))
    return [row(repr(start + step * i), repr(m), repr(stderr), n_shots)
            for i, m in enumerate(means)]


WRONG_HEADERS = ["", "abscissa,mean_p0,stderr", HEADER + ",extra", "x,y,z,n",
                 "ABSCISSA,MEAN_P0,STDERR,N_SHOTS"]


@st.composite
def trace_files(draw):
    """(CSV text, sidecar text or None).  Most files have the right header
    and no bad row, so that most examples reach the fit."""
    header = draw(st.sampled_from([HEADER] * 10 + WRONG_HEADERS))
    n_shots = draw(st.one_of(st.integers(1, 10 ** 6), st.just(2 ** 70)))
    rows = draw(st.one_of(
        uniform_grids(n_shots),
        st.lists(good_rows(n_shots), max_size=30),
        st.lists(st.one_of(good_rows(n_shots), bad_rows), max_size=30)))
    if draw(st.sampled_from([False] * 3 + [True])):
        rows.insert(draw(st.integers(0, len(rows))), draw(bad_rows))
    text = "\n".join([header, *rows]) + "\n"
    sidecar = draw(st.sampled_from(["absent", "object"] * 3 + ["bad"]))
    if sidecar == "absent":
        return text, None
    if sidecar == "bad":
        return text, draw(st.sampled_from(
            ["{", "{\"kind\": ", "[1, 2]", "3", "\"text\"", "null"]))
    return text, json.dumps(draw(st.dictionaries(
        st.text(max_size=5), st.one_of(st.integers(), st.text(max_size=5)),
        max_size=3)))


def write_trace(tmp, trace):
    csv, sidecar = trace
    path = tmp / "fuzz_trace.csv"
    path.write_text(csv, encoding="utf-8")
    meta = tmp / "fuzz_trace.csv.meta.json"
    if sidecar is None:
        meta.unlink(missing_ok=True)
    else:
        meta.write_text(sidecar, encoding="utf-8")
    return path


@pytest.mark.parametrize("model", list(FIT_MODELS))
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(trace=trace_files())
def test_fit_exits_with_a_documented_code(model, trace, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    path = write_trace(tmp, trace)
    args = ["--out", str(tmp / "fuzz_out"), "fit", "--model", model,
            "--input", str(path)]
    if model == "spectrum_joint":
        args += ["--undressed", str(path)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "MAX_ITER", 3)
        result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3, 4), (result.output, result.exception)


def read_or_message(reader, path):
    try:
        return reader(path)
    except ValueError as exc:
        return str(exc)


def text(*rows):
    return "\n".join([HEADER, *rows]) + "\n"


# Files with several faults: the first faulty line wins, and on one line
# a parse fault, then the column rules in order, then a changed n_shots.
MANY_FAULTS = [
    text("0,0.5,0.1,10", "0,1.5,0.1,10", "0,x,0.1,10"),
    text("0,0.5,0.1,10", "0,0.5", "nan,0.5,0.1,10"),
    text("0,0.5,0.1,10", "inf,nan,-1,2.5"),
    text("0,0.5,0.1,10", "0,1.5,-1,2.5"),
    text("0,0.5,0.1,10", "0,0.5,-1,2.5"),
    text("0,0.5,0.1,10", "0,0.5,inf,11", "0,0.5,0.1,10,0"),
    text("0,0.5,0.1,10", "0,0.5,0.1,2.5"),
    text("0,0.5,0.1,nan", "0,0.5,0.1,10"),
    text("0,0.5,0.1,10", "0,0.5,0.1,11", "nan,0.5,0.1,10"),
    text("0,0.5,0.1,inf", "0,0.5,0.1,inf"),
    text("1e400,2,0.1,0", "0,0.5,0.1,10"),
]
# (CSV, sidecar) with line ends other than "\n", which number lines alike.
LINE_ENDS = [(text("0,0.5,0.1,10", "1,0.5,0.1,10").replace("\n", end), None)
             for end in ("\r\n", "\r")] + [
    (text("0,0.5,0.1,10", "x", "0,0.5,0.1,10").replace("\n", "\r"), None),
    (text("0,0.5,0.1,10"), '{\r"kind":\r\r'),
    (text("0,0.5,0.1,10"), '{\r\n"kind": 1\r\n}\r\n')]


def assert_readers_agree(path):
    new, old = (read_or_message(reader, path)
                for reader in (read_trace_csv, read_trace_csv_per_row))
    if isinstance(old, str):
        assert new == old
        return
    assert not isinstance(new, str), new
    for column in ("abscissa", "mean_p0", "stderr"):
        assert np.array_equal(getattr(new, column), getattr(old, column))
    assert (new.n_shots, new.metadata) == (old.n_shots, old.metadata)
    assert type(new.n_shots) is int


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(trace=trace_files())
def test_reader_matches_the_per_row_reader(trace, tmp_path_factory):
    assert_readers_agree(write_trace(tmp_path_factory.getbasetemp(), trace))


@pytest.mark.parametrize("trace", [(csv, None) for csv in MANY_FAULTS]
                         + LINE_ENDS)
def test_reader_matches_the_per_row_reader_on_pinned_files(trace, tmp_path):
    assert_readers_agree(write_trace(tmp_path, trace))
