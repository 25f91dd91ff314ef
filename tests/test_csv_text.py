"""The vectorized %.17g writer of the CSV files (pde._fields, pde._csv_text).

Every oracle here formats one value at a time with Python's own "%.17g"
(or f"{v:.17g}") and the csv module, so it shares no code with the writer.
"""

import csv

import numpy as np
import pytest

from peakonlaws import pde
from peakonlaws.conslaw import EquationSpec
from peakonlaws.pde import SimConfig, run, write_series_csv, write_snapshots_csv


def _expected(values, newline="\r\n") -> str:
    return "".join(["%.17g" % v + newline for v in np.asarray(values, float).tolist()])


def _written(values, newline="\r\n") -> str:
    return pde._table_text([np.asarray(values, float)], newline)


def _edge_values() -> np.ndarray:
    below_powers = np.nextafter(10.0 ** np.arange(-300, 16), 0.0)
    return np.concatenate([
        # 17-digit ties where 10^p is a double (half to even: ...0.2, ...0.8)
        [1000000000000000.25, 1000000000000000.75, 1000000000000001.25, 123456789012345.125,
         -1000000000000000.25],
        # ties where 10^p is not a double: 5*2^-24 = 2.98023223876953125e-07
        [5 * 2.0**-24, 3 * 2.0**-25, 2.0**-24, -5 * 2.0**-24],
        [9.9999999999999995e-05, 1e-4, 1e-5, 0.001, 0.1, 1.0, 10.0],
        [9999999999999998.0, 1e16, 1e17, 1e15, 999999999999999.9],
        below_powers, 10.0 ** np.arange(-300, 16),
        # three-digit exponents, both signs
        [1.5e-100, -2.5e-123, 1e-250, 1e-280, 1.0000000000000002e-280, 1e200, -1e300],
        [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308],
        [0.0, -0.0, np.nan, np.inf, -np.inf],
        # fixed notation: trailing zeros of the integer part stay, of the fraction go
        [1200.0, 1234.5, 0.00012, 120000000000000.0, 0.1 + 0.2, 1 / 3, -2 / 3],
    ])


def test_edge_table_matches_percent_g():
    values = _edge_values()
    assert values.size >= pde._VECTOR_MIN
    assert _written(values) == _expected(values)
    # the same values below _VECTOR_MIN at a time, formatted one by one
    for chunk in np.array_split(values, values.size // 10):
        assert chunk.size < pde._VECTOR_MIN
        assert _written(chunk) == _expected(chunk)


def test_ties_round_half_to_even():
    assert _written(np.full(pde._VECTOR_MIN, 1000000000000000.25)) == "1000000000000000.2\r\n" * pde._VECTOR_MIN
    assert _written(np.full(pde._VECTOR_MIN, 5 * 2.0**-24)) == "2.9802322387695312e-07\r\n" * pde._VECTOR_MIN


def test_empty_columns_and_one_value_columns():
    assert _written([]) == ""
    fields = pde._fields(np.arange(pde._VECTOR_MIN + 1, dtype=float) / 8.0)
    t, x = fields[:1], fields[1:]
    text = pde._csv_text([t, x, x], "\n")
    rows = [["0", "%.17g" % (i / 8.0), "%.17g" % (i / 8.0)] for i in range(1, pde._VECTOR_MIN + 1)]
    assert text == "".join([",".join(r) + "\n" for r in rows])


def test_random_doubles_across_exponents():
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.random(20_000) * 10.0 ** rng.integers(-320, 309, 20_000),
        rng.standard_normal(20_000),
        rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
    ])
    assert _written(values) == _expected(values)


def test_simulated_run_matches_csv_module(tmp_path):
    # a short run's series and snapshots, rendered by the csv module one
    # f"{v:.17g}" at a time
    cfg = SimConfig(
        length=40.0, n=128, dt=1e-3, t_final=0.02, equation=EquationSpec.from_strings("ux/u^3", "1/u^2"),
        initial={"kind": "cosine_offset", "params": {"offset": 2.0, "amplitude": 0.5}},
        series_dt=0.005, snapshot_times=(0.0, 0.01, 0.02),
    )
    res = run(cfg)
    assert len(res.snapshots) == 3 and len(res.series.t) == 5
    write_series_csv(tmp_path / "series.csv", res.series)
    write_snapshots_csv(tmp_path / "snaps.csv", cfg.grid, res.snapshots)

    header = ["t", "M", "H1sq", "L2msq", "E", "sup_u", "sup_ux", "min_u"]
    with open(tmp_path / "ref_series.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*(getattr(res.series, k) for k in header)):
            w.writerow([f"{v:.17g}" for v in row])
    with open(tmp_path / "ref_snaps.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "u", "m"])
        for t, u, m in res.snapshots:
            for j in range(cfg.n):
                w.writerow([f"{v:.17g}" for v in (t, cfg.grid.x[j], u[j], m[j])])
    for name in ("series.csv", "snaps.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref_{name}").read_bytes()


hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# every double hypothesis draws (subnormals, +-0, +-inf and NaN), and
# doubles spread evenly over the decimal exponents of the fast path
doubles = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 16)),
)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None,
                     suppress_health_check=list(hypothesis.HealthCheck))
@hypothesis.given(st.lists(doubles, max_size=3 * pde._VECTOR_MIN))
def test_writer_matches_percent_g(values):
    values = np.array(values, dtype=float)
    assert _written(values) == "".join(["%.17g" % v + "\r\n" for v in values.tolist()])
    # the vector path, whatever the size drawn
    tiled = np.resize(values, pde._VECTOR_MIN) if values.size else values
    assert _written(tiled, "\n") == "".join(["%.17g" % v + "\n" for v in tiled.tolist()])
