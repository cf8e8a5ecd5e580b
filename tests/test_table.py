import re

import numpy as np
import pytest

from hardscatter._table import write_csv
from hardscatter.classical import histogram_to_csv, trace, trace_to_csv
from hardscatter.geometry import Sphere
from hardscatter.lowfreq import amplitude_expansion, amplitude_to_csv, make_quadrature


def read_table(path):
    """Column names and rows of cells, comment lines dropped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_csv_floats_round_trip_and_counts_print_as_integers(tmp_path, sphere4_densities):
    amp, quad = amplitude_expansion(sphere4_densities), make_quadrature(8, 16)
    amplitude_to_csv(amp, quad, tmp_path / "f12.csv", header_lines=["demo"])
    names, rows = read_table(tmp_path / "f12.csv")
    assert names == ["cos_theta", "phi", "f1", "f2"]
    q = quad.nodes
    columns = [q[:, 2], np.arctan2(q[:, 1], q[:, 0]), amp.f1(q), amp.f2(q)]
    for row, values in zip(rows, zip(*columns), strict=True):
        assert [float(cell) for cell in row] == [float(v) for v in values]

    result = trace(Sphere(1.0), grid=64)
    trace_to_csv(result, tmp_path / "trace.csv")
    names, (row,) = read_table(tmp_path / "trace.csv")
    assert row[names.index("rays_total")] == str(result.rays_total)
    assert row[names.index("rays_hit")] == str(result.rays_hit)
    assert row[names.index("max_bounces")] == str(result.max_bounces_seen)

    histogram_to_csv(result.histogram, tmp_path / "hist.csv")
    names, rows = read_table(tmp_path / "hist.csv")
    counts = [row[names.index("ray_count")] for row in rows]
    assert all(re.fullmatch(r"\d+", cell) for cell in counts)
    assert [int(cell) for cell in counts] == result.histogram.counts.ravel().tolist()


def test_columns_of_unequal_length_raise_and_write_nothing(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="unequal length"):
        write_csv(path, ["demo"], {"a": np.arange(3), "b": np.zeros(2)})
    assert not path.exists()


def test_csv_rows_as_formatted_one_by_one(tmp_path):
    # integer and float columns, the 17-digit floats among them
    columns = {"i": np.arange(5), "x": np.linspace(-1.0, 1.0, 5) / 3.0,
               "y": np.array([0.0, -0.0, 1e-300, 1.5e300, np.pi])}
    write_csv(tmp_path / "table.csv", ["one", "two"], columns)
    rows = [f"{i},{x:.17g},{y:.17g}\n"
            for i, x, y in zip(*(v.tolist() for v in columns.values()))]
    assert (tmp_path / "table.csv").read_text() == "# one\n# two\ni,x,y\n" + "".join(rows)
