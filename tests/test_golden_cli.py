import math

import numpy as np

from tools.golden_cli import _differences, compare_file


def test_csv_columns_scaled_by_their_largest_magnitude():
    old = b"# config: mie\nka,sigma,n\n1,10,3\n2,-20,4\n"
    new = b"# config: mie\nka,sigma,n,extra\n1,10,3,7\n2.000000001,-20.0000002,4,8\n"
    changes, added = compare_file("mie.csv", old, new)
    assert set(changes) == {"ka", "sigma"}
    assert math.isclose(changes["ka"], 1e-9 / 2, rel_tol=1e-6)
    assert math.isclose(changes["sigma"], 2e-7 / 20, rel_tol=1e-6)
    assert added == ["extra"]


def test_csv_lost_column_comment_and_rows_count():
    old = b"# config: a\nka,sigma\n1,10\n2,20\n"
    changes, _ = compare_file("x.csv", old, b"# config: b\nka\n1\n2\n")
    assert changes == {"#": math.inf, "sigma": math.inf}
    changes, _ = compare_file("x.csv", old, b"# config: a\nka,sigma\n1,10\n")
    assert changes == {"ka": math.inf, "sigma": math.inf}


def test_json_keys_and_lists_as_columns():
    old = (b'{"meta": {"command": "compare"}, "d2": 8.0, '
           b'"highk": {"ka": [50.0, 100.0], "ratio": [1.0, 4.0], "pass": true}}')
    new = (b'{"meta": {"command": "compare"}, "d2": 8.0, "diagnostics": {"rcond": 0.1}, '
           b'"highk": {"ka": [50.0, 100.0], "ratio": [1.0, 4.000000000004], "pass": false}}')
    changes, added = compare_file("compare.json", old, new)
    assert set(changes) == {"highk.ratio", "highk.pass"}
    assert math.isclose(changes["highk.ratio"], 1e-12, rel_tol=1e-3)
    assert changes["highk.pass"] == math.inf
    assert added == ["diagnostics.rcond"]


def test_json_rounding_around_zero_scaled_by_the_files_largest_magnitude():
    # K is exactly 0 on a mirror-symmetric body and moves between rounding
    # values; a small key that is not rounding keeps its own scale
    old = b'{"capacity": 1.0, "K": 6.2e-17, "small": 1e-3}'
    new = b'{"capacity": 1.0, "K": 1.4e-17, "small": 1.000000001e-3}'
    changes, _ = compare_file("report.json", old, new)
    assert set(changes) == {"K", "small"}
    assert changes["K"] <= 1e-16
    assert math.isclose(changes["small"], 1e-9, rel_tol=1e-6)


def test_stdout_number_by_number():
    old = b"capacity 1.0000000000 at ka 0.5\nsigma 4.0e-16\n"
    changes, _ = compare_file("<stdout>", old, b"capacity 1.0000000000 at ka 0.5\nsigma 4.4e-16\n")
    assert math.isclose(changes["line 2"], 0.1, rel_tol=1e-9)
    assert "line 1" not in changes
    changes, _ = compare_file("<stdout>", old, b"Capacity 1.0000000000 at ka 0.5\nsigma 4.0e-16\n")
    assert changes == {"line 1": math.inf}
    changes, _ = compare_file("<stdout>", old, old + b"done\n")
    assert changes == {"<lines>": math.inf}
    # a number below 2^-52 of the stdout's largest is rounding around 0
    changes, _ = compare_file("<stdout>", b"K 6.2e-17 C 1.0\n", b"K 1.4e-17 C 1.0\n")
    assert changes["line 1"] <= 1e-16


def test_file_of_one_tree_reports_both_exits_and_stderr_tails():
    # equal exit codes, so only the missing file tells the trees apart
    before = {"raytrace_x": (0, {}, b"one\ntwo\nthree\nfour\nfive\nsix\n")}
    after = {"raytrace_x": (0, {"rays.csv": b"a\n"}, b"")}
    [(label, change)] = _differences(before, after, "abc123", numeric=False)
    assert change == math.inf
    assert label == ("raytrace_x: rays.csv written by one tree only (exit 0 at abc123, 0 now)"
                     "\n  stderr at abc123:\n    | two\n    | three\n    | four"
                     "\n    | five\n    | six"
                     "\n  stderr now:\n    | (empty)")


def test_groove_literal_is_the_tests_groove_prism():
    from hardscatter.geometry import loads_mesh
    from test_classical import groove_prism

    from tools.golden_cli import GROOVE_OFF

    mesh, want = loads_mesh(GROOVE_OFF), groove_prism()
    assert np.array_equal(mesh.vertices, want.vertices)
    assert np.array_equal(mesh.triangles, want.triangles)


def test_tetrahedra_literal_is_the_tests_two_far_tetrahedra():
    from hardscatter.geometry import loads_mesh
    from test_potential import two_far_tetrahedra

    from tools.golden_cli import TETRAHEDRA_OFF

    mesh, want = loads_mesh(TETRAHEDRA_OFF), two_far_tetrahedra(1e6)
    assert np.array_equal(mesh.vertices, want.vertices)
    assert np.array_equal(mesh.triangles, want.triangles)
