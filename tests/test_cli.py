import csv
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from lisscheb.cli import main
from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.interp import ChebExpansion, expansion_eval, interpolate
from lisscheb.nodes import NodeSpec, build_node_set
from lisscheb.spectral import build_gamma
from lisscheb.transform import SampleVector


N53 = validate_pairwise_coprime((5, 3))


def run(argv):
    return main(argv)


def test_nodes_csv(tmp_path):
    out = tmp_path / "nodes.csv"
    assert run(["nodes", "--n", "5,3", "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "i_1", "i_2", "x_1", "x_2", "weight", "parity", "face_bitmask",
    ]
    assert len(rows) == 1 + 12
    first = rows[1]
    assert first[:2] == ["0", "0"]
    assert float(first[2]) == 1.0
    assert float(first[4]) == pytest.approx(1.0 / 30.0)


def test_nodes_json(tmp_path):
    out = tmp_path / "nodes.json"
    assert run([
        "nodes", "--variant", "shifted", "--n", "5,3", "--kappa", "0,1",
        "--format", "json", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["variant"] == "shifted"
    assert payload["n"] == [5, 3]
    assert payload["kappa"] == [0, 1]
    assert len(payload["nodes"]) == 38


def test_validation_errors_exit_1(tmp_path, capsys):
    assert run(["nodes", "--n", "4,6"]) == 1
    err = capsys.readouterr().err
    assert "coprime" in err or "gcd" in err
    assert run(["nodes", "--n", "5,3", "--kappa", "0,0"]) == 1
    assert run(["nodes", "--variant", "shifted", "--n", "5,3"]) == 1
    assert run(["nodes", "--n", "5,x"]) == 1


def test_io_error_exit_2(tmp_path):
    missing = tmp_path / "nope" / "out.csv"
    assert run(["nodes", "--n", "5,3", "--out", str(missing)]) == 2


def test_curve_rows(tmp_path):
    out = tmp_path / "curve.csv"
    assert run([
        "curve", "--n", "5,3", "--samples", "11",
        "--t0", "0", "--t1", str(2 * math.pi), "--out", str(out),
    ]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "x_1", "x_2"]
    assert len(rows) == 12
    assert float(rows[1][1]) == 1.0
    assert float(rows[1][2]) == 1.0


def test_gamma_csv(tmp_path):
    out = tmp_path / "gamma.csv"
    assert run([
        "gamma", "--variant", "shifted", "--n", "5,3", "--kappa", "0,1",
        "--out", str(out),
    ]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["gamma_1", "gamma_2", "norm_sq", "special"]
    assert len(rows) == 1 + 38
    specials = [r for r in rows[1:] if r[3] == "1"]
    assert len(specials) == 1
    assert specials[0][:2] == ["0", "6"]


def _write_node_data(tmp_path, spec, fn, name="data.csv"):
    ns = build_node_set(spec)
    path = tmp_path / name
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            [f"i_{j + 1}" for j in range(spec.dim)] + ["value"]
        )
        for node in ns.nodes:
            writer.writerow(
                [str(v) for v in node.index] + ["%.17g" % fn(node.point)]
            )
    return path, ns


def test_interp_eval_roundtrip(tmp_path):
    spec = NodeSpec(n=validate_pairwise_coprime((5, 3)))
    fn = lambda x: math.sin(x[0]) + 0.5 * x[1] ** 3
    data, ns = _write_node_data(tmp_path, spec, fn)
    expansion = tmp_path / "expansion.json"
    assert run([
        "interp", "--n", "5,3", "--data", str(data),
        "--out", str(expansion),
    ]) == 0
    payload = json.loads(expansion.read_text())
    assert len(payload["coefficients"]) == 12

    points = tmp_path / "points.csv"
    with open(points, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x_1", "x_2"])
        for node in ns.nodes:
            writer.writerow(["%.17g" % c for c in node.point])
    out = tmp_path / "eval.csv"
    assert run([
        "eval", "--expansion", str(expansion), "--points", str(points),
        "--out", str(out),
    ]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1 + 12
    for row, node in zip(rows[1:], ns.nodes):
        assert float(row[2]) == pytest.approx(fn(node.point), abs=1e-10)


def _reference_payload(spec, fn):
    """The interp document as json.dump(indent=2) wrote it from a dict."""
    ns = build_node_set(spec)
    values = {node.index: float("%.17g" % fn(node.point)) for node in ns.nodes}
    expansion = interpolate(SampleVector(spec=spec, values=values))
    return {
        "variant": "shifted" if spec.is_shifted else "standard",
        "n": list(spec.n.entries),
        "kappa": list(spec.kappa) if spec.is_shifted else None,
        "coefficients": [
            {"gamma": list(gamma),
             "value": float("%.17g" % expansion.coeffs[gamma])}
            for gamma in expansion.gamma_set
        ],
    }


def _spec_argv(spec):
    argv = ["--n", ",".join(str(v) for v in spec.n.entries)]
    if spec.is_shifted:
        argv += ["--variant", "shifted",
                 "--kappa", ",".join(str(v) for v in spec.kappa)]
    return argv


@pytest.mark.parametrize("nv, kappa", [
    ((5, 3), None),
    ((5, 3), (0, 1)),
    ((7, 5, 3, 2), None),
    ((9, 7, 4), (1, 0, 0)),
])
def test_interp_json_layout(tmp_path, capsys, nv, kappa):
    spec = NodeSpec(n=validate_pairwise_coprime(nv), kappa=kappa)
    fn = lambda x: math.exp(x[0]) * math.cos(3 * x[-1]) - 0.25
    data, _ = _write_node_data(tmp_path, spec, fn)
    want = json.dumps(_reference_payload(spec, fn), indent=2) + "\n"
    out = tmp_path / "expansion.json"
    argv = ["interp", "--data", str(data)] + _spec_argv(spec)
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    assert run(argv) == 0
    assert capsys.readouterr().out == want


def test_interp_memory_is_streamed(tmp_path):
    # The document of (129,128) is about 1 MB.  json.dump of a payload dict
    # peaked at 4.96 MB, joining the entries into one string at 5.0 to
    # 6.5 MB, and streaming them peaks at about 4.4 MB.
    spec = NodeSpec(n=validate_pairwise_coprime((129, 128)))
    data, _ = _write_node_data(tmp_path, spec, lambda x: x[0] * x[1])
    out = tmp_path / "expansion.json"
    argv = ["interp", "--n", "129,128", "--data", str(data), "--out", str(out)]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.96e6
    assert len(json.loads(out.read_text())["coefficients"]) == 8385


def _expansion_file(tmp_path, spec):
    """Interpolate a smooth function with ``lisscheb interp``; the path."""
    fn = lambda x: math.exp(x[0]) * math.cos(3 * x[-1]) - 0.25
    data, _ = _write_node_data(tmp_path, spec, fn)
    out = tmp_path / "expansion.json"
    argv = ["interp", "--data", str(data), "--out", str(out)]
    assert run(argv + _spec_argv(spec)) == 0
    return out


def _points_file(tmp_path, points):
    path = tmp_path / "points.csv"
    lines = [",".join(f"x_{j + 1}" for j in range(len(points[0])))]
    lines += [",".join("%.17g" % c for c in x) for x in points]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("nv, kappa", [
    ((5, 3), None),
    ((5, 3), (0, 1)),
    ((129, 128), None),
])
def test_eval_output_matches_per_point_eval(tmp_path, nv, kappa):
    spec = NodeSpec(n=validate_pairwise_coprime(nv), kappa=kappa)
    expansion = _expansion_file(tmp_path, spec)
    rng = np.random.default_rng(40)
    points = rng.uniform(-1.0, 1.0, size=(40, spec.dim)).tolist()
    points[:3] = [[1.0] * spec.dim, [-1.0] * spec.dim, [1.0 + 1e-13, -0.0]]
    path = _points_file(tmp_path, points)
    out = tmp_path / "values.csv"
    assert run(["eval", "--expansion", str(expansion), "--points", str(path),
                "--out", str(out)]) == 0

    payload = json.loads(expansion.read_text())
    p = ChebExpansion(gamma_set=build_gamma(spec), coeffs={
        tuple(e["gamma"]): e["value"] for e in payload["coefficients"]
    })
    want = ["x_1,x_2,value"] + [
        ",".join("%.17g" % v for v in x + [expansion_eval(p, x)])
        for x in points
    ]
    assert out.read_bytes() == ("\n".join(want) + "\n").encode()


def test_eval_header_only_points_file(tmp_path):
    expansion = _expansion_file(tmp_path, NodeSpec(n=N53))
    points = tmp_path / "points.csv"
    points.write_text("x_1,x_2\n")
    out = tmp_path / "values.csv"
    assert run(["eval", "--expansion", str(expansion), "--points", str(points),
                "--out", str(out)]) == 0
    assert out.read_text() == "x_1,x_2,value\n"


def test_eval_many_points_is_fast_and_blocked(tmp_path):
    # 2,000 points on (129,128): about 12 s one point at a time, 0.25 to
    # 0.6 s batched.  The batched kernel works in blocks of 2^18 terms and
    # peaked at 8.1 MB under tracemalloc (4.1 MB with 2^16-term blocks,
    # 27 MB with 2^20 and 272 MB unblocked).
    spec = NodeSpec(n=validate_pairwise_coprime((129, 128)))
    expansion = _expansion_file(tmp_path, spec)
    rng = np.random.default_rng(41)
    path = _points_file(tmp_path, rng.uniform(-1.0, 1.0, size=(2000, 2)))
    out = tmp_path / "values.csv"
    argv = ["eval", "--expansion", str(expansion), "--points", str(path),
            "--out", str(out)]
    t0 = time.perf_counter()
    assert run(argv) == 0
    assert time.perf_counter() - t0 < 2.0
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    assert len(out.read_text().splitlines()) == 1 + 2000


def test_interp_rejects_bad_data(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("i_1,i_2,value\n0,1,3.5\n")
    assert run(["interp", "--n", "5,3", "--data", str(data)]) == 1


def _assert_clean_error(capsys, code, *needles):
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")
    for needle in needles:
        assert needle in captured.err


@pytest.mark.parametrize("argv", [
    ["nodes", "--variant", "shifted", "--n", "5,3", "--kappa", "0,1,2"],
    ["curve", "--n", "5,3", "--kappa", "0"],
    ["curve", "--n", "5,3", "--u", "1,2"],
    ["gamma", "--n", "1000003,1000033"],
    ["nodes", "--n", "1000003,1000033"],
])
def test_bad_parameters_exit_1(argv, capsys):
    _assert_clean_error(capsys, run(argv))


def test_eval_non_integer_n_exit_1(tmp_path, capsys):
    expansion = tmp_path / "p.json"
    expansion.write_text(json.dumps({
        "variant": "standard", "n": [5.5, 3], "kappa": None,
        "coefficients": [{"gamma": [0, 0], "value": 1.0}],
    }))
    points = tmp_path / "pts.csv"
    points.write_text("x_1,x_2\n0.1,0.2\n")
    code = run(["eval", "--expansion", str(expansion), "--points", str(points)])
    _assert_clean_error(capsys, code, "must be integers")


def test_non_finite_data_exit_1(tmp_path, capsys):
    spec = NodeSpec(n=validate_pairwise_coprime((5, 3)))
    data, _ = _write_node_data(tmp_path, spec, lambda x: 1.0)
    lines = data.read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + ",nan"
    data.write_text("\n".join(lines) + "\n")
    for command in ("quad", "interp"):
        code = run([command, "--n", "5,3", "--data", str(data)])
        _assert_clean_error(capsys, code, "(1, 3)", "not finite")


def test_repeated_sample_row_exit_1(tmp_path, capsys):
    spec = NodeSpec(n=validate_pairwise_coprime((5, 3)))
    data, _ = _write_node_data(tmp_path, spec, lambda x: 1.0)
    with open(data, "a") as handle:
        handle.write("0,0,1000.0\n")
    for command in ("quad", "interp"):
        code = run([command, "--n", "5,3", "--data", str(data)])
        _assert_clean_error(capsys, code, str(data), "line 14",
                            "repeated index (0, 0)")


def test_overflowing_data_exit_1(tmp_path, capsys):
    spec = NodeSpec(n=validate_pairwise_coprime((5, 3)))
    data, _ = _write_node_data(tmp_path, spec, lambda x: 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["interp", "--n", "5,3", "--data", str(data)])
    _assert_clean_error(capsys, code, "(0, 0)", "not finite")


def test_non_integer_index_cell_exit_1(tmp_path, capsys):
    spec = NodeSpec(n=validate_pairwise_coprime((5, 3)))
    data, _ = _write_node_data(tmp_path, spec, lambda x: 1.0)
    lines = data.read_text().splitlines()
    lines[3] = "1.5," + lines[3].split(",", 1)[1]
    data.write_text("\n".join(lines) + "\n")
    for command in ("quad", "interp"):
        code = run([command, "--n", "5,3", "--data", str(data)])
        _assert_clean_error(capsys, code, str(data), "line 4")


def test_eval_non_numeric_points_exit_1(tmp_path, capsys):
    spec = NodeSpec(n=validate_pairwise_coprime((5, 3)))
    data, _ = _write_node_data(tmp_path, spec, lambda x: x[0])
    expansion = tmp_path / "expansion.json"
    assert run([
        "interp", "--n", "5,3", "--data", str(data), "--out", str(expansion),
    ]) == 0
    points = tmp_path / "points.csv"
    points.write_text("x_1,x_2\n0.1,0.2\n0.3,abc\n")
    code = run(["eval", "--expansion", str(expansion), "--points", str(points)])
    _assert_clean_error(capsys, code, str(points), "line 3")


@pytest.mark.parametrize("entries, needles", [
    # a float gamma hashes equal to the integer tuple (0, 1)
    ([{"gamma": [0.0, 1], "value": 1.0}],
     ["coefficient entry 1", "must be integers", "0.0"]),
    ([{"gamma": [0, 1], "value": 1.0}, {"gamma": [0, 1], "value": 5.0}],
     ["coefficient entry 2", "repeated gamma (0, 1)"]),
    ([{"gamma": [0, 0], "value": 1.0}, {"gamma": [4, 2], "value": 1.0}],
     ["coefficient entry 2", "gamma (4, 2) outside the spectral set"]),
    ([{"gamma": [0, 0, 0], "value": 1.0}],
     ["coefficient entry 1", "gamma (0, 0, 0) outside the spectral set"]),
    ([{"gamma": [1, 1], "value": 1.0}, {"gamma": [10**30, 0], "value": 1.0}],
     ["coefficient entry 2", "outside the spectral set"]),
    # the value of an entry must be finite
    ([{"gamma": [0, 0], "value": 1.0}, {"gamma": [1, 1], "value": math.nan}],
     ["coefficient entry 2", "value nan is not finite"]),
    ([{"gamma": [0, 0], "value": -math.inf}],
     ["coefficient entry 1", "value -inf is not finite"]),
    ([{"gamma": [0, 0], "value": 10**400}],
     ["malformed expansion", "too large to convert to float"]),
    # a list inside a gamma makes the tuple unhashable
    ([{"gamma": [[0], 1], "value": 1.0}],
     ["malformed expansion", "unhashable type"]),
])
def test_eval_bad_gamma_entry_exit_1(tmp_path, capsys, entries, needles):
    expansion = tmp_path / "expansion.json"
    expansion.write_text(json.dumps({
        "variant": "standard", "n": [5, 3], "kappa": None,
        "coefficients": entries,
    }))
    points = tmp_path / "points.csv"
    points.write_text("x_1,x_2\n0.1,0.2\n")
    code = run(["eval", "--expansion", str(expansion), "--points", str(points)])
    _assert_clean_error(capsys, code, str(expansion), *needles)


@pytest.mark.parametrize("row, message", [
    ("0.3,1.5", "coordinate 1.5 outside [-1, 1]"),
    ("0.3,0.4,0.5", "point has 3 coordinates, expected 2"),
    ("nan,0.4", "coordinate nan is not finite"),
])
def test_eval_bad_point_names_the_line(tmp_path, capsys, row, message):
    expansion = _expansion_file(tmp_path, NodeSpec(n=N53))
    points = tmp_path / "points.csv"
    points.write_text("x_1,x_2\n0.1,0.2\n-1,1\n" + row + "\n0.5,0.5\n")
    code = run(["eval", "--expansion", str(expansion), "--points", str(points)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {points}, line 4: {message}\n"


def test_eval_expansion_missing_key_exit_1(tmp_path, capsys):
    expansion = tmp_path / "expansion.json"
    expansion.write_text(json.dumps({"n": [5, 3], "kappa": None}))
    points = tmp_path / "points.csv"
    points.write_text("x_1,x_2\n0.1,0.2\n")
    code = run(["eval", "--expansion", str(expansion), "--points", str(points)])
    _assert_clean_error(capsys, code, str(expansion), "'coefficients'")


def test_quad_command(tmp_path, capsys):
    spec = NodeSpec(n=validate_pairwise_coprime((5, 3)))
    data, _ = _write_node_data(tmp_path, spec, lambda x: 1.0)
    assert run(["quad", "--n", "5,3", "--data", str(data)]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.0, abs=1e-14)


def test_verify_exit_codes(capsys):
    assert run(["verify", "--n", "5,3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out

    assert run([
        "verify", "--variant", "shifted", "--n", "3,1,2",
        "--kappa", "0,0,0", "--suite", "curve",
    ]) == 0
    capsys.readouterr()

    assert run(["verify", "--n", "5,3", "--tamper-weight"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out


def test_outputs_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert run(["nodes", "--n", "5,3,2", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()

    ja = tmp_path / "a.json"
    jb = tmp_path / "b.json"
    for path in (ja, jb):
        assert run([
            "gamma", "--variant", "shifted", "--n", "5,3",
            "--kappa", "0,0", "--format", "json", "--out", str(path),
        ]) == 0
    assert ja.read_bytes() == jb.read_bytes()
