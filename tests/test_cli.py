import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisscheb import cli, nodes, verify
from lisscheb.cli import main
from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.curves import LCCurve, lc_eval
from lisscheb.interp import ChebExpansion, expansion_eval, interpolate
from lisscheb.nodes import MAX_BOX_CELLS, NodeSpec, build_node_set
from lisscheb.spectral import build_gamma
from lisscheb.transform import SampleVector


N53 = validate_pairwise_coprime((5, 3))
SRC = Path(__file__).resolve().parents[1] / "src"


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


@pytest.mark.parametrize("kappa, same", [
    ("100000000000000000000001,0", "1,0"),  # 10**23 is a multiple of 20
    ("1" + "0" * 400 + ",0", "0,0"),  # beyond the float range
], ids=["10**23+1", "10**400"])
def test_curve_reduces_kappa_exactly(tmp_path, kappa, same):
    paths = [tmp_path / "given.csv", tmp_path / "same.csv"]
    for k, path in zip((kappa, same), paths):
        assert run([
            "curve", "--n", "5,3", "--epsilon", "2", "--kappa", k,
            "--samples", "3", "--out", str(path),
        ]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


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


def _reference_document(spec, command, fn=None):
    """The nodes, gamma or interp (of fn) document as json.dump(indent=2)
    wrote it from a dict."""
    if command == "nodes":
        key, entries = "nodes", [
            {"index": list(node.index), "point": list(node.point),
             "weight": node.weight, "parity": node.parity,
             "face_bitmask": sum(1 << j for j in node.face)}
            for node in build_node_set(spec).nodes
        ]
    elif command == "gamma":
        gs = build_gamma(spec)
        key, entries = "elements", [
            {"gamma": list(gamma), "norm_sq": float(norm_sq),
             "special": gamma == gs.special}
            for gamma, norm_sq in zip(gs, gs.norm_sq)
        ]
    else:
        ns = build_node_set(spec)
        values = {node.index: float("%.17g" % fn(node.point))
                  for node in ns.nodes}
        expansion = interpolate(SampleVector(spec=spec, values=values))
        key, entries = "coefficients", [
            {"gamma": list(gamma), "value": float("%.17g" % value)}
            for gamma, value in zip(expansion.gamma_set, expansion.coeffs)
        ]
    return json.dumps({
        "variant": "shifted" if spec.is_shifted else "standard",
        "n": list(spec.n.entries),
        "kappa": list(spec.kappa) if spec.is_shifted else None,
        key: entries,
    }, indent=2) + "\n"


def _reference_table(header, rows):
    """A table as csv.writer writes it, with floats in 17 digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [c if isinstance(c, int) else "%.17g" % c for c in row] for row in rows
    )
    return buf.getvalue()


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
    ((12,), None),
])
def test_interp_json_layout(tmp_path, capsys, nv, kappa):
    spec = NodeSpec(n=validate_pairwise_coprime(nv), kappa=kappa)
    fn = lambda x: math.exp(x[0]) * math.cos(3 * x[-1]) - 0.25
    data, _ = _write_node_data(tmp_path, spec, fn)
    want = _reference_document(spec, "interp", fn)
    out = tmp_path / "expansion.json"
    argv = ["interp", "--data", str(data)] + _spec_argv(spec)
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    assert run(argv) == 0
    assert capsys.readouterr().out == want


LAYOUT_SPECS = [
    ((5, 3), None),
    ((5, 3), (0, 1)),
    ((12,), None),
    ((7, 5, 3, 2), None),
    ((9, 7, 4), (1, 0, 0)),
]


@pytest.mark.parametrize("nv, kappa", LAYOUT_SPECS)
@pytest.mark.parametrize("command", ["nodes", "gamma"])
def test_json_layout(tmp_path, capsys, command, nv, kappa):
    spec = NodeSpec(n=nv, kappa=kappa)
    want = _reference_document(spec, command)
    out = tmp_path / "out.json"
    argv = [command, "--format", "json"] + _spec_argv(spec)
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    assert run(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("nv, kappa", LAYOUT_SPECS)
def test_csv_layout(tmp_path, nv, kappa):
    spec = NodeSpec(n=nv, kappa=kappa)
    d = spec.dim
    names = lambda name: [f"{name}_{j + 1}" for j in range(d)]
    gs = build_gamma(spec)
    want = {
        "nodes": _reference_table(
            names("i") + names("x") + ["weight", "parity", "face_bitmask"],
            ([*node.index, *node.point, node.weight, node.parity,
              sum(1 << j for j in node.face)]
             for node in build_node_set(spec).nodes)),
        "gamma": _reference_table(
            names("gamma") + ["norm_sq", "special"],
            ([*gamma, float(norm_sq), int(gamma == gs.special)]
             for gamma, norm_sq in zip(gs, gs.norm_sq))),
    }
    for command, text in want.items():
        out = tmp_path / f"{command}.csv"
        assert run([command, "--out", str(out)] + _spec_argv(spec)) == 0
        assert out.read_bytes() == text.encode()

    # The generating curve of the spec's family, with alternating signs.
    epsilon, shift = (2, spec.kappa) if spec.is_shifted else (1, (0,) * d)
    u = [(-1) ** j for j in range(d)]
    curve = LCCurve(n=spec.n, epsilon=epsilon, kappa=shift, u=u)
    step = (4.25 - -0.5) / 36
    ts = [-0.5 + k * step for k in range(37)]
    out = tmp_path / "curve.csv"
    assert run([
        "curve", "--n", ",".join(map(str, spec.n.entries)),
        "--epsilon", str(epsilon), "--kappa", ",".join(map(str, shift)),
        "--u", ",".join(map(str, u)), "--samples", "37",
        "--t0", "-0.5", "--t1", "4.25", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == _reference_table(
        ["t"] + names("x"), ([t, *lc_eval(curve, t)] for t in ts)
    ).encode()

    expansion = _expansion_file(tmp_path, spec)
    payload = json.loads(expansion.read_text())
    p = ChebExpansion(gamma_set=gs, coeffs={
        tuple(e["gamma"]): e["value"] for e in payload["coefficients"]
    })
    points = np.random.default_rng(41).uniform(-1, 1, size=(25, d)).tolist()
    out = tmp_path / "values.csv"
    assert run(["eval", "--expansion", str(expansion), "--points",
                str(_points_file(tmp_path, points)), "--out", str(out)]) == 0
    assert out.read_bytes() == _reference_table(
        names("x") + ["value"], ([*x, expansion_eval(p, x)] for x in points)
    ).encode()


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


def test_nodes_json_memory_is_streamed(tmp_path):
    # The nodes document of (129,128) is about 2.3 MB.  json.dump of a
    # payload dict peaked at 5.43 MB, and streaming the rows, each float
    # column rendered by one call of the C encoder, at about 3.0 MB.
    out = tmp_path / "nodes.json"
    argv = ["nodes", "--n", "129,128", "--format", "json", "--out", str(out)]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert len(json.loads(out.read_text())["nodes"]) == 8385


@pytest.mark.parametrize("command, bound", [("gamma", 0.45e6),
                                            ("nodes", 1.2e6)])
def test_csv_memory_is_converted_in_blocks(tmp_path, command, bound):
    # Listing every column before the first row peaked at 0.67 MB (gamma)
    # and 1.65 MB (nodes) for (129,128); blocks of rows at 0.26 and 0.71 MB.
    out = tmp_path / f"{command}.csv"
    argv = [command, "--n", "129,128", "--out", str(out)]
    assert run(argv) == 0  # fills the spec's cache outside the trace
    want = out.read_bytes()
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert out.read_bytes() == want and want.count(b"\n") == 8386


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


@pytest.mark.parametrize("header", [
    "0.1,0.2",  # no header: the first point would be dropped
    "x_1,y_2", "x_1", "x_1,x_2,x_3", "i_1,i_2", "x1,x2", "x_2,x_1",
])
def test_eval_points_file_without_its_header_exit_1(tmp_path, capsys, header):
    expansion = _expansion_file(tmp_path, NodeSpec(n=N53))
    points = tmp_path / "points.csv"
    points.write_text(header + "\n0.3,0.4\n")
    code = run(["eval", "--expansion", str(expansion), "--points", str(points)])
    _assert_clean_error(capsys, code, f"{points}, line 1: expected the header "
                        f"x_1,x_2, got {header!r}")


@pytest.mark.parametrize("header", [
    "0,0,1.5", "i_1,i_2", "i_1,i_2,v", "x_1,x_2,value", "i_1,i_2,i_3,value",
])
def test_data_file_without_its_header_exit_1(tmp_path, capsys, header):
    data, _ = _write_node_data(tmp_path, NodeSpec(n=N53), lambda x: x[0])
    rows = data.read_text().split("\n", 1)[1]
    data.write_text(header + "\n" + rows)
    for command in ("quad", "interp"):
        code = run([command, "--n", "5,3", "--data", str(data)])
        _assert_clean_error(capsys, code, f"{data}, line 1: expected the "
                            f"header i_1,i_2,value, got {header!r}")


def test_header_cells_may_carry_blanks(tmp_path, capsys):
    data, _ = _write_node_data(tmp_path, NodeSpec(n=N53), lambda x: 2.0)
    rows = data.read_text().split("\n", 1)[1]
    data.write_text(" i_1 ,\ti_2, value\r\n" + rows)
    assert run(["quad", "--n", "5,3", "--data", str(data)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.0)


@pytest.mark.parametrize("nv, kappa", [
    ((5, 3), None), ((9, 7, 4), (1, 0, 0)), ((7, 5, 3, 2), None),
])
def test_output_is_the_same_on_a_cold_and_a_warm_cache(
    tmp_path, capsys, monkeypatch, nv, kappa
):
    spec = NodeSpec(n=validate_pairwise_coprime(nv), kappa=kappa)
    fn = lambda x: math.exp(x[0]) * math.cos(3 * x[-1]) - 0.25
    data, _ = _write_node_data(tmp_path, spec, fn)
    expansion = _expansion_file(tmp_path, spec)
    rng = np.random.default_rng(3)
    points = _points_file(tmp_path, rng.uniform(-1, 1, (20, spec.dim)))
    out = tmp_path / "out.txt"
    commands = {
        "interp": ["interp", "--data", str(data)] + _spec_argv(spec),
        "quad": ["quad", "--data", str(data)] + _spec_argv(spec),
        "eval": ["eval", "--expansion", str(expansion),
                 "--points", str(points)],
    }
    for name, argv in commands.items():
        written = []
        for warm in (False, True):
            if not warm:  # Γ sets and node sets all dropped
                monkeypatch.setattr(nodes, "_cache", OrderedDict())
                monkeypatch.setattr(nodes, "_cache_bytes", 0)
            assert run(argv + ["--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1], name
        assert ("node_set" if name != "eval" else "gamma", spec) in nodes._cache
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("nv, kappa", [((129, 128), None), ((9, 7, 4), (1, 0, 0))])
def test_quad_writes_the_node_order_dot_product(tmp_path, empty_cache, nv, kappa):
    # Sample files laid out as the benchmark's: one row per node in node
    # order, values in 17 digits.  The output is sum_i w_i h(i) summed in
    # that order, on a cold and a warm cache.
    spec = NodeSpec(n=validate_pairwise_coprime(nv), kappa=kappa)
    fn = lambda x: math.sin(2 * x[0] + 1) * math.cos(5 * x[-1]) + 0.125
    data, ns = _write_node_data(tmp_path, spec, fn)
    values = [float("%.17g" % fn(point)) for point in ns.points.tolist()]
    want = ("%.17g\n" % np.dot(ns.weights, values)).encode()
    out = tmp_path / "out.txt"
    for _ in range(2):
        argv = ["quad", "--data", str(data), "--out", str(out)]
        assert run(argv + _spec_argv(spec)) == 0
        assert out.read_bytes() == want


def test_eval_empty_points_file_exit_1(tmp_path, capsys):
    expansion = _expansion_file(tmp_path, NodeSpec(n=N53))
    points = tmp_path / "points.csv"
    points.write_text("")
    code = run(["eval", "--expansion", str(expansion), "--points", str(points)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: empty data file {points}\n"


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
    ["curve", "--n", "5,3", "--t0", "nan"],
    ["curve", "--n", "5,3", "--t1", "inf"],
    ["curve", "--n", "5,3", "--samples", str(MAX_BOX_CELLS + 1)],
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


def test_eval_oversized_spec_exit_1(tmp_path, capsys):
    # The grid-box error names no coefficient entry and is passed on as is.
    expansion = tmp_path / "p.json"
    expansion.write_text(json.dumps({
        "variant": "standard", "n": [1000003, 1000033], "kappa": None,
        "coefficients": [{"gamma": [0, 0], "value": 1.0}],
    }))
    points = tmp_path / "pts.csv"
    points.write_text("x_1,x_2\n0.1,0.2\n")
    code = run(["eval", "--expansion", str(expansion), "--points", str(points)])
    _assert_clean_error(capsys, code, "grid box of", "exceeds the limit")


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
    # +-1.7e308 with the sign of T_1(x_1) T_1(x_2): the true coefficient at
    # gamma (1, 1) is about 4 * 0.43 * 1.7e308, beyond the float range.
    spec = NodeSpec(n=validate_pairwise_coprime((5, 3)))
    data, _ = _write_node_data(
        tmp_path, spec, lambda x: math.copysign(1.7e308, x[0] * x[1])
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["interp", "--n", "5,3", "--data", str(data)])
    _assert_clean_error(capsys, code, "(1, 1)", "not finite")


def test_data_near_float_max_with_finite_coefficients_exit_0(tmp_path):
    spec = NodeSpec(n=validate_pairwise_coprime((5, 3)))
    data, _ = _write_node_data(tmp_path, spec, lambda x: 1.7e308)
    out = tmp_path / "p.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["interp", "--n", "5,3", "--data", str(data),
                    "--out", str(out)])
    assert code == 0
    first = json.loads(out.read_text())["coefficients"][0]
    assert first["gamma"] == [0, 0]
    assert first["value"] == pytest.approx(1.7e308, rel=1e-14)


def test_non_integer_index_cell_exit_1(tmp_path, capsys):
    spec = NodeSpec(n=validate_pairwise_coprime((5, 3)))
    data, _ = _write_node_data(tmp_path, spec, lambda x: 1.0)
    lines = data.read_text().splitlines()
    lines[3] = "1.5," + lines[3].split(",", 1)[1]
    data.write_text("\n".join(lines) + "\n")
    for command in ("quad", "interp"):
        code = run([command, "--n", "5,3", "--data", str(data)])
        _assert_clean_error(capsys, code, str(data), "line 4")


def _per_row_samples(spec, path):
    """The samples of a valid data file, read one csv row at a time."""
    d = spec.dim
    values = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            assert len(row) == d + 1
            idx = tuple(map(int, row[:d]))
            assert idx not in values
            values[idx] = float(row[d])
    return values


def _sample_file(tmp_path, spec, form):
    """A data file of the spec's nodes in shuffled order.

    The values span the float range and include -0.0, 0.0 and the smallest
    subnormal; they are written alternately by %.17g and repr.  ``form`` is
    "lf", "crlf", "spaces" (blanks around every cell) or "plus" (a + sign
    on every index cell).
    """
    ns = build_node_set(spec)
    rng = np.random.default_rng(len(ns))
    values = rng.standard_normal(len(ns)) * 10.0 ** rng.integers(-300, 300,
                                                                 len(ns))
    values[:4] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308]
    rows = []
    for k in rng.permutation(len(ns)):
        index = ns.indices[k].tolist()
        cells = ["+%d" % i if form == "plus" else str(i) for i in index]
        cells.append(repr(float(values[k])) if k % 2 else "%.17g" % values[k])
        if form == "spaces":
            cells = [" %s\t" % c for c in cells]
        rows.append(",".join(cells))
    header = ",".join([f"i_{j + 1}" for j in range(spec.dim)] + ["value"])
    end = "\r\n" if form == "crlf" else "\n"
    path = tmp_path / "samples.csv"
    with open(path, "w", newline="") as handle:
        handle.write(end.join([header] + rows) + end)
    return path


@pytest.mark.parametrize("form", ["lf", "crlf", "spaces", "plus"])
@pytest.mark.parametrize("nv, kappa", [
    ((5, 3), None),
    ((5, 3), (0, 1)),
    ((12,), None),
    ((7, 5, 3, 2), None),
    ((129, 128), None),
])
def test_reader_matches_per_row_oracle(tmp_path, nv, kappa, form):
    spec = NodeSpec(n=validate_pairwise_coprime(nv), kappa=kappa)
    path = _sample_file(tmp_path, spec, form)
    want = _per_row_samples(spec, path)
    got = cli._read_samples(spec, str(path)).values
    assert list(got) == list(want)
    assert all(type(i) is int for key in got for i in key)
    assert [float.hex(v) for v in got.values()] == [
        float.hex(v) for v in want.values()
    ]


def test_quad_reads_without_csv_reader(tmp_path, capsys, monkeypatch):
    # A valid file is parsed in bulk; the per-line scan runs only on errors.
    spec = NodeSpec(n=validate_pairwise_coprime((129, 128)))
    data, _ = _write_node_data(tmp_path, spec, lambda x: 1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(cli.csv, "reader", refuse)
    assert run(["quad", "--n", "129,128", "--data", str(data)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-13)


def _replace_cells(line, index=None, value=None):
    cells = line.split(",")
    if index is not None:
        cells[0] = index
    if value is not None:
        cells[-1] = value
    return ",".join(cells)


@pytest.mark.parametrize("edit, line, message", [
    (lambda ls: ls.insert(4, ""), 5,
     "expected 2 index columns plus a value, got 0"),
    (lambda ls: ls.append(""), 14,
     "expected 2 index columns plus a value, got 0"),
    (lambda ls: ls.insert(2, " \t"), 3,
     "expected 2 index columns plus a value, got 1"),
    (lambda ls: ls.__setitem__(3, ls[3] + ",2"), 4,
     "expected 2 index columns plus a value, got 4"),
    (lambda ls: ls.__setitem__(3, _replace_cells(ls[3], index="1.0")), 4,
     "invalid literal for int() with base 10: '1.0'"),
    (lambda ls: ls.__setitem__(6, _replace_cells(ls[6], value="abc")), 7,
     "could not convert string to float: 'abc'"),
    (lambda ls: ls.__setitem__(6, _replace_cells(ls[6], value="")), 7,
     "could not convert string to float: ''"),
    (lambda ls: ls.append(ls[1]), 14, "repeated index (0, 0)"),
    (lambda ls: ls.__setitem__(
        3, _replace_cells(ls[3], index="9223372036854775808")), 4,
     "index (9223372036854775808, 1) is outside the int64 range"),
    (lambda ls: ls.__setitem__(3, _replace_cells(ls[3], index="0_1")), 4,
     "cell '0_1' has an underscore or a non-ASCII character"),
    (lambda ls: ls.__setitem__(5, _replace_cells(ls[5], value="1_5")), 6,
     "cell '1_5' has an underscore or a non-ASCII character"),
    # np.loadtxt strips non-ASCII blanks; the reader does not let it.
    (lambda ls: ls.__setitem__(5, _replace_cells(ls[5], value="1.0\xa0")), 6,
     "cell '1.0\\xa0' has an underscore or a non-ASCII character"),
    (lambda ls: ls.__setitem__(7, _replace_cells(ls[7], value="\u2003 1.0")),
     8, "cell '\\u2003 1.0' has an underscore or a non-ASCII character"),
], ids=["blank-line", "trailing-blank-line", "whitespace-line", "four-cells",
        "float-index", "abc-value", "empty-value", "repeated-row",
        "beyond-int64", "underscore-index", "underscore-value", "nbsp-value",
        "em-space-value"])
def test_bad_data_line_names_file_and_line(tmp_path, capsys, edit, line,
                                           message):
    data, _ = _write_node_data(tmp_path, NodeSpec(n=N53), lambda x: 1.0)
    lines = data.read_text().splitlines()
    edit(lines)
    data.write_text("\n".join(lines) + "\n")
    for command in ("quad", "interp"):
        code = run([command, "--n", "5,3", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {data}, line {line}: {message}\n"


# Pieces of data cells: blanks numpy and str.strip() agree on, digits that
# int() takes and numpy does not, and int64 edge values.
_CELL_PIECES = ["0", "7", "+", "-", ".", "e", "_", " ", "\t", "\x1c", "\xa0",
                "٣", "１", '"', "#", "inf", "nan",
                "9223372036854775807", "9223372036854775808"]


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.lists(st.lists(st.sampled_from(_CELL_PIECES), max_size=3)
                .map("".join), min_size=1, max_size=3))
def test_line_scan_rejects_what_loadtxt_rejects(cells):
    line = ",".join(cells)
    # The reader takes a line when it is ASCII without underscores and
    # np.loadtxt takes it; the scan must name every other line.
    try:
        np.loadtxt([line], dtype=[("i", np.int64, (1,)), ("v", np.float64)],
                   delimiter=",", comments=None, ndmin=1)
        accepted = line.isascii() and "_" not in line
    except (ValueError, Warning):
        accepted = False
    with pytest.raises(cli.LisschebError) as exc:
        cli._raise_bad_line("data.csv", [line], 1, 2, "no bad line")
    assert (str(exc.value) == "data.csv: no bad line") == accepted


@pytest.mark.parametrize("body, message", [
    ("", "sample vector has 0 entries, expected 12"),
    ("\n\n", "line 2: expected 2 index columns plus a value, got 0"),
])
def test_data_file_without_rows_exit_1(tmp_path, capsys, body, message):
    data = tmp_path / "data.csv"
    data.write_text("i_1,i_2,value\n" + body)
    for command in ("quad", "interp"):
        code = run([command, "--n", "5,3", "--data", str(data)])
        _assert_clean_error(capsys, code, message)


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
     ["coefficient entry 2", "gamma (4, 2) is not in the spectral set"]),
    ([{"gamma": [0, 0, 0], "value": 1.0}],
     ["coefficient entry 1", "gamma (0, 0, 0) is not a tuple of 2 integers"]),
    ([{"gamma": [1, 1], "value": 1.0}, {"gamma": [10**30, 0], "value": 1.0}],
     ["coefficient entry 2", "gamma (1000000000000000000000000000000, 0)",
      "is not in the spectral set"]),
    # the value of an entry must be finite
    ([{"gamma": [0, 0], "value": 1.0}, {"gamma": [1, 1], "value": math.nan}],
     ["coefficient entry 2", "coefficient nan at gamma (1, 1) is not finite"]),
    ([{"gamma": [0, 0], "value": -math.inf}],
     ["coefficient entry 1", "coefficient -inf at gamma (0, 0)",
      "is not finite"]),
    ([{"gamma": [0, 0], "value": 10**400}],
     ["coefficient entry 1", "at gamma (0, 0) is too large for a float"]),
    # a list inside a gamma makes the tuple unhashable
    ([{"gamma": [[0], 1], "value": 1.0}],
     ["malformed expansion", "unhashable type"]),
    # the value of an entry must be a JSON number
    ([{"gamma": [0, 0], "value": 1.0}, {"gamma": [1, 1], "value": "1.5"}],
     ["coefficient entry 2", "coefficient '1.5' at gamma (1, 1)",
      "is not a number"]),
    ([{"gamma": [0, 0], "value": None}],
     ["coefficient entry 1", "coefficient None at gamma (0, 0)",
      "is not a number"]),
    ([{"gamma": [0, 0], "value": 1.0}, {"gamma": [True, 1], "value": 1.0}],
     ["coefficient entry 2", "must be integers, got True"]),
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
    ("0.3,0.4,0.5", "expected 2 coordinates, got 3"),
    ("nan,0.4", "coordinate nan is not finite"),
    # float() takes these cells; the cell rule of sample files does not.
    ("0.3,0.1_2", "cell '0.1_2' has an underscore or a non-ASCII character"),
    ("٣,0.4", "cell '٣' has an underscore or a non-ASCII character"),
    ("0.3,0.5\xa0",
     "cell '0.5\\xa0' has an underscore or a non-ASCII character"),
    # Points files are read as data files are: no quotes, no blank lines.
    ('"0.3",0.4', "could not convert string to float: '\"0.3\"'"),
    ("", "expected 2 coordinates, got 0"),
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


@pytest.mark.parametrize("variant, kappa", [
    ("shifted", None),
    ("standard", [0, 1]),
    ("shifted-ish", None),
])
def test_eval_variant_must_match_kappa(tmp_path, capsys, variant, kappa):
    expansion = tmp_path / "expansion.json"
    expansion.write_text(json.dumps({
        "variant": variant, "n": [5, 3], "kappa": kappa,
        "coefficients": [{"gamma": [0, 0], "value": 1.0}],
    }))
    points = tmp_path / "points.csv"
    points.write_text("x_1,x_2\n0.1,0.2\n")
    code = run(["eval", "--expansion", str(expansion), "--points", str(points)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: {expansion}: variant {variant!r} "
                            f"disagrees with kappa {kappa}\n")


@pytest.mark.parametrize("kappa", [None, [0, 1]])
def test_eval_file_without_variant(tmp_path, capsys, kappa):
    expansion = tmp_path / "expansion.json"
    expansion.write_text(json.dumps({
        "n": [5, 3], "kappa": kappa,
        "coefficients": [{"gamma": [0, 0], "value": 1.5}],
    }))
    points = tmp_path / "points.csv"
    points.write_text("x_1,x_2\n0.1,0.2\n")
    assert run(["eval", "--expansion", str(expansion),
                "--points", str(points)]) == 0
    assert capsys.readouterr().out == (
        "x_1,x_2,value\n0.10000000000000001,0.20000000000000001,1.5\n"
    )


def _run_process(argv):
    """lisscheb as a process; a warning would show on its stderr."""
    return subprocess.run(
        [sys.executable, "-m", "lisscheb.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120, check=False,
    )


def test_cli_as_a_process(tmp_path, capsys):
    data, _ = _write_node_data(tmp_path, NodeSpec(n=N53),
                               lambda x: x[0] - 2.0 * x[1] ** 2)
    expansion = tmp_path / "expansion.json"
    assert run(["interp", "--n", "5,3", "--data", str(data),
                "--out", str(expansion)]) == 0
    points = _points_file(tmp_path, [[0.25, -0.5], [1.0, -1.0]])
    shifted = ["--variant", "shifted", "--n", "5,3", "--kappa", "0,1"]
    for argv in (
        ["quad", "--n", "5,3", "--data", str(data)],
        ["interp", "--n", "5,3", "--data", str(data)],
        ["nodes", *shifted], ["nodes", *shifted, "--format", "json"],
        ["gamma", *shifted], ["gamma", *shifted, "--format", "json"],
        ["curve", "--n", "5,3", "--samples", "11"],
        ["eval", "--expansion", str(expansion), "--points", str(points)],
    ):
        proc = _run_process(argv)
        assert run(argv) == 0
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == capsys.readouterr().out

    # The blank-only body makes np.loadtxt warn that it found no data.
    bad = tmp_path / "bad.csv"
    for body, line, cells in (("0,0,1.0\n1,1\n", 3, 2), ("\n", 2, 0)):
        bad.write_text("i_1,i_2,value\n" + body)
        proc = _run_process(["quad", "--n", "5,3", "--data", str(bad)])
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error: {bad}, line {line}: expected 2 index "
                               f"columns plus a value, got {cells}\n")


def test_quad_command(tmp_path, capsys):
    spec = NodeSpec(n=validate_pairwise_coprime((5, 3)))
    data, _ = _write_node_data(tmp_path, spec, lambda x: 1.0)
    assert run(["quad", "--n", "5,3", "--data", str(data)]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.0, abs=1e-14)


def test_node_set_depends_on_kappa_mod_2_only(tmp_path, capsys):
    # A kappa entry beyond int64 gives the node set of its parity.
    huge = NodeSpec(n=(5, 4), kappa=(10**30, 1))
    small = NodeSpec(n=(5, 4), kappa=(0, 1))
    got, want = build_node_set(huge), build_node_set(small)
    for name in ("indices", "points", "weights", "parities"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    data, _ = _write_node_data(tmp_path, small, lambda x: x[0] ** 2 + x[1])
    values = []
    for kappa in ("0,1", "100000000000000000000000,1", "2,-1"):
        assert run(["quad", "--variant", "shifted", "--n", "5,4",
                    "--kappa", kappa, "--data", str(data)]) == 0
        values.append(capsys.readouterr().out)
    assert values[1:] == values[:1] * 2


def test_verify_exit_codes(capsys, monkeypatch):
    assert run(["verify", "--n", "5,3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out

    assert run([
        "verify", "--variant", "shifted", "--n", "3,1,2",
        "--kappa", "0,0,0", "--suite", "curve",
    ]) == 0
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        run(["verify", "--n", "5,3", "--tamper-weight"])
    assert exc.value.code == 2
    capsys.readouterr()

    build = verify.build_node_set

    def tampered(spec):
        node_set = build(spec)
        node_set.weights[0] *= 1.0 + 1e-6
        return node_set

    monkeypatch.setattr(verify, "build_node_set", tampered)
    assert run(["verify", "--n", "5,3"]) == 1
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
