"""Command-line front end: CSV/JSON emission and self-verification.

Every command takes the node family through the same flags (--variant,
--n, --kappa) and writes deterministic, diff-friendly output: CSV with a
header row, 17 significant digits and LF endings, or JSON with stable key
order.  Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import interp, quad, transform, verify
from .congruence import validate_pairwise_coprime
from .curves import LCCurve, sample_curve
from .errors import DomainViolation, LisschebError
from .nodes import NodeSet, NodeSpec, build_node_set
from .spectral import build_gamma

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _fmt(v: float) -> str:
    return "%.17g" % v


def _parse_int_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise LisschebError(f"expected comma-separated integers, got {text!r}") from exc


def _spec_from_args(args: argparse.Namespace) -> NodeSpec:
    n = validate_pairwise_coprime(_parse_int_list(args.n))
    if args.variant == "shifted":
        if args.kappa is None:
            raise LisschebError("shifted variant requires --kappa")
        return NodeSpec(n=n, kappa=_parse_int_list(args.kappa))
    if args.kappa is not None:
        raise LisschebError("--kappa is only valid with --variant shifted")
    return NodeSpec(n=n)


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", choices=("standard", "shifted"),
                        default="standard")
    parser.add_argument("--n", required=True,
                        help="comma-separated frequency vector, e.g. 5,3")
    parser.add_argument("--kappa", default=None,
                        help="comma-separated shift vector (shifted only)")


@contextlib.contextmanager
def _output(path: Optional[str]):
    """The file at path, opened for writing, or stdout (never closed)."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as out:
            yield out


def _write_csv(path: Optional[str], header: List[str], rows) -> None:
    with _output(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Optional[str], payload) -> None:
    with _output(path) as out:
        json.dump(payload, out, indent=2, sort_keys=False)
        out.write("\n")


def _spec_header(spec: NodeSpec) -> Dict[str, object]:
    """The variant, n and kappa entries that open every JSON document."""
    return {
        "variant": "shifted" if spec.is_shifted else "standard",
        "n": list(spec.n.entries),
        "kappa": list(spec.kappa) if spec.is_shifted else None,
    }


def _node_rows(ns: NodeSet):
    """Index, point, weight, parity and face bitmask (bit j: 0 < i_j < m_j)."""
    interior = (ns.indices > 0) & (ns.indices < np.array(ns.spec.m))
    faces = interior @ (1 << np.arange(ns.spec.dim))
    return zip(ns.indices.tolist(), ns.points.tolist(), ns.weights.tolist(),
               ns.parities.tolist(), faces.tolist())


def cmd_nodes(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    node_set = build_node_set(spec)
    d = spec.dim
    if args.format == "json":
        payload = {
            **_spec_header(spec),
            "nodes": [
                {
                    "index": index,
                    "point": [float(_fmt(c)) for c in point],
                    "weight": float(_fmt(weight)),
                    "parity": parity,
                    "face_bitmask": face,
                }
                for index, point, weight, parity, face in _node_rows(node_set)
            ],
        }
        _write_json(args.out, payload)
    else:
        header = (
            [f"i_{j + 1}" for j in range(d)]
            + [f"x_{j + 1}" for j in range(d)]
            + ["weight", "parity", "face_bitmask"]
        )
        rows = (
            [str(v) for v in index]
            + [_fmt(c) for c in point]
            + [_fmt(weight), str(parity), str(face)]
            for index, point, weight, parity, face in _node_rows(node_set)
        )
        _write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    n = validate_pairwise_coprime(_parse_int_list(args.n))
    kappa = _parse_int_list(args.kappa) if args.kappa else (0,) * n.dim
    u = _parse_int_list(args.u) if args.u else (1,) * n.dim
    curve = LCCurve(n=n, epsilon=args.epsilon, kappa=kappa, u=u)
    points = sample_curve(curve, args.samples, (args.t0, args.t1))
    step = (args.t1 - args.t0) / (args.samples - 1)
    header = ["t"] + [f"x_{j + 1}" for j in range(n.dim)]
    rows = (
        [_fmt(args.t0 + k * step)] + [_fmt(c) for c in pt]
        for k, pt in enumerate(points)
    )
    _write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_gamma(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    gs = build_gamma(spec)
    d = spec.dim
    if args.format == "json":
        payload = {
            **_spec_header(spec),
            "elements": [
                {
                    "gamma": list(gamma),
                    "norm_sq": float(gs.norm_sq[pos]),
                    "special": pos == gs.special_pos,
                }
                for pos, gamma in enumerate(gs)
            ],
        }
        _write_json(args.out, payload)
    else:
        header = [f"gamma_{j + 1}" for j in range(d)] + ["norm_sq", "special"]
        rows = (
            [str(v) for v in gamma]
            + [_fmt(gs.norm_sq[pos]), str(int(pos == gs.special_pos))]
            for pos, gamma in enumerate(gs)
        )
        _write_csv(args.out, header, rows)
    return EXIT_OK


def _read_samples(spec: NodeSpec, path: str) -> transform.SampleVector:
    d = spec.dim
    values: Dict[Tuple[int, ...], float] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise LisschebError(f"empty data file {path}")
        for row in reader:
            if len(row) != d + 1:
                raise LisschebError(
                    f"expected {d} index columns plus a value, got {len(row)}"
                )
            try:
                idx = tuple(map(int, row[:d]))
                value = float(row[d])
            except ValueError as exc:
                raise LisschebError(
                    f"{path}, line {reader.line_num}: {exc}"
                ) from None
            if idx in values:
                raise LisschebError(
                    f"{path}, line {reader.line_num}: repeated index {idx}"
                )
            values[idx] = value
    return transform.SampleVector(spec=spec, values=values)


def _write_expansion(path: Optional[str], spec: NodeSpec, expansion) -> None:
    """Write the expansion JSON in the layout of json.dump(indent=2).

    An indent forces json's pure-Python encoder, so the coefficient values
    are rendered by one call of the C encoder instead, and the entries are
    streamed one by one rather than joined into one string.  Python floats
    survive "%.17g", so the values are those of _fmt.
    """
    head = json.dumps(_spec_header(spec), indent=2)
    values = json.dumps(expansion.coeffs.tolist())[1:-1].split(", ")
    entry = (
        '\n    {\n      "gamma": [\n'
        + ",\n".join(["        %d"] * spec.dim)
        + '\n      ],\n      "value": %s\n    }'
    )
    with _output(path) as out:
        out.write(head[:-2] + ',\n  "coefficients": [')
        sep = ""
        for gamma, value in zip(expansion.gamma_set, values):
            out.write(sep + entry % (*gamma, value))
            sep = ","
        out.write("\n  ]\n}\n")


def cmd_interp(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    h = _read_samples(spec, args.data)
    _write_expansion(args.out, spec, interp.interpolate(h))
    return EXIT_OK


def _load_expansion(path: str):
    """The spec and expansion of an expansion file.

    The ChebExpansion constructor checks the entries; its errors come back
    naming the file and the entry.
    """
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise LisschebError(f"{path}: invalid JSON: {exc}") from None
    try:
        n = validate_pairwise_coprime(payload["n"])
        kappa = payload.get("kappa")
        spec = NodeSpec(n=n, kappa=tuple(kappa) if kappa is not None else None)
        entries = payload["coefficients"]
        gammas = [tuple(entry["gamma"]) for entry in entries]
        coeffs = dict(zip(gammas, [entry["value"] for entry in entries]))
    except KeyError as exc:
        raise LisschebError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise LisschebError(f"{path}: malformed expansion: {exc}") from None
    if len(coeffs) < len(gammas):
        seen = set()
        for row, gamma in enumerate(gammas, 1):
            if gamma in seen:
                raise LisschebError(
                    f"{path}, coefficient entry {row}: repeated gamma {gamma}"
                )
            seen.add(gamma)
    gs = build_gamma(spec)
    try:
        return spec, transform.ChebExpansion(gamma_set=gs, coeffs=coeffs)
    except LisschebError as exc:
        raise LisschebError(
            f"{path}, coefficient entry {exc.row + 1}: {exc}"
        ) from None


def _read_points(path: str) -> Tuple[List[List[float]], List[int]]:
    """The coordinate rows of a points file and the line of each row."""
    rows, lines = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)
        for row in reader:
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise LisschebError(
                    f"{path}, line {reader.line_num}: {exc}"
                ) from None
            lines.append(reader.line_num)
    return rows, lines


def cmd_eval(args: argparse.Namespace) -> int:
    spec, expansion = _load_expansion(args.expansion)
    rows, lines = _read_points(args.points)
    try:
        values = interp.expansion_eval(expansion, rows).tolist() if rows else []
    except DomainViolation as exc:
        raise LisschebError(
            f"{args.points}, line {lines[exc.row]}: {exc}"
        ) from None
    header = [f"x_{j + 1}" for j in range(spec.dim)] + ["value"]
    _write_csv(args.out, header, (
        [_fmt(c) for c in x] + [_fmt(v)] for x, v in zip(rows, values)
    ))
    return EXIT_OK


def cmd_quad(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    h = _read_samples(spec, args.data)
    value = quad.integrate(h)
    with _output(args.out) as out:
        out.write(_fmt(value) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    suites = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = verify.run_suites(spec, suites)
    all_ok = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.suite}: {result.name} ({result.detail})")
        all_ok &= result.passed
    return EXIT_OK if all_ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lisscheb",
        description="Interpolation and quadrature on Lissajous-Chebyshev nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nodes", help="emit the node set")
    _add_spec_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_nodes)

    p = sub.add_parser("curve", help="sample a generating curve")
    p.add_argument("--n", required=True)
    p.add_argument("--epsilon", type=int, choices=(1, 2), default=1)
    p.add_argument("--kappa", default=None)
    p.add_argument("--u", default=None)
    p.add_argument("--samples", type=int, default=1001)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=2.0 * math.pi)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("gamma", help="emit the spectral index set")
    _add_spec_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("interp", help="interpolate node data")
    _add_spec_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser("eval", help="evaluate an expansion at points")
    p.add_argument("--expansion", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("quad", help="apply the quadrature rule to node data")
    _add_spec_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_quad)

    p = sub.add_parser("verify", help="run the invariant suites")
    _add_spec_flags(p)
    p.add_argument("--suite", choices=("all",) + verify.SUITE_NAMES,
                   default="all")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LisschebError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
