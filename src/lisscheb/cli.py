"""Command-line front end: CSV/JSON emission and self-verification.

Every command takes the node family through the same flags (--variant,
--n, --kappa) and writes deterministic, diff-friendly output: CSV with a
header row, 17 significant digits and LF endings, or JSON with stable key
order.  Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import interp, quad, transform, verify
from .congruence import validate_pairwise_coprime
from .curves import LCCurve, sample_curve
from .errors import LisschebError
from .nodes import NodeSpec, build_node_set
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


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _write_csv(path: Optional[str], header: List[str], rows) -> None:
    out, close = _open_out(path)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    finally:
        if close:
            out.close()


def _write_json(path: Optional[str], payload) -> None:
    out, close = _open_out(path)
    try:
        json.dump(payload, out, indent=2, sort_keys=False)
        out.write("\n")
    finally:
        if close:
            out.close()


def _face_bitmask(face) -> int:
    mask = 0
    for j in face:
        mask |= 1 << j
    return mask


def cmd_nodes(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    node_set = build_node_set(spec)
    d = spec.dim
    if args.format == "json":
        payload = {
            "variant": "shifted" if spec.is_shifted else "standard",
            "n": list(spec.n.entries),
            "kappa": list(spec.kappa) if spec.is_shifted else None,
            "nodes": [
                {
                    "index": list(node.index),
                    "point": [float(_fmt(c)) for c in node.point],
                    "weight": float(_fmt(node.weight)),
                    "parity": node.parity,
                    "face_bitmask": _face_bitmask(node.face),
                }
                for node in node_set.nodes
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
            [str(v) for v in node.index]
            + [_fmt(c) for c in node.point]
            + [_fmt(node.weight), str(node.parity),
               str(_face_bitmask(node.face))]
            for node in node_set.nodes
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
            "variant": "shifted" if spec.is_shifted else "standard",
            "n": list(spec.n.entries),
            "kappa": list(spec.kappa) if spec.is_shifted else None,
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
    head = json.dumps({
        "variant": "shifted" if spec.is_shifted else "standard",
        "n": list(spec.n.entries),
        "kappa": list(spec.kappa) if spec.is_shifted else None,
    }, indent=2)
    values = json.dumps(list(expansion.coeffs.values()))[1:-1].split(", ")
    entry = (
        '\n    {\n      "gamma": [\n'
        + ",\n".join(["        %d"] * spec.dim)
        + '\n      ],\n      "value": %s\n    }'
    )
    out, close = _open_out(path)
    try:
        out.write(head[:-2] + ',\n  "coefficients": [')
        sep = ""
        for gamma, value in zip(expansion.coeffs, values):
            out.write(sep + entry % (*gamma, value))
            sep = ","
        out.write("\n  ]\n}\n")
    finally:
        if close:
            out.close()


def cmd_interp(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    h = _read_samples(spec, args.data)
    _write_expansion(args.out, spec, interp.interpolate(h))
    return EXIT_OK


def _load_expansion(path: str):
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
        coeffs = {
            tuple(entry["gamma"]): float(entry["value"]) for entry in entries
        }
    except KeyError as exc:
        raise LisschebError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise LisschebError(f"{path}: malformed expansion: {exc}") from None
    gs = build_gamma(spec)
    unknown = coeffs.keys() - gs.lookup.keys()
    if unknown:
        raise LisschebError(
            f"{len(unknown)} coefficients outside the spectral set"
        )
    return spec, transform.ChebExpansion(gamma_set=gs, coeffs=coeffs)


def cmd_eval(args: argparse.Namespace) -> int:
    spec, expansion = _load_expansion(args.expansion)
    rows_out = []
    with open(args.points, newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)
        for row in reader:
            try:
                x = [float(c) for c in row]
            except ValueError as exc:
                raise LisschebError(
                    f"{args.points}, line {reader.line_num}: {exc}"
                ) from None
            value = interp.expansion_eval(expansion, x)
            rows_out.append([_fmt(c) for c in x] + [_fmt(value)])
    header = [f"x_{j + 1}" for j in range(spec.dim)] + ["value"]
    _write_csv(args.out, header, rows_out)
    return EXIT_OK


def cmd_quad(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    h = _read_samples(spec, args.data)
    value = quad.integrate(h)
    out, close = _open_out(args.out)
    try:
        out.write(_fmt(value) + "\n")
    finally:
        if close:
            out.close()
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    suites = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = verify.run_suites(
        spec, suites, tamper_weight=args.tamper_weight
    )
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
    p.add_argument("--tamper-weight", action="store_true",
                   help=argparse.SUPPRESS)
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
