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
import functools
import json
import math
import sys
import warnings
from typing import List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from . import interp, quad, transform, verify
from .curves import LCCurve, curve_parameters, sample_curve
from .errors import DomainViolation, LisschebError
from .nodes import NodeSpec, _face_mask, build_node_set, int_tuples
from .spectral import build_gamma

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


_fmt = "%.17g".__mod__  # 17 digits read back as the same float64
# Rows that _write_csv turns into Python objects at a time, which bounds
# its memory; 1024 rows of (129, 128)'s Γ take about 0.15 MB.
_CSV_BLOCK_ROWS = 1024


def _parse_int_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise LisschebError(f"expected comma-separated integers, got {text!r}") from exc


def _spec_from_args(args: argparse.Namespace) -> NodeSpec:
    n = _parse_int_list(args.n)
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


def _split(columns):
    """Each (name, array) column as (name, k, its k columns as a (k, N) array).

    k is None for an (N,) array, whose one column is the array itself.
    """
    for name, array in columns:
        array = np.asarray(array)
        k = array.shape[1] if array.ndim == 2 else None
        yield name, k, array[None] if k is None else array.T


def _write_csv(path: Optional[str], columns) -> None:
    """Write (name, array) columns, in node-set or Γ order, as CSV.

    An (N,) array is the column name and an (N, k) array the columns
    name_1..name_k.  Floats are written by _fmt, ints and bools as
    integers; the columns become Python objects one block of rows at a time.
    """
    names, parts = [], []
    for name, k, subs in _split(columns):
        names += [name] if k is None else [f"{name}_{j + 1}" for j in range(k)]
        parts.append((_fmt if subs.dtype.kind == "f" else "%d".__mod__, subs))
    rows = parts[0][1].shape[1]
    with _output(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(names)
        for lo in range(0, rows, _CSV_BLOCK_ROWS):
            block = slice(lo, lo + _CSV_BLOCK_ROWS)
            writer.writerows(zip(*[map(form, sub) for form, subs in parts
                                   for sub in subs[:, block].tolist()]))


def _write_json(path: Optional[str], spec: NodeSpec, key: str,
                columns) -> None:
    """Write the spec's variant, n and kappa, then one object per row under key.

    The layout is that of json.dump(indent=2), an (N, k) array a list of k
    entries in each object; every node set, Γ and expansion has a row.  An
    indent forces json's pure-Python encoder, so each float or bool column
    is rendered by one call of the C encoder instead, ints by %d, and the
    objects are streamed one by one.  The encoder's shortest repr of a
    float reads back as the same float, as _fmt's 17 digits do.
    """
    fields, cells = [], []
    for name, k, subs in _split(columns):
        form = "%s" if subs.dtype.kind in "fb" else "%d"
        fields.append(f'\n      "{name}": ' + (form if k is None else "[\n"
                      + ",\n".join(["        " + form] * k) + "\n      ]"))
        cells += [json.dumps(sub)[1:-1].split(", ") if form == "%s" else sub
                  for sub in subs.tolist()]
    entry = "\n    {" + ",".join(fields) + "\n    }"
    head = json.dumps({
        "variant": "shifted" if spec.is_shifted else "standard",
        "n": list(spec.n.entries),
        "kappa": list(spec.kappa) if spec.is_shifted else None,
    }, indent=2)
    with _output(path) as out:
        out.write(head[:-2] + f',\n  "{key}": [')
        sep = ""
        for row in zip(*cells):
            out.write(sep + entry % row)
            sep = ","
        out.write("\n  ]\n}\n")


def cmd_nodes(args: argparse.Namespace) -> int:
    """Index, point, weight, parity and face bitmask (bit j: 0 < i_j < m_j)."""
    spec = _spec_from_args(args)
    ns = build_node_set(spec)
    faces = _face_mask(ns.indices, spec.m) @ (1 << np.arange(spec.dim))
    as_json = args.format == "json"
    columns = [("index" if as_json else "i", ns.indices),
               ("point" if as_json else "x", ns.points),
               ("weight", ns.weights), ("parity", ns.parities),
               ("face_bitmask", faces)]
    if as_json:
        _write_json(args.out, spec, "nodes", columns)
    else:
        _write_csv(args.out, columns)
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    n = _parse_int_list(args.n)
    kappa = _parse_int_list(args.kappa) if args.kappa else (0,) * len(n)
    u = _parse_int_list(args.u) if args.u else (1,) * len(n)
    curve = LCCurve(n=n, epsilon=args.epsilon, kappa=kappa, u=u)
    t_range = (args.t0, args.t1)
    t = curve_parameters(curve, args.samples, t_range)
    points = sample_curve(curve, args.samples, t_range)
    _write_csv(args.out, [("t", t), ("x", points)])
    return EXIT_OK


def cmd_gamma(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    gs = build_gamma(spec)
    columns = [("gamma", gs.elements), ("norm_sq", gs.norm_sq),
               ("special", np.arange(len(gs)) == gs.special_pos)]
    if args.format == "json":
        _write_json(args.out, spec, "elements", columns)
    else:
        _write_csv(args.out, columns)
    return EXIT_OK


def _read_table(path: str, ints: int, width: int):
    """The rows of a CSV file under a header row, and the body lines.

    The header names the columns, i_1,...,value or x_1,...  Each row holds
    ``width`` cells: ``ints`` integer indices (field "i" of the structured
    array) and then floats (field "v").  One np.loadtxt call parses the
    body.  A body with an underscore or a non-ASCII character, which that
    parser may strip or misread, a body it rejects and one with blank
    lines, which it skips, go to _raise_bad_line to name the bad line.
    """
    names = ([f"i_{j + 1}" for j in range(ints)] + ["value"] if ints
             else [f"x_{j + 1}" for j in range(width)])
    with open(path) as handle:
        header = handle.readline()
        if not header:
            raise LisschebError(f"empty data file {path}")
        if [cell.strip() for cell in header.split(",")] != names:
            raise LisschebError(f"{path}, line 1: expected the header "
                                f"{','.join(names)}, got {header.strip()!r}")
        text = handle.read()
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    dtype = [("i", np.int64, (ints,)), ("v", np.float64, (width - ints,))]
    if not lines:
        return np.zeros(0, dtype), lines
    try:
        if not text.isascii() or "_" in text:
            raise ValueError("an underscore or a non-ASCII character")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                               dtype=dtype)
    except (ValueError, Warning) as exc:
        why = str(exc)
    else:
        if len(table) == len(lines):
            return table, lines
        why = "blank lines"
    _raise_bad_line(path, lines, ints, width, why)


def _read_samples(spec: NodeSpec, path: str) -> transform.SampleVector:
    """The samples of a data file: d index cells and a value per row."""
    d = spec.dim
    table, lines = _read_table(path, d, d + 1)
    values = dict(zip(int_tuples(table["i"]), table["v"][:, 0].tolist()))
    if len(values) < len(lines):
        _raise_bad_line(path, lines, d, d + 1, "repeated rows")
    return transform.SampleVector(spec=spec, values=values)


def _raise_bad_line(path: str, lines: List[str], ints: int, width: int,
                    why: str) -> NoReturn:
    """Raise the error of the first bad line of a table (line 1 is the header).

    As for np.loadtxt, a line must have ``width`` cells, the first ``ints``
    must pass int() and fit int64 and the others float(); in data files no
    index repeats.  int() and float() read "1_5" as 15, take non-ASCII
    digits such as "٣" and strip non-ASCII blanks such as a no-break space,
    so a cell as written must also be ASCII without an underscore.
    """
    what = (f"{ints} index columns plus a value" if ints
            else f"{width} coordinates")
    seen = set()
    for num, line in enumerate(lines, 2):
        cells = line.split(",") if line else []
        try:
            if len(cells) != width:
                raise ValueError(f"expected {what}, got {len(cells)}")
            idx = tuple(map(int, cells[:ints]))
            list(map(float, cells[ints:]))
            for cell in cells:
                if "_" in cell or not cell.isascii():
                    raise ValueError(f"cell {cell!r} has an underscore or a "
                                     "non-ASCII character")
            if not all(-2**63 <= i < 2**63 for i in idx):
                raise ValueError(f"index {idx} is outside the int64 range")
            if ints and idx in seen:
                raise ValueError(f"repeated index {idx}")
        except ValueError as exc:
            raise LisschebError(f"{path}, line {num}: {exc}") from None
        seen.add(idx)
    raise LisschebError(f"{path}: {why}")


def cmd_interp(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    p = interp.interpolate(_read_samples(spec, args.data))
    _write_json(args.out, spec, "coefficients",
                [("gamma", p.gamma_set.elements), ("value", p.coeffs)])
    return EXIT_OK


def _load_expansion(path: str):
    """The spec and expansion of an expansion file.

    The entries go through the ChebExpansion constructor's reader of a
    mapping; its errors come back naming the file and the entry.
    """
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise LisschebError(f"{path}: invalid JSON: {exc}") from None
    try:
        n = payload["n"]
        kappa = payload.get("kappa")
        variant = payload.get("variant")
        if variant not in (None, "standard" if kappa is None else "shifted"):
            raise LisschebError(
                f"{path}: variant {variant!r} disagrees with kappa {kappa}"
            )
        spec = NodeSpec(n=n, kappa=kappa)
        entries = payload["coefficients"]
        gammas = [entry["gamma"] for entry in entries]
        values = [entry["value"] for entry in entries]
    except KeyError as exc:
        raise LisschebError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise LisschebError(f"{path}: malformed expansion: {exc}") from None
    gs = build_gamma(spec)
    try:
        coeffs = transform.coefficient_rows(gs, gammas, values)
    except TypeError as exc:  # a list among a gamma's entries
        raise LisschebError(f"{path}: malformed expansion: {exc}") from None
    except LisschebError as exc:
        raise LisschebError(
            f"{path}, coefficient entry {exc.row + 1}: {exc}"
        ) from None
    return spec, transform.ChebExpansion(gamma_set=gs, coeffs=coeffs)


def cmd_eval(args: argparse.Namespace) -> int:
    spec, expansion = _load_expansion(args.expansion)
    points = _read_table(args.points, 0, spec.dim)[0]["v"]
    try:
        values = interp.expansion_eval(expansion, points)
    except DomainViolation as exc:
        # Row k sits on line k + 2: the header is line 1, and no line is blank.
        raise LisschebError(
            f"{args.points}, line {exc.row + 2}: {exc}"
        ) from None
    _write_csv(args.out, [("x", points), ("value", values)])
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
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.suite}: {result.name} ({result.detail})")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    main runs the module's cmd_<command>, looked up at each call rather
    than bound into the cached parser.
    """
    parser = argparse.ArgumentParser(
        prog="lisscheb",
        description="Interpolation and quadrature on Lissajous-Chebyshev nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=text) for name, text in (
        ("nodes", "emit the node set"),
        ("curve", "sample a generating curve"),
        ("gamma", "emit the spectral index set"),
        ("interp", "interpolate node data"),
        ("eval", "evaluate an expansion at points"),
        ("quad", "apply the quadrature rule to node data"),
        ("verify", "run the invariant suites"),
    )}
    for name in ("nodes", "gamma", "interp", "quad", "verify"):
        _add_spec_flags(p[name])
    for name in ("nodes", "gamma"):
        p[name].add_argument("--format", choices=("csv", "json"),
                             default="csv")
    for name in ("interp", "quad"):
        p[name].add_argument("--data", required=True)
    p["curve"].add_argument("--n", required=True)
    p["curve"].add_argument("--epsilon", type=int, choices=(1, 2), default=1)
    p["curve"].add_argument("--kappa", default=None)
    p["curve"].add_argument("--u", default=None)
    p["curve"].add_argument("--samples", type=int, default=1001)
    p["curve"].add_argument("--t0", type=float, default=0.0)
    p["curve"].add_argument("--t1", type=float, default=2.0 * math.pi)
    p["eval"].add_argument("--expansion", required=True)
    p["eval"].add_argument("--points", required=True)
    p["verify"].add_argument("--suite", choices=("all",) + verify.SUITE_NAMES,
                             default="all")
    for name in ("nodes", "curve", "gamma", "interp", "eval", "quad"):
        p[name].add_argument("--out", default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except LisschebError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
