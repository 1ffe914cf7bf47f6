"""The four benchmark workloads: set-up, one timed pass, and output checks.

Each workload cycles through a fixed spec ladder.  Set-up builds the node
and spectral sets and the seeded known-answer inputs; a pass runs the
workload's operations once over the ladder, timing only the library calls
and checking every result afterwards.  The package is driven from outside,
through the names ``lisscheb`` exports, ``lisscheb.verify.run_suites`` and
``lisscheb.cli.main``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import List

import numpy as np

import lisscheb as L
from lisscheb import cli, verify

from known import (
    TOL,
    KnownPoly,
    coefficient_error,
    kernel_reference,
    sparse_poly,
)

# Known-answer inputs made per spec; passes alternate between them so no
# call repeats the input of the call before it.
INPUTS = 2


@dataclass
class PassRecord:
    """Per-call timings and check outcomes of one pass.

    ``calls`` holds ``(kind, case, seconds, count)`` for every timed library
    call: what it did, the position of its spec in the ladder, its wall time
    and how many operations it covered (points, for a CLI ``eval``).
    """

    calls: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def timed(self, kind, case, fn, *args, count=1):
        t0 = time.perf_counter()
        result = fn(*args)
        self.calls.append((kind, case, time.perf_counter() - t0, count))
        return result

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


@dataclass
class Case:
    """One spec of a ladder with its seeded known-answer inputs."""

    spec: object
    node_set: object
    gamma_rows: np.ndarray
    gamma_keys: list
    polys: List[KnownPoly]
    samples: list
    points: list  # evaluation points, as lists of floats
    point_values: List[np.ndarray]


def make_spec(n, kappa=None):
    return L.NodeSpec(n=L.validate_pairwise_coprime(n), kappa=kappa)


def make_case(rng, n, kappa, n_points):
    spec = make_spec(n, kappa)
    node_set = L.build_node_set(spec)
    gamma = L.build_gamma(spec)
    gamma_rows = np.array(gamma.elements)
    gamma_keys = [tuple(row) for row in gamma_rows.tolist()]
    node_keys = [tuple(row) for row in np.asarray(node_set.indices).tolist()]
    polys = [
        sparse_poly(rng, spec, gamma_rows, np.asarray(node_set.indices))
        for _ in range(INPUTS)
    ]
    samples = [
        L.SampleVector(spec=spec, values=dict(zip(node_keys, p.values.tolist())))
        for p in polys
    ]
    points = rng.uniform(-1.0, 1.0, size=(n_points, spec.dim))
    return Case(
        spec=spec,
        node_set=node_set,
        gamma_rows=gamma_rows,
        gamma_keys=gamma_keys,
        polys=polys,
        samples=samples,
        points=points.tolist(),
        point_values=[p.eval(points) for p in polys],
    )


def guarded(rec: PassRecord, op, *args) -> None:
    """Run one operation; an exception counts as a failed check."""
    try:
        op(rec, *args)
    except Exception:  # the program under test may raise anything
        traceback.print_exc(file=sys.stderr)
        rec.check(False)


def known_answer_ops(rec: PassRecord, c: int, case: Case, k: int,
                     n_points: int):
    """interpolate, integrate and expansion_eval on input k, all checked."""
    h, poly = case.samples[k], case.polys[k]
    p = rec.timed("interp", c, L.interpolate, h)
    rec.check(coefficient_error(p, case.gamma_keys, poly.terms) <= TOL)

    q = rec.timed("quad", c, L.integrate, h)
    rec.check(abs(q - poly.c0) <= TOL)

    for x, want in zip(case.points[:n_points], case.point_values[k]):
        got = rec.timed("eval", c, L.expansion_eval, p, x)
        rec.check(abs(got - want) <= TOL)


class InterpWorkload:
    """interpolate + integrate + expansion_eval per spec of a ladder."""

    def __init__(self, ladder, eval_points):
        self.ladder = ladder
        self.eval_points = eval_points

    def setup(self, rng, workdir):
        return [make_case(rng, n, kappa, self.eval_points)
                for n, kappa in self.ladder]

    def run_pass(self, cases, i, rec):
        for c, case in enumerate(cases):
            guarded(rec, known_answer_ops, c, case, i % INPUTS,
                    self.eval_points)

    def grid_shapes(self):
        return [make_spec(n, kappa).m for n, kappa in self.ladder]


class VerifyWorkload(InterpWorkload):
    """The audit paths: invariant suites, fundamentals and the kernel."""

    FUNDAMENTALS = 2  # nodes per spec and input
    OTHER_NODES = 3  # nodes besides i where the fundamental must vanish
    KERNEL_PAIRS = 3

    def setup(self, rng, workdir):
        cases = super().setup(rng, workdir)
        for case in cases:
            n_nodes = len(case.node_set)
            case.fundamental_nodes = [
                rng.choice(n_nodes, size=self.FUNDAMENTALS + self.OTHER_NODES,
                           replace=False).tolist()
                for _ in range(INPUTS)
            ]
            case.kernel_pairs = [
                rng.uniform(-1.0, 1.0, size=(self.KERNEL_PAIRS, 2, case.spec.dim))
                .tolist()
                for _ in range(INPUTS)
            ]
        return cases

    def run_pass(self, cases, i, rec):
        k = i % INPUTS
        for c, case in enumerate(cases):
            guarded(rec, self._suites, c, case)
            guarded(rec, self._fundamentals, c, case, k)
            guarded(rec, self._kernel, c, case, k)
            guarded(rec, known_answer_ops, c, case, k, self.eval_points)

    @staticmethod
    def _suites(rec, c, case):
        results = rec.timed("suites", c, verify.run_suites, case.spec,
                            verify.SUITE_NAMES)
        rec.check(len(results) > 0)
        for result in results:
            rec.check(result.passed)

    def _fundamentals(self, rec, c, case, k):
        positions = case.fundamental_nodes[k]
        indices = np.asarray(case.node_set.indices)
        points = np.asarray(case.node_set.points)
        for pos in positions[: self.FUNDAMENTALS]:
            node = tuple(int(v) for v in indices[pos])
            f = rec.timed("fundamental", c, L.fundamental, case.spec, node)
            for q in [pos] + positions[self.FUNDAMENTALS:]:
                got = rec.timed("eval", c, L.expansion_eval, f,
                                points[q].tolist())
                rec.check(abs(got - (1.0 if q == pos else 0.0)) <= TOL)

    @staticmethod
    def _kernel(rec, c, case, k):
        for x, y in case.kernel_pairs[k]:
            got = rec.timed("kernel", c, L.kernel_eval, case.spec, x, y)
            want = kernel_reference(case.gamma_rows, x, y)
            rec.check(abs(got - want) <= TOL * max(1.0, abs(want)))


def _fmt(v: float) -> str:
    return "%.17g" % v


class CliWorkload:
    """``lisscheb interp``, ``eval`` and ``quad`` on files written at set-up."""

    # The points go into several files, one ``eval`` command each: shorter,
    # more numerous samples give a steadier per-point time on a noisy host.
    POINT_FILES = 4

    def __init__(self, n, eval_points):
        self.n = n
        self.eval_points = eval_points

    def setup(self, rng, workdir):
        case = make_case(rng, self.n, None, self.eval_points)
        d = case.spec.dim
        indices = np.asarray(case.node_set.indices)
        files = {"workdir": workdir, "case": case, "data": []}
        for k, poly in enumerate(case.polys):
            path = os.path.join(workdir, f"samples{k}.csv")
            with open(path, "w", newline="") as out:
                out.write(",".join([f"i_{j + 1}" for j in range(d)] + ["value"]))
                out.write("\n")
                for row, v in zip(indices.tolist(), poly.values.tolist()):
                    out.write(",".join([str(c) for c in row] + [_fmt(v)]) + "\n")
            files["data"].append(path)
        files["points"] = []
        per_file = len(case.points) // self.POINT_FILES
        for f in range(self.POINT_FILES):
            path = os.path.join(workdir, f"points{f}.csv")
            with open(path, "w", newline="") as out:
                out.write(",".join(f"x_{j + 1}" for j in range(d)) + "\n")
                for x in case.points[f * per_file:(f + 1) * per_file]:
                    out.write(",".join(_fmt(c) for c in x) + "\n")
            files["points"].append((path, f * per_file, (f + 1) * per_file))
        return files

    def run_pass(self, files, i, rec):
        guarded(rec, self._roundtrip, files, i % INPUTS)

    def _roundtrip(self, rec, files, k):
        case = files["case"]
        poly = case.polys[k]
        n_arg = ",".join(str(v) for v in self.n)
        expansion = os.path.join(files["workdir"], "expansion.json")
        values = os.path.join(files["workdir"], "values.csv")
        integral = os.path.join(files["workdir"], "integral.txt")
        for path in (expansion, values, integral):
            if os.path.exists(path):
                os.remove(path)

        code = rec.timed("interp", 0, cli.main,
                         ["interp", "--n", n_arg, "--data", files["data"][k],
                          "--out", expansion])
        rec.check(code == 0 and self._expansion_ok(expansion, case, poly))

        for points, start, stop in files["points"]:
            if os.path.exists(values):
                os.remove(values)
            code = rec.timed("eval", 0, cli.main,
                             ["eval", "--expansion", expansion, "--points",
                              points, "--out", values],
                             count=stop - start)
            rec.check(code == 0 and self._values_ok(
                values, case.point_values[k][start:stop]))

        code = rec.timed("quad", 0, cli.main,
                         ["quad", "--n", n_arg, "--data", files["data"][k],
                          "--out", integral])
        with open(integral) as handle:
            rec.check(code == 0 and abs(float(handle.read()) - poly.c0) <= TOL)

    @staticmethod
    def _expansion_ok(path, case, poly):
        with open(path) as handle:
            payload = json.load(handle)
        coeffs = {tuple(e["gamma"]): e["value"] for e in payload["coefficients"]}
        if set(coeffs) != set(case.gamma_keys):
            return False
        return all(abs(c - poly.terms.get(g, 0.0)) <= TOL
                   for g, c in coeffs.items())

    @staticmethod
    def _values_ok(path, want):
        with open(path) as handle:
            rows = handle.read().splitlines()[1:]
        got = [float(row.rsplit(",", 1)[1]) for row in rows]
        return len(got) == len(want) and all(
            abs(g - w) <= TOL for g, w in zip(got, want)
        )

    def grid_shapes(self):
        return [make_spec(self.n).m]


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    "interp_2d_large": InterpWorkload(
        [((513, 512), None), ((257, 256), (0, 1))], eval_points=8),
    "interp_nd_small": InterpWorkload(
        [((13, 11, 7, 5), None), ((11, 9, 7, 5, 2), None),
         ((7, 5, 3, 2), (0, 1, 0, 1)), ((9, 7, 4), (1, 0, 0)),
         ((31, 29, 16), None)], eval_points=100),
    # Shifted (9,7) rather than (13,11): one (13,11) audit takes about 5 s,
    # which leaves too few samples per 30 s run for a steady figure.
    "verify_audit": VerifyWorkload(
        [((7, 5, 3, 2), None), ((17, 16), None), ((9, 7), (0, 1))],
        eval_points=16),
    "cli_roundtrip": CliWorkload((129, 128), eval_points=64),
}


def largest_grid_bytes(workload) -> int:
    """Computed size of the largest embedded float64 box grid."""
    return max(8 * math.prod(mj + 1 for mj in m)
               for m in workload.grid_shapes())
