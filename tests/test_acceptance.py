"""Acceptance gate: one check per release criterion, one line printed each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines;
each criterion also fails its pytest test on violation.
"""

import itertools
import json
import math
import time

import numpy as np

from lisscheb.cli import main as cli_main
from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.curves import (
    LCCurve,
    lc_eval,
    lc_eval_at_index,
    multiplicity_profile,
    normalize,
    self_intersection_counts,
)
from lisscheb.interp import cheb_T_eval, fundamental, interpolate
from lisscheb.nodes import NodeSpec, build_node_set
from lisscheb.quad import exactness_table, integrate
from lisscheb.spectral import build_gamma
from lisscheb.transform import (
    SampleVector,
    alias_integral,
    chi_matrix,
    coefficients_fast,
    coefficients_naive,
)

STANDARD = [(5, 3), (7, 4), (5, 3, 2), (7, 5, 3, 2)]
SHIFTED = [((5, 3), (0, 1)), ((5, 3), (0, 0)), ((3, 1, 2), (0, 0, 0))]

ALL_SPECS = [
    NodeSpec(n=validate_pairwise_coprime(nv)) for nv in STANDARD
] + [
    NodeSpec(n=validate_pairwise_coprime(nv), kappa=kv)
    for nv, kv in SHIFTED
]


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def random_samples(spec, node_set, rng):
    return SampleVector(
        spec=spec,
        values={
            node.index: float(v)
            for node, v in zip(
                node_set.nodes, rng.standard_normal(len(node_set))
            )
        },
    )


def eval_matrix(spec, gamma_set, node_set):
    """E[k, p] = T_{gamma_p}(z_k) through the floating-point evaluator."""
    return np.array(
        [
            [cheb_T_eval(gamma, node.point) for gamma in gamma_set]
            for node in node_set.nodes
        ]
    )


def test_criterion_1_cardinalities():
    start = time.perf_counter()
    ok = True
    counts = {}
    for spec in ALL_SPECS:
        node_count = len(build_node_set(spec))
        gamma_count = len(build_gamma(spec))
        key = (spec.n.entries, spec.kappa)
        counts[key] = node_count
        ok &= node_count == gamma_count
    ok &= counts[((5, 3), None)] == 12
    ok &= counts[((5, 3, 2), None)] == 18
    ok &= counts[((5, 3), (0, 1))] == 38
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, "cardinalities and #gamma = #nodes", ok,
           f"runtime {elapsed:.3f} s")


def test_criterion_2_discrete_orthogonality():
    ok = True
    worst_off = 0.0
    worst_diag = 0.0
    big_time = None
    for spec in ALL_SPECS:
        node_set = build_node_set(spec)
        gs = build_gamma(spec)
        start = time.perf_counter()
        x = chi_matrix(spec, gs.elements, node_set.indices)
        gram = (x * node_set.weights) @ x.T
        elapsed = time.perf_counter() - start
        if spec.n.entries == (7, 5, 3, 2):
            big_time = elapsed
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        diag = np.abs(np.diag(gram) - gs.norm_sq).max()
        worst_off = max(worst_off, float(off))
        worst_diag = max(worst_diag, float(diag))
    ok &= worst_off < 1e-10
    ok &= worst_diag < 1e-10
    ok &= big_time is not None and big_time < 5.0
    report(2, "Gram matrices diagonal with stated norms", ok,
           f"max off-diag {worst_off:.2e}, (7,5,3,2) in {big_time:.3f} s")


def test_criterion_3_interpolation_roundtrip():
    rng = np.random.default_rng(101)
    worst = 0.0
    for spec in ALL_SPECS:
        node_set = build_node_set(spec)
        gs = build_gamma(spec)
        E = eval_matrix(spec, gs, node_set)
        for _ in range(50):
            h = random_samples(spec, node_set, rng)
            p = interpolate(h)
            c = np.array([p.coeffs[g] for g in gs])
            vals = np.array(
                [h.values[node.index] for node in node_set.nodes]
            )
            worst = max(worst, float(np.abs(E @ c - vals).max()))
    ok = worst < 1e-10
    report(3, "interpolation round-trip residual", ok,
           f"max residual {worst:.2e}")


def test_criterion_4_fundamental_property():
    worst = 0.0
    for spec in (
        NodeSpec(n=validate_pairwise_coprime((5, 3))),
        NodeSpec(n=validate_pairwise_coprime((5, 3)), kappa=(0, 1)),
    ):
        node_set = build_node_set(spec)
        gs = build_gamma(spec)
        E = eval_matrix(spec, gs, node_set)
        for pos, node in enumerate(node_set.nodes):
            L = fundamental(spec, node.index)
            c = np.array([L.coeffs[g] for g in gs])
            vals = E @ c
            target = np.zeros(len(node_set))
            target[pos] = 1.0
            worst = max(worst, float(np.abs(vals - target).max()))
    ok = worst < 1e-11
    report(4, "fundamental polynomials hit the Kronecker delta", ok,
           f"max deviation {worst:.2e}")


def test_criterion_5_fast_vs_naive_and_speed():
    rng = np.random.default_rng(102)
    worst = 0.0
    for spec in ALL_SPECS:
        node_set = build_node_set(spec)
        gs = build_gamma(spec)
        h = random_samples(spec, node_set, rng)
        fast = coefficients_fast(h, node_set=node_set, gamma_set=gs)
        naive = coefficients_naive(h, node_set=node_set, gamma_set=gs)
        scale = max(abs(v) for v in naive.coeffs.values())
        for gamma, c in naive.coeffs.items():
            worst = max(worst, abs(fast.coeffs[gamma] - c) / scale)
    ok = worst < 1e-12

    big = NodeSpec(n=validate_pairwise_coprime((513, 512)))
    pre = build_node_set(big)
    h = SampleVector(
        spec=big,
        values={
            tuple(int(v) for v in row): float(x)
            for row, x in zip(
                pre.indices, rng.standard_normal(len(pre))
            )
        },
    )
    start = time.perf_counter()
    node_set = build_node_set(big)
    gs = build_gamma(big)
    coefficients_fast(h, node_set=node_set, gamma_set=gs)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 2.0
    report(5, "fast transform matches the oracle and scales", ok,
           f"max rel diff {worst:.2e}, n=(513,512) with "
           f"{len(node_set)} nodes in {elapsed:.3f} s")


def test_criterion_6_quadrature_exactness():
    ok = True
    checked = 0
    for spec in ALL_SPECS:
        box = [2 * mj - 1 for mj in spec.m]
        table = exactness_table(spec, box, tol=1e-12)
        checked += len(table)
        ok &= all(entry.ok for entry in table.values())

    spec1 = NodeSpec(n=validate_pairwise_coprime((4,)))
    ns1 = build_node_set(spec1)
    h = SampleVector(
        spec=spec1,
        values={node.index: node.point[0] ** 2 for node in ns1.nodes},
    )
    ok &= abs(integrate(h) - 0.5) < 1e-14

    shifted = NodeSpec(n=validate_pairwise_coprime((5, 3)), kappa=(0, 1))
    ok &= alias_integral(shifted, (10, 6)) == -1
    report(6, "quadrature matches the signed alias table", ok,
           f"{checked} frequencies checked")


def test_criterion_7_geometry():
    ok = True
    # degenerate standard curve reproduces the node set, with the
    # predicted coincidence multiplicities
    for nv in STANDARD:
        n = validate_pairwise_coprime(nv)
        spec = NodeSpec(n=n)
        node_set = build_node_set(spec)
        points = {
            tuple(round(c, 9) for c in node.point)
            for node in node_set.nodes
        }
        curve = LCCurve(
            n=n, epsilon=1, kappa=(0,) * n.dim, u=(1,) * n.dim
        )
        groups = {}
        for l in range(2 * n.product):
            pt = tuple(
                round(c, 9) for c in lc_eval_at_index(curve, l)
            )
            groups.setdefault(pt, []).append(l)
        ok &= set(groups) == points
        for members in groups.values():
            _, mult = multiplicity_profile(n, members[0])
            ok &= len(members) == mult

    n53 = validate_pairwise_coprime((5, 3))
    n532 = validate_pairwise_coprime((5, 3, 2))
    ok &= self_intersection_counts(n53)[frozenset({0, 1})] == 4
    ok &= sum(
        v
        for m, v in self_intersection_counts(n532).items()
        if len(m) >= 2
    ) == 9

    # shifted node sets are the union of the curve family samples
    for nv, kv in [((5, 3), (0, 1)), ((3, 1, 2), (0, 0, 0))]:
        n = validate_pairwise_coprime(nv)
        spec = NodeSpec(n=n, kappa=kv)
        node_set = build_node_set(spec)
        points = {
            tuple(round(c, 9) for c in node.point)
            for node in node_set.nodes
        }
        g = spec.g_index
        sampled = set()
        free = [j for j in range(n.dim) if j != g]
        for signs in itertools.product((1, -1), repeat=len(free)):
            u = [1] * n.dim
            for j, s in zip(free, signs):
                u[j] = s
            curve = LCCurve(n=n, epsilon=2, kappa=kv, u=tuple(u))
            for l in range(4 * n.product):
                sampled.add(
                    tuple(
                        round(c, 9)
                        for c in lc_eval_at_index(curve, l)
                    )
                )
        ok &= sampled == points
    report(7, "curve geometry reproduces the node combinatorics", ok)


def test_criterion_8_normal_form():
    import random as pyrandom

    rng = pyrandom.Random(103)
    n = validate_pairwise_coprime((5, 3))
    worst = 0.0
    for _ in range(20):
        kappa = (rng.randrange(-12, 12), rng.randrange(-12, 12))
        u = (rng.choice([-1, 1]), rng.choice([-1, 1]))
        curve = LCCurve(n=n, epsilon=2, kappa=kappa, u=u)
        form = normalize(curve)
        target = LCCurve(
            n=n, epsilon=2, kappa=form.kappa_prime, u=form.u_prime
        )
        t_shift = form.r_prime * math.pi / (2 * n.product)
        for k in range(1000):
            t = 2.0 * math.pi * k / 1000
            a = lc_eval(curve, t - t_shift)
            b = lc_eval(target, t)
            worst = max(
                worst, max(abs(p - q) for p, q in zip(a, b))
            )
    ok = worst < 1e-10
    report(8, "normal form shift identity", ok, f"max error {worst:.2e}")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    ok = True
    for spec in ALL_SPECS:
        argv = ["verify", "--suite", "all",
                "--n", ",".join(str(v) for v in spec.n.entries)]
        if spec.is_shifted:
            argv[1:1] = [
                "--variant", "shifted",
                "--kappa", ",".join(str(v) for v in spec.kappa),
            ]
        ok &= cli_main(argv) == 0
    capsys.readouterr()

    pairs = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"nodes-{tag}.csv"
        json_path = tmp_path / f"gamma-{tag}.json"
        ok &= cli_main(
            ["nodes", "--n", "7,5,3,2", "--out", str(csv_path)]
        ) == 0
        ok &= cli_main([
            "gamma", "--variant", "shifted", "--n", "5,3",
            "--kappa", "0,1", "--format", "json",
            "--out", str(json_path),
        ]) == 0
        pairs.append((csv_path.read_bytes(), json_path.read_bytes()))
    ok &= pairs[0] == pairs[1]
    ok &= len(json.loads(pairs[0][1])["elements"]) == 38
    report(9, "verify suites pass and CLI output is byte-stable", ok)
