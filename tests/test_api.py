"""One sweep over the public API: bad arguments raise a LisschebError."""

import math

import numpy as np

import lisscheb
from lisscheb import (
    ChebExpansion,
    GammaSet,
    GeneralCurve,
    LCCurve,
    NodeSpec,
    SampleVector,
    build_gamma,
    build_node_set,
    interpolate,
    validate_pairwise_coprime,
)

SPEC = NodeSpec(n=(5, 3))
SHIFTED = NodeSpec(n=(5, 3), kappa=(0, 1))
NODES = build_node_set(SPEC)
GAMMA = build_gamma(SPEC)
H = SampleVector(SPEC, dict.fromkeys(NODES.lookup, 1.0))
P = interpolate(H)
CURVE = LCCurve((5, 3), 2, (0, 1), (1, 1))

# One valid call of each callable that lisscheb exports, plus the public
# methods that take arrays: (callable, positional arguments).
CALLS = {
    "ChebExpansion": (ChebExpansion, (GAMMA, P.coeffs)),
    "DimensionVector": (lisscheb.DimensionVector, ((5, 3), 15, (3, 5))),
    "GammaSet": (GammaSet, (SPEC, GAMMA.elements, GAMMA.norm_sq,
                            GAMMA.e_counts, GAMMA.special_pos)),
    "GammaSet.positions": (GAMMA.positions, (np.array([[0, 0], [1, 0]]),)),
    "GeneralCurve": (GeneralCurve, ((3, 2), (0.0, 0.5), (1, -1))),
    "LCCurve": (LCCurve, ((5, 3), 2, (0, 1), (1, 1))),
    "LisschebError": (lisscheb.LisschebError, ("message", 0)),
    "Node": (lisscheb.Node, ((0, 0), (1.0, 1.0), 0.5, 0, frozenset())),
    "NodeSet": (lisscheb.NodeSet, (SPEC, NODES.indices, NODES.points,
                                   NODES.weights, NODES.parities)),
    "NodeSpec": (NodeSpec, ((5, 3), (0, 1))),
    "NormalForm": (lisscheb.NormalForm, ((0, 1), (1, 1), 0, ("cos", "sin"),
                                         0, (1, 1))),
    "SampleVector": (SampleVector, (SPEC, H.values)),
    "alias_integral": (lisscheb.alias_integral, (SPEC, (10, 0))),
    "build_gamma": (build_gamma, (SPEC,)),
    "build_node_set": (build_node_set, (SPEC,)),
    "cgl_point": (lisscheb.cgl_point, (4, 1)),
    "cheb_T_eval": (lisscheb.cheb_T_eval, ((2, 1), (0.5, -0.25))),
    "class_map_shifted": (lisscheb.class_map_shifted, (SHIFTED, 7, (1,))),
    "class_map_standard": (lisscheb.class_map_standard, ((5, 3), 7)),
    "coefficients_naive": (lisscheb.coefficients_naive, (H, NODES)),
    "crt_solve": (lisscheb.crt_solve, ([(1, 3), (2, 5)],)),
    "exactness_table": (lisscheb.exactness_table, (NODES, (2, 2), 1e-12)),
    "expansion_eval": (lisscheb.expansion_eval, (P, (0.5, -0.25))),
    "expansion_inner_product": (lisscheb.expansion_inner_product, (P, P)),
    "fundamental": (lisscheb.fundamental, (SPEC, (1, 1))),
    "general_eval": (lisscheb.general_eval,
                     (GeneralCurve((3, 2), (0.0, 0.5), (1, -1)), 0.5)),
    "integrate": (lisscheb.integrate, (H,)),
    "interpolate": (interpolate, (H,)),
    "involution": (lisscheb.involution, ((10, 6), (3, 4))),
    "is_degenerate": (lisscheb.is_degenerate, (CURVE,)),
    "kernel_eval": (lisscheb.kernel_eval, (SPEC, (0.5, 0.1), (-0.2, 0.3))),
    "lc_eval": (lisscheb.lc_eval, (CURVE, 0.5)),
    "lc_eval_at_index": (lisscheb.lc_eval_at_index, (CURVE, 7)),
    "multiplicity_profile": (lisscheb.multiplicity_profile, ((5, 3), 7)),
    "norm_sq": (lisscheb.norm_sq, (SPEC, (1, 1))),
    "normalize": (lisscheb.normalize, (CURVE,)),
    "sample_curve": (lisscheb.sample_curve, (CURVE, 5, (0.0, 1.0))),
    "self_intersection_counts": (lisscheb.self_intersection_counts,
                                 ((5, 3),)),
    "total_node_count": (lisscheb.total_node_count, ((5, 3),)),
    "validate_pairwise_coprime": (validate_pairwise_coprime, ((5, 3),)),
    "variety_membership": (lisscheb.variety_membership,
                           (SPEC, (1.0, 1.0), 1e-9)),
}

# Values that stand in for each argument in turn.
BAD = [
    None, "a", "", "5,3", b"53", math.nan, math.inf, -math.inf, 10**400,
    -(10**400), True, False, 1j, 0, -1, 0.5, 1e300, (), (5,), (1, 2, 3),
    (1.0, 2), (True, 1), [(1, 3, 4)], [None, 1], (0.0, math.nan),
    [[1, 2], [3]], [[0.5, 0.0]], np.array([[0.5, 0.0]]),
    np.array([[1, 2], [3, 4], [5, 6]]), np.zeros((2, 2, 2)), np.array(5),
    np.array([], dtype=np.int64), np.array(["a", "b"]), np.float32(0.1),
    np.float64(math.nan), np.int64(3), np.bool_(True), {(0, 0): 1.0}, {},
    {1, 2}, object(),
]


def test_every_public_call_returns_or_raises_a_library_error():
    # Every callable lisscheb exports has a valid call in the table, and
    # replacing any one argument by any bad value either returns or raises
    # a LisschebError; a warning fails the call as well (pyproject.toml).
    exported = {name for name in lisscheb.__all__
                if callable(getattr(lisscheb, name))}
    assert exported <= set(CALLS), sorted(exported - set(CALLS))
    crashes = []
    for name, (fn, args) in CALLS.items():
        fn(*args)
        for k in range(len(args)):
            for bad in BAD:
                try:
                    fn(*args[:k], bad, *args[k + 1:])
                except lisscheb.LisschebError:
                    pass
                except Exception as exc:
                    value = " ".join(repr(bad).split())
                    crashes.append(f"{name} argument {k} = {value:.40}: "
                                   f"{type(exc).__name__}: {exc!s:.60}")
    assert not crashes, "\n".join(crashes)
