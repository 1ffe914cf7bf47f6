"""Node sets on the Chebyshev-Gauss-Lobatto grid with shared parity.

A node set is specified by a pairwise-coprime frequency vector n and,
optionally, an integer shift vector kappa (0 without it).  The multi-indices
live in the box [0, m], m = n without kappa and 2n with it, with component j
congruent to kappa_j + r mod 2 for a single parity bit r.  Each index i maps
to the grid point z_i = (cos(i_1 pi/m_1), ..., cos(i_d pi/m_d)) and carries
the weight 2^e / (2 prod_j m_j), e its number of strictly interior entries.
"""

from __future__ import annotations

import math
import numbers
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress
from types import MappingProxyType
from typing import FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .congruence import DimensionVector, integer_tuple
from .congruence import validate_pairwise_coprime
from .errors import (
    DomainViolation,
    IndexOutOfRange,
    InvalidParameter,
    OverflowDimension,
    check_real,
    check_type,
)
from .trig import cos_pi_ratio

MultiIndex = Tuple[int, ...]

# Largest grid box, prod_j (m_j + 1) cells, that build_node_set and
# build_gamma allocate: about 60x the largest spec the tests and the
# benchmark use, shifted (257, 256) with 264,195 cells.
MAX_BOX_CELLS = 1 << 24

_DOMAIN_SLACK = 1e-12

# Γ sets and node sets with their lookups as (value, bytes) by (kind, spec),
# least recently used first: a (513, 512) lookup takes 20 MB, so count bytes.
SPEC_CACHE_BYTES = 64 << 20
_cache: "OrderedDict[Tuple[str, NodeSpec], Tuple[object, int]]" = OrderedDict()
_cache_bytes = 0
_cache_lock = threading.Lock()


@dataclass(frozen=True)
class NodeSpec:
    """Handle identifying a node family: the vector n plus an optional shift.

    ``n``, a DimensionVector or a sequence of integers, is validated.
    ``kappa is None`` selects the standard family (grid denominators n_j);
    otherwise the shifted family (denominators 2n_j).
    """

    n: DimensionVector
    kappa: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "n", validate_pairwise_coprime(self.n))
        if self.kappa is None:
            return
        # Kept as a tuple of ints, so that specs hash: they key build_gamma.
        object.__setattr__(self, "kappa",
                           integer_tuple(self.kappa, "kappa", self.n.dim))

    @property
    def is_shifted(self) -> bool:
        return self.kappa is not None

    @property
    def shift(self) -> Tuple[int, ...]:
        """kappa, or the zero vector for the standard family."""
        return self.kappa if self.is_shifted else (0,) * self.dim

    @property
    def dim(self) -> int:
        return self.n.dim

    @property
    def m(self) -> Tuple[int, ...]:
        """Per-dimension grid denominators: n (standard) or 2n (shifted)."""
        if self.is_shifted:
            return tuple(2 * e for e in self.n.entries)
        return self.n.entries

    @property
    def g_index(self) -> int:
        """The distinguished dimension of the shifted class map (0-based).

        All other entries of n must be odd; since the entries are pairwise
        coprime there is at most one even entry, which forces g.  With all
        entries odd any choice works and the first dimension is used.
        """
        evens = (j for j, e in enumerate(self.n.entries) if e % 2 == 0)
        return next(evens, 0)


@dataclass(frozen=True)
class Node:
    """One node: multi-index, point, weight, parity class and face set."""

    index: MultiIndex
    point: Tuple[float, ...]
    weight: float
    parity: int
    face: FrozenSet[int]


@dataclass(frozen=True, eq=False)
class NodeSet:
    """The full enumerated node family, ordered lexicographically by index.

    ``indices``, ``points``, ``weights`` and ``parities`` are parallel
    arrays.  The Node list and the index-to-position lookup are made on
    first access and kept on the instance; the fields are frozen, so they
    stay in step with ``indices``.
    """

    spec: NodeSpec
    indices: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    parities: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[0]

    @property
    def nodes(self) -> List[Node]:
        if "_nodes" not in vars(self):
            faces = _face_mask(self.indices, self.spec.m).tolist()
            columns = (
                int_tuples(self.indices),
                zip(*self.points.T.tolist()),
                self.weights.tolist(),
                self.parities.tolist(),
                (frozenset(compress(range(len(f)), f)) for f in faces),
            )
            object.__setattr__(self, "_nodes", list(map(Node, *columns)))
        return self._nodes

    @property
    def lookup(self) -> Mapping[MultiIndex, int]:
        """Read-only map of index tuples to positions.  build_node_set's
        node sets share cached_node_set's; any other set builds its own."""
        if "_lookup" not in vars(self):
            if vars(self).get("_built"):
                lookup = cached_node_set(self.spec).lookup
            else:
                lookup = _new_lookup(self.indices)[0]
            object.__setattr__(self, "_lookup", lookup)
        return self._lookup

    def __getstate__(self):  # a mapping proxy does not pickle; rebuilt on use
        return {k: v for k, v in vars(self).items() if k != "_lookup"}


def _new_lookup(indices: np.ndarray):
    """Rows of indices mapped to positions, read-only, and the bytes of the
    map, its key tuples and ints past 256."""
    n = indices.shape[0]
    lookup = dict(zip(int_tuples(indices), range(n)))
    ints = max(n - 257, 0) + np.count_nonzero(indices > 256)
    size = sys.getsizeof(lookup) + sys.getsizeof(257) * int(ints)
    size += n * sys.getsizeof((0,) * indices.shape[1])
    return MappingProxyType(lookup), size


def spec_cached(kind: str, spec: NodeSpec, build):
    """The spec's value of a kind, built once by build(spec) -> (value,
    bytes) under the lock; a value over SPEC_CACHE_BYTES is not kept."""
    global _cache_bytes
    with _cache_lock:
        if (kind, spec) in _cache:
            _cache.move_to_end((kind, spec))
            return _cache[kind, spec][0]
        value, size = build(spec)
        if size <= SPEC_CACHE_BYTES:
            _cache[kind, spec] = value, size
            _cache_bytes += size
            while _cache_bytes > SPEC_CACHE_BYTES:
                _cache_bytes -= _cache.popitem(last=False)[1][1]
        return value


def cached_node_set(spec: NodeSpec) -> NodeSet:
    """build_node_set's set, shared while spec_cached keeps it, with read-only
    arrays and a lookup counted in its bytes (its Node list is not)."""
    check_type(spec, NodeSpec)
    return spec_cached("node_set", spec, _new_cached_set)


def _new_cached_set(spec: NodeSpec) -> Tuple[NodeSet, int]:
    """A new set and its lookup, arrays read-only, and their bytes."""
    ns = build_node_set(spec)
    lookup, size = _new_lookup(ns.indices)
    object.__setattr__(ns, "_lookup", lookup)
    return ns, size + read_only_bytes(ns.indices, ns.points, ns.weights,
                                      ns.parities)


def read_only_bytes(*arrays: np.ndarray) -> int:
    """Make the arrays read-only and return their total bytes."""
    for array in arrays:
        array.setflags(write=False)
    return sum(array.nbytes for array in arrays)


def _face_mask(indices: np.ndarray, m: Sequence[int]) -> np.ndarray:
    """Where 0 < i_j < m_j: row k marks the face set of node k."""
    return (indices > 0) & (indices < np.array(m))


def int_tuples(rows: np.ndarray) -> Iterator[Tuple[int, ...]]:
    """The rows of an (N, d) integer array as tuples of Python ints.

    Zipping the d column lists builds the tuples in C, without the list of
    N row lists that ``map(tuple, rows.tolist())`` would hold.
    """
    return zip(*rows.T.tolist())


def cgl_point(m: int, i: int) -> float:
    """The i-th Chebyshev-Gauss-Lobatto point cos(i*pi/m) on [-1, 1]."""
    m, i = integer_tuple((m, i), "cgl_point argument")
    if check_real(m, "cgl_point order m") < 1:
        raise InvalidParameter(f"cgl_point order m must be positive, got {m}")
    if not 0 <= i <= m:
        raise IndexOutOfRange(f"index {i} outside [0, {m}]")
    return cos_pi_ratio(i, m)


def _cos_table(m: int) -> np.ndarray:
    """cos(k pi / m) for k < 2m, with exact angle reduction.  Entry k > m
    is entry 2m - k, as cos_pi_ratio reduces k first."""
    half = [cos_pi_ratio(k, m) for k in range(m + 1)]
    return np.array(half + half[m - 1 : 0 : -1])


def chi_tables(spec: NodeSpec) -> List[np.ndarray]:
    """Per-axis tables cos(k pi / m_j), k < 2 m_j, with exact angle reduction.

    Entry i <= m_j is the grid coordinate of index i; the full period
    serves the products chi_gamma(i) after reducing gamma_j i_j mod 2 m_j.
    """
    return [_cos_table(mj) for mj in spec.m]


def check_box_size(corner: Sequence[int]) -> None:
    """Raise OverflowDimension if the box [0, corner] exceeds MAX_BOX_CELLS."""
    cells = math.prod(c + 1 for c in corner)
    if cells > MAX_BOX_CELLS:
        raise OverflowDimension(
            f"grid box of {cells} cells exceeds the limit of "
            f"{MAX_BOX_CELLS} cells"
        )


def _node_indices(spec: NodeSpec) -> np.ndarray:
    """The node indices: those i of the box [0, m] whose entries i_j - kappa_j
    all share one parity, the cells where the per-axis parity vectors,
    broadcast over the box, all equal that of axis 0.  np.argwhere lists
    them in lexicographic order.  Only kappa mod 2 matters.
    """
    check_box_size(spec.m)
    m = spec.m
    parity = np.ix_(*[(np.arange(mj + 1) + k % 2) % 2
                      for mj, k in zip(m, spec.shift)])
    mask = np.ones([mj + 1 for mj in m], dtype=bool)
    for axis in parity[1:]:
        mask &= axis == parity[0]
    return np.argwhere(mask)


def build_node_set(spec: NodeSpec) -> NodeSet:
    """Enumerate the node family of a spec with points, weights and parities."""
    check_type(spec, NodeSpec)
    indices = _node_indices(spec)
    m = spec.m
    parities = ((indices[:, 0] + spec.shift[0] % 2) % 2).astype(np.uint8)

    points = np.column_stack([t[i] for t, i in zip(chi_tables(spec), indices.T)])

    interior = _face_mask(indices, m).sum(axis=1)
    weights = np.exp2(interior.astype(np.float64)) / (2 * math.prod(m))

    node_set = NodeSet(spec, indices, points, weights, parities)
    object.__setattr__(node_set, "_built", True)
    return node_set


def class_map_standard(n: DimensionVector, l: int) -> MultiIndex:
    """Fold a curve parameter index l in [0, 2P[n]) onto its multi-index.

    Component j is the representative of +-l mod 2n_j inside [0, n_j].
    """
    n = validate_pairwise_coprime(n)
    (l,) = integer_tuple((l,), "parameter index")
    if not 0 <= l < 2 * n.product:
        raise IndexOutOfRange(f"l={l} outside [0, {2 * n.product})")
    return tuple(_fold(l, nj) for nj in n.entries)


def class_map_shifted(
    spec: NodeSpec, l: int, rho: Tuple[int, ...]
) -> MultiIndex:
    """Fold (l, rho) onto the shifted multi-index.

    l runs over [0, 4P[n]) and rho supplies one bit for each dimension
    other than g_index (in increasing dimension order).  Component g is
    the representative of +-(l - kappa_g) mod 4n_g inside [0, 2n_g]; the
    remaining components fold +-(l + 2 rho_i n_i - kappa_i) the same way.
    """
    check_type(spec, NodeSpec)
    if not spec.is_shifted:
        raise InvalidParameter("class_map_shifted needs a shifted spec")
    (l,) = integer_tuple((l,), "parameter index")
    rho = integer_tuple(rho, "rho")
    n = spec.n
    if not 0 <= l < 4 * n.product:
        raise IndexOutOfRange(f"l={l} outside [0, {4 * n.product})")
    g = spec.g_index
    if len(rho) != spec.dim - 1:
        raise IndexOutOfRange("rho must have one bit per non-g dimension")
    if any(b not in (0, 1) for b in rho):
        raise IndexOutOfRange("rho entries must be bits")
    bits = rho[:g] + (0,) + rho[g:]
    return tuple(
        _fold(l + 2 * b * nj - k, 2 * nj)
        for nj, k, b in zip(n.entries, spec.kappa, bits)
    )


def _fold(a: int, m: int) -> int:
    """The representative of +-a mod 2m inside [0, m]."""
    return min(a % (2 * m), -a % (2 * m))


def check_points(points, dim: int) -> np.ndarray:
    """Validate M points of the cube [-1, 1]^dim and clamp off rounding slack.

    ``points`` is an (M, dim) array or a sequence of M coordinate
    sequences; the result is the (M, dim) float64 array of the points, the
    input array itself when it is one and needs no clamping.  Raises
    DomainViolation for an array that is not two-dimensional (an empty
    sequence is no points), and at the first point, in order, that is not
    dim real numbers (a string, None or a complex number among them), has
    a NaN or infinite coordinate, or one outside [-1, 1] by more than
    _DOMAIN_SLACK; the exception's ``row`` is that point's position.
    """
    try:
        x = _real_array(points)
        if x.ndim != 2 and x.shape != (0,):
            if not isinstance(points, np.ndarray):
                raise ValueError("a sequence of points has a bad point")
            raise DomainViolation(
                f"points form an array of shape {x.shape}, expected (M, {dim})"
            )
        x = x.reshape(len(points), dim)
    except (TypeError, ValueError, OverflowError):
        # Ragged or short rows, a flat sequence or values that are not real.
        raise _bad_point(points, dim) from None
    # A NaN makes the maximum NaN, which fails the comparison.
    if np.abs(x).max(initial=0.0) <= 1.0:
        return x
    inside = np.abs(x) <= 1.0 + _DOMAIN_SLACK
    if not inside.all():
        row, col = np.argwhere(~inside)[0].tolist()
        xj = float(x[row, col])
        reason = "outside [-1, 1]" if math.isfinite(xj) else "is not finite"
        raise DomainViolation(f"coordinate {xj} {reason}", row)
    return x.clip(-1.0, 1.0)


def _real_array(values) -> np.ndarray:
    """values as a float64 array; TypeError, ValueError or OverflowError
    for a value that is not a real number a float can hold."""
    x = np.asarray(values)
    kind = x.dtype.kind
    # Strings and complex numbers; None and other objects among numbers.
    if kind not in "biufO" or kind == "O" and not all(
        isinstance(v, numbers.Real) for v in x.flat
    ):
        raise TypeError(f"values of dtype {x.dtype}")
    return x.astype(np.float64, copy=False)


def _bad_point(points, dim: int) -> DomainViolation:
    """The error of the first of the points that is not dim real numbers."""
    for row, point in enumerate(points):
        try:
            x = _real_array(point)
        except (TypeError, ValueError, OverflowError):
            x = None
        if x is None or x.ndim != 1:
            return DomainViolation(
                f"point {point!r} is not a sequence of real numbers", row
            )
        if len(x) != dim:
            return DomainViolation(
                f"point has {len(x)} coordinates, expected {dim}", row
            )
    return DomainViolation(f"points are not an (M, {dim}) array of numbers")


def variety_membership(
    spec: NodeSpec, x: Sequence[float], tol: float = 1e-9
) -> bool:
    """Check whether x lies on the spec's Chebyshev variety.

    The variety is the set where the (-1)^{kappa_i} T_{m_i}(x_i) all
    equal, kappa = 0 for the standard family.  Raises DomainViolation for
    a point that check_points rejects and InvalidParameter for a tol that is
    not a finite real number >= 0.
    """
    check_type(spec, NodeSpec)
    if check_real(tol, "tol") < 0:
        raise InvalidParameter(f"tol must be >= 0, got {tol!r}")
    x = check_points([x], spec.dim)[0].tolist()
    vals = [
        (-1) ** k * math.cos(mj * math.acos(xj))
        for xj, mj, k in zip(x, spec.m, spec.shift)
    ]
    return max(vals) - min(vals) <= tol
