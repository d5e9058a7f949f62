"""Finite sets of nonnegative matrices and set-level constructions.

Realizes products, powers, Hadamard means, sums, adjoints, cyclic factors
and geometric symmetrizations of finite matrix sets.  Members are stored as
a single read-only ``(count, dim, dim)`` array so batched numpy kernels can
consume them directly; duplicates are permitted and never affect radius
semantics.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import CapExceeded, DimensionMismatch, RegimeError
from .matrices import _NOT_REAL, _overflow_checked, check_matrix

MEMBER_CAP = 200_000

CONVEX = "convex"  # weights sum to 1
SUPER = "super"    # weights sum to >= 1 (matrix-mode theorems)

_REGIME_TOL = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Positive weights with a declared sum regime."""

    weights: tuple[float, ...]
    regime: str = CONVEX

    def __post_init__(self):
        # builtins: numpy's per-call overhead dwarfs a few weights
        w = tuple(float(x) for x in self.weights)
        if not w or not all(0.0 < x < math.inf for x in w):
            raise ValueError("weights must be positive finite reals")
        # in numpy's order, which adds eight or more terms pairwise (sum()
        # compensates on Python 3.12+)
        total = (reduce(operator.add, w) if len(w) < 8
                 else float(np.add.reduce(w)))
        if self.regime == CONVEX:
            if abs(total - 1.0) > _REGIME_TOL * max(1.0, total):
                raise RegimeError(
                    f"convex regime requires sum = 1, got {total}")
        elif self.regime == SUPER:
            if total < 1.0 - _REGIME_TOL:
                raise RegimeError(
                    f"super regime requires sum >= 1, got {total}")
        else:
            raise RegimeError(f"unknown regime {self.regime!r}")
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.weights)


def uniform_weights(m: int) -> WeightVector:
    """Convex weights (1/m, ..., 1/m)."""
    return WeightVector((1.0 / m,) * m, CONVEX)


@dataclass(frozen=True)
class MatrixSet:
    """Nonempty finite set of same-dimension nonnegative matrices."""

    members: np.ndarray  # (count, dim, dim), read-only
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        m = np.asarray(self.members)
        if m.dtype.kind == "c":
            raise ValueError(_NOT_REAL)
        m = np.asarray(m, dtype=float)
        if m.ndim != 3 or m.shape[0] == 0 or m.shape[1] != m.shape[2]:
            raise DimensionMismatch(
                f"expected a nonempty stack of square matrices, "
                f"got shape {m.shape}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValueError("set members must be finite and nonnegative")
        m = np.ascontiguousarray(m)
        m.flags.writeable = False
        object.__setattr__(self, "members", m)

    @property
    def dim(self) -> int:
        return self.members.shape[1]

    def __len__(self):
        return self.members.shape[0]

    def __iter__(self):
        return iter(self.members)


def _built(members: np.ndarray, name: str | None = None) -> MatrixSet:
    """A read-only contiguous ``MatrixSet`` of a stack built from validated
    members, without ``MatrixSet``'s scan: products, sums, positive powers,
    transposes and row selections of nonnegative stacks are nonnegative,
    and ``_overflow_checked`` has rejected any non-finite entry."""
    m = np.ascontiguousarray(members)
    m.flags.writeable = False
    out = object.__new__(MatrixSet)
    object.__setattr__(out, "members", m)
    object.__setattr__(out, "name", name)
    return out


def matrix_set(matrices, name: str | None = None) -> MatrixSet:
    """Build a MatrixSet from an iterable of square matrices."""
    mats = [check_matrix(a) for a in matrices]
    if not mats:
        raise ValueError("matrix set must be nonempty")
    for a in mats[1:]:
        if a.shape != mats[0].shape:
            raise DimensionMismatch("set members must share one dimension")
    return MatrixSet(np.stack(mats), name=name)


def _check_dims(*sets: MatrixSet) -> int:
    dim = sets[0].dim
    for s in sets[1:]:
        if s.dim != dim:
            raise DimensionMismatch(
                f"sets of dimension {dim} and {s.dim} are incompatible")
    return dim


def _check_cap(count: int) -> None:
    if count > MEMBER_CAP:
        raise CapExceeded(
            f"constructed set would have {count} members, exceeding the "
            f"cap of {MEMBER_CAP}", cap=MEMBER_CAP)


def _pairwise(op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``op(A, B)`` for every pair of slices of the stacks ``a`` and ``b``,
    as one stack with ``b``'s index running fastest."""
    n = a.shape[1]
    return op(a[:, None], b[None, :]).reshape(-1, n, n)


def set_product(psi: MatrixSet, sigma: MatrixSet) -> MatrixSet:
    """All pairwise products ``{A @ B : A in psi, B in sigma}``."""
    _check_dims(psi, sigma)
    _check_cap(len(psi) * len(sigma))
    return _built(_overflow_checked("set product", _pairwise, np.matmul,
                                    psi.members, sigma.members))


def _fold(op, sets) -> MatrixSet:
    """``op(...op(op(s1, s2), s3)..., sm)``, e.g. the product ``s1⋯sm``."""
    out = sets[0]
    for s in sets[1:]:
        out = op(out, s)
    return out


def set_power(sigma: MatrixSet, m: int) -> MatrixSet:
    """All length-``m`` products of members of ``sigma``, left to right."""
    if m < 1:
        raise ValueError("set power requires m >= 1")
    _check_cap(len(sigma) ** m)
    return _fold(set_product, [sigma] * m)


def set_hadamard_power(psi: MatrixSet, t: float) -> MatrixSet:
    """Entrywise power applied to every member."""
    if not t > 0:
        raise ValueError(f"Hadamard power requires t > 0, got {t}")
    return _built(_overflow_checked("Hadamard power", operator.pow,
                                    psi.members, t))


def set_hadamard_mean(sets, w: WeightVector) -> MatrixSet:
    """Weighted Hadamard geometric mean of sets: all entrywise products
    ``A_1**w_1 * ... * A_m**w_m`` over member tuples.

    The convex regime is always admissible; the super regime relies on the
    matrix-mode theorems and is accepted as declared by the caller.
    """
    sets = list(sets)
    if len(sets) != len(w):
        raise DimensionMismatch(
            f"{len(sets)} sets but {len(w)} weights")
    _check_dims(*sets)
    count = 1
    for s in sets:
        count *= len(s)
    _check_cap(count)

    def mean():
        batch = sets[0].members ** w.weights[0]
        for s, wk in zip(sets[1:], w.weights[1:]):
            batch = _pairwise(np.multiply, batch, s.members ** wk)
        return batch
    return _built(_overflow_checked("Hadamard mean", mean))


def set_sum(psi: MatrixSet, sigma: MatrixSet) -> MatrixSet:
    """All pairwise sums ``{A + B : A in psi, B in sigma}``."""
    _check_dims(psi, sigma)
    _check_cap(len(psi) * len(sigma))
    return _built(_overflow_checked("set sum", _pairwise, np.add,
                                    psi.members, sigma.members))


def set_adjoint(psi: MatrixSet) -> MatrixSet:
    """Elementwise transpose."""
    return _built(psi.members.transpose(0, 2, 1), name=psi.name)


def cyclic_factor(sets, j: int) -> MatrixSet:
    """Cyclic product ``Psi_j ... Psi_m Psi_1 ... Psi_{j-1}`` (1-indexed)."""
    sets = list(sets)
    m = len(sets)
    if not 1 <= j <= m:
        raise ValueError(f"cyclic index {j} out of range 1..{m}")
    return _fold(set_product, sets[j - 1:] + sets[:j - 1])


def _pair_mean(f: MatrixSet, g: MatrixSet, a: float, b: float) -> MatrixSet:
    """``{F**(a) o G**(b) : F in f, G in g}`` for ``a + b >= 1``, with the
    missing factor convention of :func:`symmetrize_ab`."""
    if b == 0:
        return set_hadamard_power(f, a) if a != 1 else f
    if a == 0:
        return set_hadamard_power(g, b) if b != 1 else g
    return set_hadamard_mean(
        [f, g], WeightVector((a, b), SUPER if a + b > 1 else CONVEX))


def _kernel_exponents(x: float, name: str = "alpha") -> tuple[float, float]:
    """Kernel-mode exponents ``(x, 1 - x)`` for ``name`` = x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return x, 1.0 - x


def symmetrize_ab(psi: MatrixSet, alpha: float, beta: float) -> MatrixSet:
    """Weighted geometric symmetrization
    ``{A**(alpha) o (B^T)**(beta) : A, B in psi}`` for ``alpha + beta >= 1``.

    A zero exponent drops the corresponding factor entirely (the missing
    factor convention), so ``(1, 0)`` returns ``psi`` and ``(0, 1)`` its
    adjoint.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("exponents must be nonnegative")
    if alpha + beta < 1.0 - _REGIME_TOL:
        raise RegimeError(
            f"symmetrization requires alpha + beta >= 1, got "
            f"{alpha} + {beta}")
    return _pair_mean(psi, set_adjoint(psi), alpha, beta)


def symmetrize(psi: MatrixSet, alpha: float) -> MatrixSet:
    """Geometric symmetrization ``{A**(alpha) o (B^T)**(1-alpha)}`` for
    ``alpha`` in [0, 1]; endpoints follow the conventions ``S_1 = psi`` and
    ``S_0 = psi^T``."""
    return symmetrize_ab(psi, *_kernel_exponents(alpha))


def canonicalize(psi: MatrixSet) -> MatrixSet:
    """Members sorted lexicographically on their entries (row-major)."""
    flat = psi.members.reshape(len(psi), -1)
    order = np.lexsort(np.flipud(flat.T))
    return _built(psi.members[order], name=psi.name)


def dedupe(psi: MatrixSet, tol: float = 0.0) -> MatrixSet:
    """Remove members within entrywise max-distance ``tol`` of a kept one.

    ``tol = 0`` removes exact duplicates only, compared by value (so -0.0
    equals 0.0).  The result is in canonical (lexicographic) order: one
    stable ``np.lexsort`` of the members, keeping the first of each run of
    equal ones, gives the members and order of ``np.unique(flat, axis=0)``.
    It is faster up to thousands of members and on stacks with many
    repeats, and slower on tens of thousands of distinct members.  The
    radius queries dedupe only sets of at most 4,096 members; a larger
    set is scanned as it is, and where at most half its words are
    distinct, its batched bracket brackets each distinct word once.  A
    one-member set is returned as it is.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if len(psi) == 1:
        return psi
    flat = psi.members.reshape(len(psi), -1)
    flat = flat[np.lexsort(np.flipud(flat.T))]
    first = np.ones(len(flat), dtype=bool)
    first[1:] = (flat[1:] != flat[:-1]).any(axis=1)
    uniq = flat[first]
    if tol > 0:
        kept: list[np.ndarray] = []
        for row in uniq:
            if not any(np.max(np.abs(row - k)) <= tol for k in kept):
                kept.append(row)
        uniq = np.stack(kept)
    n = psi.dim
    return _built(uniq.reshape(-1, n, n), name=psi.name)


def sets_equal(a: MatrixSet, b: MatrixSet) -> bool:
    """Bit-exact set equality after dedupe and canonical ordering."""
    da, db = dedupe(a), dedupe(b)
    return da.members.shape == db.members.shape and np.array_equal(
        da.members, db.members)
