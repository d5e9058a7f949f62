"""Dense nonnegative-matrix arithmetic.

Ordinary and entrywise (Hadamard) operations, induced operator norms, and
certified enclosures of the spectral radius of a single matrix or of every
slice of a stack.  All functions are pure; arrays are never mutated in
place.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConvergenceError, DimensionMismatch

ROW_SUM = "row-sum"  # operator norm on l-infinity
COL_SUM = "col-sum"  # operator norm on l-1
SPECTRAL = "spectral"  # operator norm on l-2, certified upper bound only

DEFAULT_TOL = 1e-9
_SPECTRAL_TOL = 1e-12
_MAX_SQUARINGS = 256
_COARSE_TOL = 1e-6
_COARSE_SQUARINGS = 10
_GRAM_SQUARINGS = 60
# slices per batched word scan and per Gram chunk: about where a call's
# word work matches its fixed cost
_BATCH_WORDS = 4096
# words a length of more than _BATCH_WORDS survivors brackets first
_SEED_WORDS = 32
# slices of a stack the sharing gate of _batch_bracket hashes
_SAMPLE_ROWS = 1024
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_NOT_FINITE = "matrix entries must be finite (no NaN/inf)"
_NOT_REAL = "matrix entries must be real"


def check_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square float array with finite
    nonnegative entries."""
    a = np.asarray(a)
    if a.dtype.kind == "c":  # the cast would drop the imaginary parts
        raise ValueError(_NOT_REAL)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(
            f"expected a nonempty square matrix, got shape {a.shape}")
    # the ufuncs' own reductions, without np.all's and np.any's Python layers
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError(_NOT_FINITE)
    if np.logical_or.reduce(a < 0, axis=None):
        raise ValueError("matrix entries must be nonnegative")
    return a


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(
            f"incompatible operands: {a.shape} vs {b.shape}")


@dataclass(frozen=True)
class RadiusBracket:
    """Certified enclosure ``lo <= rho <= hi`` with the search depth and the
    norm that produced it."""

    lo: float
    hi: float
    depth: int
    norm: str

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi < np.inf):
            raise ValueError(
                f"invalid bracket [{self.lo}, {self.hi}]")
        if self.depth < 1:
            raise ValueError("depth must be a positive integer")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def powered(self, e: float) -> "RadiusBracket":
        """Bracket of ``rho**e`` for a nonnegative exponent."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        return RadiusBracket(self.lo ** e, self.hi ** e, self.depth, self.norm)


def _overflow_checked(what: str, build, *args) -> np.ndarray:
    """``build(*args)`` with numpy's overflow warnings silenced, which
    raises ``ValueError`` naming ``what`` on a non-finite entry: from finite
    operands only overflow makes one (a NaN is an overflow times zero)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = build(*args)
    if not np.logical_and.reduce(np.isfinite(out), axis=None):
        raise ValueError(f"{what} overflowed to infinity")
    return out


def hadamard_product(a, b) -> np.ndarray:
    """Entrywise product ``a[i,j] * b[i,j]``."""
    a, b = check_matrix(a), check_matrix(b)
    _check_same_dim(a, b)
    return a * b


def hadamard_power(a, t: float) -> np.ndarray:
    """Entrywise power ``a[i,j]**t`` for ``t > 0`` (with ``0**t = 0``)."""
    a = check_matrix(a)
    if not t > 0:
        raise ValueError(f"Hadamard power requires t > 0, got {t}")
    return _overflow_checked("Hadamard power", operator.pow, a, t)


def weighted_hadamard_geometric_mean(matrices, weights) -> np.ndarray:
    """Entrywise weighted geometric mean ``prod_k matrices[k]**w[k]``.

    ``weights`` is a sequence of positive reals or a
    :class:`~hadamard_jsr.sets.WeightVector`; the weights need not sum to 1.
    """
    w = np.asarray(getattr(weights, "weights", weights), dtype=float)
    mats = [check_matrix(m) for m in matrices]
    if len(mats) != w.size:
        raise DimensionMismatch(
            f"{len(mats)} matrices but {w.size} weights")
    if len(mats) == 0:
        raise ValueError("need at least one matrix")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    for m in mats[1:]:
        _check_same_dim(mats[0], m)
    return reduce(np.multiply, [m ** wk for m, wk in zip(mats, w)])


def matrix_product(a, b) -> np.ndarray:
    """Ordinary matrix product."""
    a, b = check_matrix(a), check_matrix(b)
    _check_same_dim(a, b)
    return a @ b


def transpose(a) -> np.ndarray:
    """Adjoint (transpose) of a real nonnegative matrix."""
    return check_matrix(a).T.copy()


def induced_norm(a, kind: str = ROW_SUM) -> float:
    """Induced operator norm of ``a``.

    ``row-sum`` and ``col-sum`` are exact; ``spectral`` is computed to
    relative tolerance 1e-12 and rounded up so the returned value is a
    certified upper bound.
    """
    # a lone slice is never dropped, so its scale is moot
    return float(_stack_norms(check_matrix(a)[None], kind, np.zeros(1),
                              np.array([0, 1]))[0])


def _last_axis(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)`` bit for bit, one column at a time.

    numpy reduces a short last axis element by element; an elementwise
    pass over its columns is 10-70 times faster on the small slices of a
    word stack.  ``maximum`` and ``minimum`` give the same result in any
    order.  numpy's ``add`` starts from 0 and adds in column order below
    eight terms only (it sums eight or more pairwise), so longer rows are
    left to numpy.
    """
    n = a.shape[-1]
    if ufunc is np.add:
        if n >= 8:
            return a.sum(axis=-1)
        out = a[..., 0] + 0.0  # the start from 0 turns -0.0 into 0.0
    else:
        out = a[..., 0].copy()
    for j in range(1, n):
        ufunc(out, a[..., j], out=out)
    return out


def _stack_norms(batch: np.ndarray, kind: str, logs, bounds) -> np.ndarray:
    """Induced ``kind`` norm of every slice of a ``(k, n, n)`` stack with log
    scales ``logs``, with ``spectral`` rounded up to a certified upper bound.
    Only ``spectral`` reads ``logs`` and the word-length boundaries
    ``bounds``: it brackets the Gram matrices, scaled by ``exp(2 logs)``,
    under the pruning of :func:`_batch_bracket`, so only each length's
    largest scaled value is exact and pruned slices read 0.  A word scan
    of at most ``_BATCH_WORDS`` words brackets them in its words' call
    instead (:func:`_with_grams`)."""
    if kind in (ROW_SUM, COL_SUM):
        # the transposed view sums as ``batch.sum(axis=1)`` does, bit for bit
        sums = batch if kind == ROW_SUM else batch.transpose(0, 2, 1)
        return _last_axis(np.maximum, _last_axis(np.add, sums))
    if kind == SPECTRAL:
        hi = _batch_bracket(_gram(batch, np.empty_like(batch)), 2 * logs,
                            bounds, _SPECTRAL_TOL, _GRAM_SQUARINGS)[1]
        return _gram_norms(hi)
    raise ValueError(f"unknown norm kind {kind!r}")


def _gram(batch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the Gram matrix ``w^T w`` of every slice ``w`` to ``out``."""
    # a transposed copy multiplies faster than the strided view; one chunk
    # at a time, so the copy stays small
    for a in range(0, len(batch), _BATCH_WORDS):
        part = batch[a:a + _BATCH_WORDS]
        np.matmul(np.ascontiguousarray(part.transpose(0, 2, 1)), part,
                  out=out[a:a + _BATCH_WORDS])
    return out


def _gram_norms(hi: np.ndarray) -> np.ndarray:
    """Certified spectral norms from the upper ends ``hi`` of the Gram
    matrices' brackets."""
    return np.sqrt(hi) * (1.0 + _SPECTRAL_TOL)


def _with_grams(batch: np.ndarray, logs: np.ndarray, bounds):
    """The arguments of one :func:`_batch_bracket` call that brackets the
    words of ``batch`` and their Gram matrices.

    The Gram matrices follow the words, length by length, so each Gram
    length is one more slice of ``bounds``, with the tolerance and squaring
    cap of :func:`_stack_norms`.  The call's upper ends from
    ``len(batch)`` on give :func:`_gram_norms`; its other results are
    those of the two calls, slice by slice.
    """
    k, lengths = len(batch), len(bounds) - 1
    stack = np.empty((2 * k,) + batch.shape[1:])
    stack[:k] = batch
    _gram(batch, stack[k:])
    return (stack, np.concatenate([logs, 2 * logs]),
            np.concatenate([bounds, k + np.asarray(bounds[1:])]),
            np.repeat([_COARSE_TOL, _SPECTRAL_TOL], lengths),
            np.repeat([_COARSE_SQUARINGS, _GRAM_SQUARINGS], lengths))


def _strongly_connected_components(adj: np.ndarray) -> list[np.ndarray]:
    """Partition indices into strongly connected components of the boolean
    adjacency matrix, via boolean transitive closure."""
    n = adj.shape[0]
    reach = adj.copy()
    reach.flat[::n + 1] = True
    # repeated squaring reaches the closure in ceil(log2 n) steps
    for _ in range(max(1, (n - 1).bit_length())):
        reach = reach | (reach @ reach)
    if np.logical_and.reduce(reach, axis=None):  # strongly connected
        return [np.arange(n)]
    mutual = reach & reach.T
    seen = np.zeros(n, dtype=bool)
    comps = []
    for i in range(n):
        if not seen[i]:
            comp = np.flatnonzero(mutual[i])
            seen[comp] = True
            comps.append(comp)
    return comps


def _collatz_wielandt(c: np.ndarray, tol: float) -> tuple[float, float, int]:
    """Certified bracket for ``rho(c)`` of an irreducible nonnegative matrix.

    Works on the primitive shift ``P = c + I`` (``rho(P) = rho(c) + 1``):
    repeated squaring of the normalized power drives ``x = P^(2^s) @ 1``
    to the Perron direction doubly exponentially, and for any positive x
    the Collatz-Wielandt ratios of ``P @ x / x`` enclose ``rho(P)``.
    """
    n = c.shape[0]
    if n == 1:
        v = float(c[0, 0])
        return v, v, 1
    p = c.copy()
    p.flat[::n + 1] += 1.0
    q = p / np.maximum.reduce(p, axis=None)
    best_lo, best_hi = 0.0, np.inf
    for s in range(1, _MAX_SQUARINGS + 1):
        # q @ ones is mathematically positive (positive diagonal) but may
        # underflow; the clamp keeps x a valid positive test vector.
        x = np.maximum(np.add.reduce(q, axis=1), 1e-300)
        ratios = ((p @ x) / x).tolist()  # one conversion; exact
        best_lo = max(best_lo, min(ratios))
        best_hi = min(best_hi, max(ratios))
        if best_hi - best_lo <= tol * max(1.0, best_hi - 1.0):
            return max(best_lo - 1.0, 0.0), best_hi - 1.0, s
        q = q @ q
        top = np.maximum.reduce(q, axis=None)
        if top == 0:  # the power underflowed; further squarings are NaN
            break
        q /= top
    raise ConvergenceError(
        f"Collatz-Wielandt bracket did not reach width {tol} within "
        f"{_MAX_SQUARINGS} squarings",
        bracket=RadiusBracket(max(best_lo - 1.0, 0.0), best_hi - 1.0,
                              _MAX_SQUARINGS, ROW_SUM),
    )


def _dominated(lo: np.ndarray, hi: np.ndarray, logs: np.ndarray, n: int,
               top: list[float], bounds) -> tuple[np.ndarray, list[float]]:
    """Mask of the words another word of the same length dominates, and
    the new ``top``.

    ``[lo, hi]`` encloses ``rho`` of each ``n x n`` word (or of its Gram
    matrix), scaled by ``exp(logs)``.  The words of the ``i``-th length are
    the slice ``bounds[i]:bounds[i + 1]``, and ``top[i]`` is that length's
    best log lower bound so far.  A word is dominated once its log upper
    bound is below its own length's ``top`` by more than 1e-9; a length
    with no words keeps its ``top``.  Dropping it is exact, as in
    Gripenberg's branch-and-bound (Linear Algebra Appl. 1996): bounds only
    tighten, so its full-pass bracket lies below the length's final best
    lower bound, and it is neither that bound's word, nor a refinement
    candidate of any query, nor the length's largest norm.  Both ends are
    widened by ``1e-13 n``, the few ulps of rounding by which a computed
    bound can cross the true one.  That margin also holds the raw row sums
    of a word over its row-sum norm ``s``, on which ``radius`` first prunes
    a set's last length: ``fl(sum(raw)) / s`` differs from the normalized
    word's ``sum(fl(raw / s))`` by about ``n + 1`` ulps.
    """
    g = 1e-13 * n
    # an upper end of inf on a zero word (log scale -inf) reads NaN, which
    # drops nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        lo_log = np.log(np.maximum(lo - g, 0.0)) + logs
        hi_log = np.log(hi + g) + logs
    edges = np.asarray(bounds)
    sizes = np.diff(edges)
    full = sizes > 0
    top = np.array(top, dtype=float)
    # fmax keeps the old top against a NaN, as Python's max does
    top[full] = np.fmax(top[full],
                        np.maximum.reduceat(lo_log, edges[:-1][full]))
    gone = hi_log < np.repeat(top - 1e-9, sizes)
    return gone, top.tolist()


def _seeds(row_lo: np.ndarray, logs: np.ndarray, keep: np.ndarray,
           bounds) -> np.ndarray:
    """Ascending indices of the ``_SEED_WORDS`` kept words with the largest
    row-sum lower bound ``log(min row sum) + logs`` in each length that
    keeps more than ``_BATCH_WORDS`` words."""
    if len(keep) <= _BATCH_WORDS:  # no length keeps more
        return np.empty(0, int)
    picks = []
    counts = np.diff(np.searchsorted(np.flatnonzero(keep), bounds))
    for i in np.flatnonzero(counts > _BATCH_WORDS):
        idx = np.flatnonzero(keep[bounds[i]:bounds[i + 1]]) + bounds[i]
        with np.errstate(divide="ignore"):
            bound = np.log(row_lo[idx]) + logs[idx]
        picks.append(idx[np.argpartition(bound, -_SEED_WORDS)[-_SEED_WORDS:]])
    return np.sort(np.concatenate(picks)) if picks else np.empty(0, int)


def _batch_bracket(batch: np.ndarray, logs: np.ndarray, bounds,
                   tol=_COARSE_TOL, squarings=_COARSE_SQUARINGS) -> np.ndarray:
    """Vectorized Collatz-Wielandt brackets for ``rho`` of every slice, as
    a ``(3, k)`` array of lower ends, upper ends and row-sum norms.

    The iteration of :func:`_collatz_wielandt`, run on a whole stack: one
    matrix goes through that loop, which is faster for it, and a stack
    through this one, whose ``einsum`` beats ``matmul`` on many small
    slices.  Always sound; tight only for slices whose primitive shift
    converges within the squaring budget (reducible slices may stay loose
    on the lower side, which refinement repairs).

    ``logs`` are the log scales of the slices, the row-normalized words of
    every length or their Gram matrices; the words of the ``i``-th length
    are ``batch[bounds[i]:bounds[i + 1]]``, so one squaring loop serves
    every length.  ``tol`` and ``squarings`` are the convergence tolerance
    and squaring cap of every length, or sequences with one of each per
    length, so that the words and their Gram matrices share the loop
    (:func:`_with_grams`).  The slices :func:`_dominated` finds, within
    their own length, get ``[0, 0]`` (:func:`_bracket_slices`).

    A stack of more than ``_BATCH_WORDS`` slices of ``n > 1`` brackets
    each distinct slice of a length once, when :func:`_distinct_slices`
    finds at most half of them distinct: one slice of each, with the
    largest log scale of its copies, goes through the loop, and every copy
    gets its bracket.  This is exact.  A copy's arithmetic is its
    representative's, bit for bit, so a copy that is bracketed gets the
    bracket a full pass gives it.  The representative dominates its
    copies, so each length's best lower end is unchanged; a copy given
    ``[0, 0]`` has its representative's full-pass upper end, scaled down,
    below that length's final best lower end, and a copy that is
    bracketed only here is one the pass without sharing would drop, below
    it too.  Either way it is neither a length's best lower bound, nor a
    refinement candidate, nor its largest norm.
    """
    shared = (_distinct_slices(batch, bounds)
              if len(batch) > _BATCH_WORDS and batch.shape[1] > 1 else None)
    if shared is None:
        return _bracket_slices(batch, logs, bounds, tol, squarings)
    first, inverse = shared
    scales = np.full(len(first), -np.inf)
    np.maximum.at(scales, inverse, logs)
    return _bracket_slices(batch[first], scales,
                           np.searchsorted(first, bounds), tol,
                           squarings)[:, inverse]


def _row_hashes(flat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of ``flat``, the ``uint64`` view of a
    stack's slices, and of its length index ``lengths``: every column, and
    the index, times its own odd constant, summed modulo ``2**64``.  Equal
    hashes only propose a merge; :func:`_distinct_slices` checks it."""
    # splitmix64's output function on 1, 2, ...: well-mixed constants
    c = np.arange(1, flat.shape[1] + 2, dtype=np.uint64) * _GOLDEN_GAMMA
    c = (c ^ (c >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    c = (c ^ (c >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    c = (c ^ (c >> np.uint64(31))) | np.uint64(1)
    return flat @ c[1:] + lengths.astype(np.uint64) * c[0]


def _distinct_slices(batch: np.ndarray, bounds):
    """``(first, inverse)`` of a stack whose lengths hold at most half as
    many distinct slices as slices, or ``None``.

    ``first`` holds the ascending index of the first slice of each
    distinct one, and ``inverse`` the position in ``first`` of each
    slice's; a slice and its first are equal bit for bit and of one
    length.  A strided sample of about ``_SAMPLE_ROWS`` slices is hashed
    first, and only when at most half its hashes are distinct is every
    slice hashed and sorted.  Every merge the hashes propose is then
    checked, a chunk of slices at a time; one that fails, as a hash
    collision would, gives ``None``.
    """
    k = len(batch)
    flat = np.ascontiguousarray(batch).reshape(k, -1).view(np.uint64)
    edges = np.asarray(bounds)
    sample = np.arange(0, k, max(1, k // _SAMPLE_ROWS))
    hashes = np.sort(_row_hashes(
        flat[sample], np.searchsorted(edges, sample, "right") - 1))
    # np.unique's own overhead is ten times this sort's
    if 2 * (1 + np.count_nonzero(hashes[1:] != hashes[:-1])) > len(sample):
        return None
    lengths = np.repeat(np.arange(len(edges) - 1), np.diff(edges))
    hashes = _row_hashes(flat, lengths)
    order = np.argsort(hashes)
    hashes = hashes[order]
    new = np.empty(k, dtype=bool)
    new[0] = True
    np.not_equal(hashes[1:], hashes[:-1], out=new[1:])
    del hashes
    starts = np.flatnonzero(new)
    if 2 * len(starts) > k:
        return None
    first = np.minimum.reduceat(order, starts)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    inverse = np.empty(k, dtype=np.intp)
    inverse[order] = rank[np.cumsum(new) - 1]
    first = np.sort(first)
    del order, new, starts, rank
    if not np.array_equal(lengths[first][inverse], lengths):
        return None
    rows = np.empty((min(k, _BATCH_WORDS), flat.shape[1]), dtype=np.uint64)
    for a in range(0, k, _BATCH_WORDS):
        part = flat[a:a + _BATCH_WORDS]
        np.take(flat, first[inverse[a:a + _BATCH_WORDS]], axis=0,
                out=rows[:len(part)])
        if not np.array_equal(rows[:len(part)], part):
            return None
    return first, inverse


def _bracket_slices(batch: np.ndarray, logs: np.ndarray, bounds, tol,
                    squarings) -> np.ndarray:
    """:func:`_batch_bracket` of every slice, with no sharing.

    The slices :func:`_dominated` finds get ``[0, 0]``: first on the bounds
    ``min_i r_i <= rho <= max_i r_i`` (which the first step reaches), so
    only the survivors are squared, then after each squaring.

    The pruning is best-first.  In a length that keeps more than
    ``_BATCH_WORDS`` words, the :func:`_seeds`, those with the best row-sum
    lower bounds, go through the squaring loop first; the other survivors
    are then pruned again on their row sums against the lower ends the
    seeds reached, and only the rest are squared.  This is exact:
    :func:`_dominated` needs only a length's ``top`` to stay at most its
    final best lower end, and the arithmetic is per slice, so a seed's
    lower end is one the full pass gives that word.  Every slice not
    dropped gets the bracket a full pass gives it, whatever the other
    slices and lengths hold.
    """
    k, n, _ = batch.shape
    rows = _last_axis(np.add, batch)
    row_lo, row_hi = _last_axis(np.minimum, rows), _last_axis(np.maximum, rows)
    del rows
    gone, top = _dominated(row_lo, row_hi, logs, n,
                           [-np.inf] * (len(bounds) - 1), bounds)
    keep = ~gone
    seeds = _seeds(row_lo, logs, keep, bounds) if n > 1 else np.empty(0, int)
    if len(seeds):
        seed_lo, seed_hi, top = _squarings(
            batch[seeds], logs[seeds], np.searchsorted(seeds, bounds), top,
            tol, squarings)
        keep[seeds] = False
        rest = np.flatnonzero(keep)
        gone, top = _dominated(row_lo[rest], row_hi[rest], logs[rest], n,
                               top, np.searchsorted(rest, bounds))
        keep[rest[gone]] = False
    del row_lo
    if n == 1:  # exact, where the shift below would round
        lo = hi = batch[keep, 0, 0]
    else:
        # gathered straight into the stack the loop shifts, so no second
        # copy exists
        lo, hi, _ = _squarings(batch[keep], logs[keep],
                               np.searchsorted(np.flatnonzero(keep), bounds),
                               top, tol, squarings)
    # after the loop's stacks are freed, row by row: other orders raised
    # peak RSS
    out = np.zeros((3, k))
    out[0, keep], out[1, keep] = lo, hi
    if len(seeds):
        out[0, seeds], out[1, seeds] = seed_lo, seed_hi
    out[2] = row_hi
    return out


def _squarings(p: np.ndarray, logs: np.ndarray, bounds, top: list[float],
               tol, squarings):
    """The squaring loop of :func:`_batch_bracket` on the gathered slices
    ``p``, which it shifts in place: their lower and upper ends (``0`` where
    dropped) and the new ``top``.

    A slice leaves the loop once its bracket converges, its length's
    squaring cap is reached or :func:`_dominated` drops it.  The stacks are
    gathered again only once a quarter of their rows have left; until then
    a row that has left is still squared, but its bounds stay as they were
    and it is not dropped again (its lower end is in ``top`` already), so
    the result is that of a gather at every step.  A length's cap is the
    number of ratio steps its slices take, so a slice gets the bracket a
    call with that cap alone gives it.
    """
    m, n, _ = p.shape
    caps = None
    if np.ndim(squarings):  # one tolerance and cap per row
        sizes = np.diff(bounds)
        tol, caps = np.repeat(tol, sizes), np.repeat(squarings, sizes)
        squarings = int(np.max(squarings))
    # the slice of each row of p and q, its bounds (those of every slice
    # until the first gather), and whether it is in the loop
    idx, lo, hi = np.arange(m), np.zeros(m), np.full(m, np.inf)
    best_lo, best_hi = lo, hi
    dropped = np.zeros(m, dtype=bool)
    p += np.eye(n)
    q = p / _last_axis(np.maximum, p.reshape(m, n * n))[:, None, None]
    live = np.ones(m, dtype=bool)
    edges = bounds
    for step in range(1, squarings + 1):
        # q's diagonal is mathematically positive but can underflow
        # under repeated squaring; the clamp keeps x a positive vector
        x = np.maximum(_last_axis(np.add, q), 1e-300)
        ratios = np.einsum("kij,kj->ki", p, x) / x
        np.maximum(lo, _last_axis(np.minimum, ratios), out=lo, where=live)
        np.minimum(hi, _last_axis(np.maximum, ratios), out=hi, where=live)
        gone, top = _dominated(lo - 1.0, np.where(live, hi - 1.0, np.inf),
                               logs, n, top, edges)
        dropped[idx[gone]] = True
        live &= ~gone & (hi - lo > tol * np.maximum(1.0, hi - 1.0))
        if caps is not None:
            live &= caps > step
        left = np.count_nonzero(live)
        if not left:
            break
        if 4 * left <= 3 * len(live):
            best_lo[idx], best_hi[idx] = lo, hi
            if caps is not None:
                tol, caps = tol[live], caps[live]
            idx, p, q = idx[live], p[live], q[live]
            lo, hi, logs = lo[live], hi[live], logs[live]
            live = np.ones(left, dtype=bool)
            edges = np.searchsorted(idx, bounds)
        q = np.matmul(q, q)
        q /= _last_axis(np.maximum, q.reshape(len(q), n * n))[:, None, None]
    best_lo[idx], best_hi[idx] = lo, hi
    del p, q
    lo = np.maximum(best_lo - 1.0, 0.0)
    hi = np.maximum(best_hi - 1.0, lo)
    lo[dropped] = hi[dropped] = 0.0
    return lo, hi, top


def _block_bracket(sub: np.ndarray, tol: float) -> tuple[float, float, int]:
    """Bracket ``rho`` of an irreducible block, with fallbacks for blocks
    whose Perron vector exceeds double-precision dynamic range.

    The upper envelope of a Collatz-Wielandt run is certified at every
    iteration, so a failed run still yields a valid ``hi``; the lower
    endpoint is then recovered from the transposed block (same radius,
    possibly representable Perron vector) or from the block with its
    far-below-scale entries pruned (entrywise monotone, so still a lower
    bound).
    """
    try:
        return _collatz_wielandt(sub, tol)
    except ConvergenceError as exc:
        hi = exc.bracket.hi
    try:
        t_lo, t_hi, t_depth = _collatz_wielandt(sub.T, tol)
        return t_lo, min(hi, t_hi), t_depth
    except ConvergenceError as exc:
        hi = min(hi, exc.bracket.hi)
    lo = 0.0
    scale = float(sub.max())
    for rel in (1e-200, 1e-120, 1e-60, 1e-30, 1e-15):
        pruned = np.where(sub < scale * rel, 0.0, sub)
        if (pruned > 0).sum() == (sub > 0).sum():
            continue
        lo = max(lo, spectral_radius_bracket(pruned, tol).lo)
        if hi - lo <= tol * max(1.0, hi):
            return lo, hi, _MAX_SQUARINGS
    raise ConvergenceError(
        f"spectral radius bracket stuck at width {hi - lo:.3e}; the "
        f"Perron vector spans more than double-precision range",
        bracket=RadiusBracket(lo, hi, _MAX_SQUARINGS, ROW_SUM))


def spectral_radius_bracket(a, tol: float = DEFAULT_TOL) -> RadiusBracket:
    """Certified bracket ``[lo, hi]`` with ``lo <= rho(a) <= hi`` and
    ``hi - lo <= tol * max(1, hi)``.

    The matrix is split into strongly connected components; the spectral
    radius is the maximum over the (irreducible) diagonal blocks, each of
    which is bracketed by Collatz-Wielandt iteration on the primitive
    shift ``block + I``; a positive matrix (irreducible, by Perron-Frobenius)
    or a single component is bracketed whole.
    """
    a = check_matrix(a)
    if not tol > 0:
        raise ValueError("tol must be positive")
    comps = (() if np.logical_and.reduce(a > 0, axis=None)
             else _strongly_connected_components(a > 0))
    blocks = ([a] if len(comps) < 2
              else [a.take(c, 0).take(c, 1) for c in comps])
    lo, hi, depth = 0.0, 0.0, 1
    for sub in blocks:
        c_lo, c_hi, c_depth = _block_bracket(sub, tol)
        lo = max(lo, c_lo)
        hi = max(hi, c_hi)
        depth = max(depth, c_depth)
    return RadiusBracket(min(lo, hi), hi, depth, ROW_SUM)
