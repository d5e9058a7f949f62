"""Evaluation of every inequality/equality chain as bracketed links.

Each chain is an ordered list of links; a link's value is a product of
set-radius brackets raised to nonnegative exponents.  Verification checks
``lower(L_i) <= upper(L_j) + tol`` for every ordered pair inside a chain
segment, and bracket overlap for equality links.  A bracket-based check can
never prove a true theorem false, so a "violated" verdict flags an
implementation bug and must be loud.

Set brackets come from one bounded process-wide cache keyed on the member
stack and ``(depth, norm, budget)``, so chains that share a set bracket it
once; a cached bracket is the bracket a fresh call returns.  A chain's
links record their sets, and its report brackets every set the cache
lacks in one batched call, at most ``radius._BATCH_WORDS`` words a scan;
a set of more than that many members is bracketed at its link.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import reduce
from types import SimpleNamespace

import numpy as np

from .errors import DimensionMismatch
from .matrices import (_NOT_FINITE, DEFAULT_TOL, ROW_SUM, RadiusBracket,
                       check_matrix, spectral_radius_bracket)
from .radius import (_BATCH_WORDS, DEFAULT_WORD_BUDGET, WORD_CAP,
                     _bracket_sets, _check_search, symmetrization_sequence_ab)
from .sets import (CONVEX, SUPER, MEMBER_CAP, MatrixSet, WeightVector,
                   _fold, _kernel_exponents, _pair_mean, cyclic_factor,
                   set_adjoint, set_hadamard_mean, set_hadamard_power,
                   set_power, set_product, set_sum, symmetrize_ab,
                   uniform_weights)

VERIFIED = "verified"
INDETERMINATE = "indeterminate"
VIOLATED = "violated"

LEQ = "<="
EQ = "="
END = "end"

VERDICT_TOL = 1e-9

DEFAULT_CHAIN_DEPTH = 8

_HALF = WeightVector((0.5, 0.5))


@dataclass(frozen=True)
class ChainLink:
    label: str
    bracket: RadiusBracket
    relation_to_next: str  # "<=", "=", or "end"


@dataclass
class ChainReport:
    theorem_id: str
    links: tuple[ChainLink, ...]
    verdict: str
    margins: tuple[float, ...]
    notes: tuple[str, ...] = ()
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


# set brackets kept per process; the entry stored or settled longest ago
# is evicted first
_CACHE_SIZE = 512
_brackets: dict = {}


def _cache_put(key: tuple, bracket: RadiusBracket) -> None:
    if len(_brackets) >= _CACHE_SIZE:
        del _brackets[next(iter(_brackets))]
    _brackets[key] = bracket


class _Evaluator:
    """Builds the link specs and the report of one set chain from set
    brackets at one ``(depth, norm, budget)``, read through the cache.

    A chain body runs in its evaluator's ``with`` block: if it raises, the
    sets its links recorded are bracketed in link order first, and the
    first bracket error is raised in its place, the error the chain meets
    when it brackets each link as it makes it.
    """

    def __init__(self, depth: int, norm: str, budget: int):
        self.depth = depth
        self.norm = norm
        self.budget = budget
        # id -> (set, key) of the sets the links record, in link order: each
        # is hashed once and held, so its id is not reused while it lives
        self._keys: dict[int, tuple[MatrixSet, tuple]] = {}

    def __enter__(self) -> "_Evaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        if isinstance(exc_info[1], Exception):
            try:
                self._settle(self._keys.values())
            except Exception as err:
                raise err from None

    def _key(self, ms: MatrixSet) -> tuple:
        hit = self._keys.get(id(ms))
        if hit is None:
            import hashlib  # here, so callers without set chains skip its 4 ms
            # the shape too: (4, 1, 1) and (1, 2, 2) stacks can share bytes
            hit = (ms, (ms.members.shape, hashlib.blake2b(ms.members).digest(),
                        self.depth, self.norm, self.budget))
            if len(ms) <= _BATCH_WORDS:  # a larger set is not held
                self._keys[id(ms)] = hit
        return hit[1]

    def set_bracket(self, ms: MatrixSet) -> RadiusBracket:
        key = self._key(ms)
        if key not in _brackets:
            self._settle([(ms, key)])
        return _brackets[key]

    def _settle(self, hits) -> None:
        """Bracket the sets of ``hits``, (set, key) pairs, that the cache
        lacks, in order and in one batched call, and cache each.  A set the
        cache holds moves to its newest end, so that none is evicted before
        its link reads it."""
        todo = {}
        for ms, key in hits:
            if key in _brackets:
                _brackets[key] = _brackets.pop(key)
            else:
                todo.setdefault(key, ms)
        for key, bracket in zip(todo, _bracket_sets(
                list(todo.values()), self.depth, self.norm, DEFAULT_TOL,
                WORD_CAP, self.budget)):
            _cache_put(key, bracket)

    def link(self, label: str, factors, relation: str) -> tuple:
        """The spec ``(label, parts, relation)`` of the link valued
        ``Π r(set)^exponent`` over ``factors``, (MatrixSet, exponent >= 0)
        pairs.  ``parts`` keeps a set of at most ``_BATCH_WORDS`` members,
        recorded for the report, and holds the bracket of a larger one in
        its place: its scan is a call of its own anyway, and the chain does
        not hold it."""
        _check_search(self.depth, self.budget)
        # _key records a set of at most _BATCH_WORDS members for the report
        return label, tuple(
            (ms if len(ms) <= _BATCH_WORDS and self._key(ms)
             else self.set_bracket(ms), e) for ms, e in factors), relation

    def report(self, theorem_id: str, links, notes=(),
               **context_extra) -> ChainReport:
        """The report of ``links``, specs resolved after one batched call
        and ready :class:`ChainLink`s, in the context of this search and
        ``context_extra``."""
        self._settle(self._keys.values())

        def resolve(label, parts, relation):
            parts = [(x if isinstance(x, RadiusBracket)
                      else self.set_bracket(x), e) for x, e in parts]
            return ChainLink(label, _bracket_product(parts, self.depth,
                                                     self.norm), relation)

        links = [link if isinstance(link, ChainLink) else resolve(*link)
                 for link in links]
        context = {"depth": self.depth, "norm": self.norm, "tol": DEFAULT_TOL,
                   "word_budget": self.budget, "member_cap": MEMBER_CAP,
                   **context_extra}
        return _report(theorem_id, links, context, notes)


def assess(links):
    """Compute (verdict, margins) for an ordered list of links.

    The links up to each one marked ``end`` form a segment.  Within a
    segment every ordered pair must satisfy the transitive ``<=``, which
    each link checks against the smallest upper end after it; adjacent
    equality links must additionally overlap (or be declared indeterminate
    when their widths exceed the gap).
    """
    links = list(links)
    later_hi = [link.bracket.hi for link in links]  # suffix minima
    for i in range(len(links) - 2, -1, -1):
        if links[i].relation_to_next != END:
            later_hi[i] = min(later_hi[i], later_hi[i + 1])
    violated = indeterminate = False
    margins = []
    for i, (link, nxt) in enumerate(zip(links, links[1:])):
        rel, a, b = link.relation_to_next, link.bracket, nxt.bracket
        if rel == END:
            continue
        if rel == LEQ:
            margins.append(float(later_hi[i + 1] - a.lo))
        else:  # equality: signed overlap with the next link
            margins.append(float(min(a.hi, b.hi) - max(a.lo, b.lo)))
        violated |= a.lo > later_hi[i + 1] + VERDICT_TOL
        gap = max(a.lo - b.hi, b.lo - a.hi)
        if rel == EQ and gap > VERDICT_TOL:
            if a.width >= gap or b.width >= gap:
                indeterminate = True
            else:
                violated = True
    verdict = (VIOLATED if violated else
               INDETERMINATE if indeterminate else VERIFIED)
    return verdict, tuple(margins)


def _bracket_product(parts, depth: int, norm: str) -> RadiusBracket:
    """Bracket of ``Π x^e`` from (bracket of x, exponent e >= 0) pairs."""
    lo, hi = 1.0, 1.0
    for b, e in parts:
        p = b.powered(e)
        lo *= p.lo
        hi *= p.hi
    return RadiusBracket(min(lo, hi), hi, depth, norm)


def _report(theorem_id: str, links, context: dict,
            notes=()) -> ChainReport:
    verdict, margins = assess(links)
    return ChainReport(theorem_id, tuple(links), verdict, margins,
                       notes=tuple(notes), context=context)


# ---------------------------------------------------------------------------
# single-matrix chains

def _derived_brackets(*mats) -> list[RadiusBracket]:
    """Brackets of matrices derived from validated inputs, in which a
    non-finite entry, the one the bracket's check rejects, is an overflow."""
    try:
        return [spectral_radius_bracket(x) for x in mats]
    except ValueError as exc:
        if str(exc) != _NOT_FINITE:
            raise
        raise ValueError("zhan-chain product overflowed to infinity") from None


def chain_zhan(a, b, beta: float) -> ChainReport:
    """Hadamard-product spectral radius chain for a pair of nonnegative
    matrices, plus the transposed-product branch."""
    a, b = check_matrix(a), check_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch("matrices must share a dimension")
    b_ab, b_ba = _kernel_exponents(beta, "beta")
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN
        ab, ba = a @ b, b @ a
        derived = (a * b, ab, ab * ab, ba * ba, (a * a) @ (b * b), ab * ba)
    r_had, r_ab, sq_ab, sq_ba, r_sq, r_mix = _derived_brackets(*derived)
    links = (
        ChainLink("r(A∘B)", r_had, LEQ),
        ChainLink("r((A∘A)(B∘B))^(1/2)", r_sq.powered(0.5), LEQ),
        ChainLink("r(AB∘AB)^(β/2)·r(BA∘BA)^((1-β)/2)",
                  _bracket_product([(sq_ab, b_ab / 2), (sq_ba, b_ba / 2)],
                                   max(sq_ab.depth, sq_ba.depth),
                                   sq_ba.norm), LEQ),
        ChainLink("r(AB)", r_ab, END),
        ChainLink("r(A∘B)", r_had, LEQ),
        ChainLink("r(AB∘BA)^(1/2)", r_mix.powered(0.5), LEQ),
        ChainLink("r(AB)", r_ab, END),
    )
    return _report("zhan-chain", links, {"beta": beta, "tol": DEFAULT_TOL})


def chain_huang(mats) -> ChainReport:
    """Cyclic-factor refinement of the m-fold Hadamard-mean inequality."""
    mats = [check_matrix(m) for m in mats]
    m = len(mats)
    if m < 1:
        raise ValueError("need at least one matrix")
    for x in mats[1:]:
        if x.shape != mats[0].shape:
            raise DimensionMismatch("matrices must share a dimension")
    w = 1.0 / m
    with np.errstate(over="ignore", invalid="ignore"):
        cyclic = [reduce(np.matmul, mats[j:] + mats[:j]) for j in range(m)]
        means = [reduce(np.multiply, [x ** w for x in xs])
                 for xs in (mats, cyclic)]
    r_mean, r_cyc, r_full = _derived_brackets(*means, cyclic[0])
    links = (
        ChainLink("r(A1^(1/m)∘…∘Am^(1/m))", r_mean, LEQ),
        ChainLink("r(P1^(1/m)∘…∘Pm^(1/m))^(1/m)", r_cyc.powered(w), LEQ),
        ChainLink("r(A1⋯Am)^(1/m)", r_full.powered(w), END),
    )
    return _report("zhan-chain", links, {"m": m, "tol": DEFAULT_TOL})


# ---------------------------------------------------------------------------
# set chains

def chain_powers(sets, w: WeightVector, n: int,
                 depth: int = DEFAULT_CHAIN_DEPTH, norm: str = ROW_SUM, *,
                 budget: int = DEFAULT_WORD_BUDGET) -> ChainReport:
    """Hadamard-mean vs n-th-power mean vs radius-product chain, plus the
    uniform-weight product branch."""
    sets = list(sets)
    if w.regime != CONVEX:
        raise ValueError("this chain requires convex weights")
    with _Evaluator(depth, norm, budget) as ev:
        names = [s.name or f"Ψ{i + 1}" for i, s in enumerate(sets)]
        m = len(sets)
        mean = set_hadamard_mean(sets, w)
        powered = set_hadamard_mean([set_power(s, n) for s in sets], w)
        umean = set_hadamard_mean(sets, uniform_weights(m))
        prod = _fold(set_product, sets)
        wtxt = ",".join(f"{x:g}" for x in w.weights)
        links = (
            ev.link(f"r(∘-mean({','.join(names)}; {wtxt}))", [(mean, 1.0)],
                    LEQ),
            ev.link(f"r(∘-mean of {n}-th powers)^(1/{n})",
                    [(powered, 1.0 / n)], LEQ),
            ev.link("Π r(Ψi)^αi", list(zip(sets, w.weights)), END),
            ev.link("r(∘-mean uniform)", [(umean, 1.0)], LEQ),
            ev.link(f"r(Ψ1⋯Ψ{m})^(1/{m})", [(prod, 1.0 / m)], END),
        )
    return ev.report("powers", links, n=n, weights=list(w.weights))


def _pair_sets(psi: MatrixSet, sigma: MatrixSet):
    """ΨΣ, ΣΨ, (Ψ∘-sq)(Σ∘-sq), ΨΣ∘-sq and ΣΨ∘-sq, where ``X∘-sq`` is the
    Hadamard mean of ``X`` with itself at weights (1/2, 1/2)."""
    sq = lambda s: set_hadamard_mean([s, s], _HALF)
    ps = set_product(psi, sigma)
    sp = set_product(sigma, psi)
    return ps, sp, set_product(sq(psi), sq(sigma)), sq(ps), sq(sp)


def chain_refin(psi: MatrixSet, sigma: MatrixSet, beta: float,
                depth: int = DEFAULT_CHAIN_DEPTH, norm: str = ROW_SUM, *,
                budget: int = DEFAULT_WORD_BUDGET) -> ChainReport:
    """Pairwise refinement chains with the links proven equal marked "="."""
    b_ps, b_sp = _kernel_exponents(beta, "beta")
    with _Evaluator(depth, norm, budget) as ev:
        ps, sp, prod_means, mean_ps_ps, mean_sp_sp = _pair_sets(psi, sigma)
        mean_psig = set_hadamard_mean([psi, sigma], _HALF)
        mean_ps_sp = set_hadamard_mean([ps, sp], _HALF)
        links = (
            # first chain, scaled to the r(ΨΣ) level (exponent 2 on every link)
            ev.link("r(Ψ^(1/2)∘Σ^(1/2))²", [(mean_psig, 2.0)], LEQ),
            ev.link("r((ΨΣ)^(1/2)∘(ΣΨ)^(1/2))", [(mean_ps_sp, 1.0)],
                    LEQ),
            ev.link("r(ΨΣ∘-sq)^(1/2)·r(ΣΨ∘-sq)^(1/2)",
                    [(mean_ps_ps, 0.5), (mean_sp_sp, 0.5)], EQ),
            ev.link("r(ΨΣ)", [(ps, 1.0)], END),
            # second chain with the equality upgrades
            ev.link("r(Ψ^(1/2)∘Σ^(1/2))²", [(mean_psig, 2.0)], LEQ),
            ev.link("r((Ψ∘-sq)(Σ∘-sq))", [(prod_means, 1.0)], EQ),
            ev.link("r(ΨΣ∘-sq)^β·r(ΣΨ∘-sq)^(1-β)",
                    [(mean_ps_ps, b_ps), (mean_sp_sp, b_sp)], EQ),
            ev.link("r(ΨΣ)", [(ps, 1.0)], END),
        )
    return ev.report("refin", links, beta=beta)


def chain_folge(psi: MatrixSet, t: float, n: int,
                depth: int = DEFAULT_CHAIN_DEPTH, norm: str = ROW_SUM, *,
                budget: int = DEFAULT_WORD_BUDGET) -> ChainReport:
    """Entrywise-power chain ``r(Ψ^(t)) <= r((Ψ^n)^(t))^(1/n) <= r(Ψ)^t``
    for t >= 1."""
    if t < 1:
        raise ValueError("t must be >= 1")
    with _Evaluator(depth, norm, budget) as ev:
        links = (
            ev.link(f"r(Ψ^({t:g}))", [(set_hadamard_power(psi, t), 1.0)],
                    LEQ),
            ev.link(f"r((Ψ^{n})^({t:g}))^(1/{n})",
                    [(set_hadamard_power(set_power(psi, n), t), 1.0 / n)],
                    LEQ),
            ev.link(f"r(Ψ)^{t:g}", [(psi, t)], END),
        )
    return ev.report("folge", links, t=t, n=n)


def chain_kathyprop_eq(psi: MatrixSet, sigma: MatrixSet, w: WeightVector,
                       beta: float, depth: int = DEFAULT_CHAIN_DEPTH,
                       norm: str = ROW_SUM, *,
                       budget: int = DEFAULT_WORD_BUDGET) -> ChainReport:
    """Equality chains: the self-mean equality and the pairwise-product
    equality chain."""
    if w.regime != CONVEX:
        raise ValueError("the self-mean equality requires convex weights")
    b_ps, b_sp = _kernel_exponents(beta, "beta")
    with _Evaluator(depth, norm, budget) as ev:
        self_mean = set_hadamard_mean([psi] * len(w), w)
        ps, _, prod_means, mean_ps_ps, mean_sp_sp = _pair_sets(psi, sigma)
        links = (
            ev.link("r(Ψ)", [(psi, 1.0)], EQ),
            ev.link("r(Ψ^(α1)∘…∘Ψ^(αm))", [(self_mean, 1.0)], END),
            ev.link("r(ΨΣ)", [(ps, 1.0)], EQ),
            ev.link("r((Ψ∘-sq)(Σ∘-sq))", [(prod_means, 1.0)], EQ),
            ev.link("r(ΨΣ∘-sq)^β·r(ΣΨ∘-sq)^(1-β)",
                    [(mean_ps_ps, b_ps), (mean_sp_sp, b_sp)], END),
        )
    return ev.report("kathyprop-eq", links, beta=beta,
                     weights=list(w.weights))


def chain_kathyprop_mat(psi: MatrixSet, m: int, alpha: float, n: int,
                        depth: int = DEFAULT_CHAIN_DEPTH,
                        norm: str = ROW_SUM, *,
                        budget: int = DEFAULT_WORD_BUDGET) -> ChainReport:
    """Matrix-mode chains for integer and real entrywise powers."""
    if m < 1 or alpha < 1:
        raise ValueError("need m >= 1 and alpha >= 1")
    with _Evaluator(depth, norm, budget) as ev:
        ones = WeightVector((1.0,) * m, SUPER)
        psin = set_power(psi, n)
        links = [
            ev.link(f"r(Ψ^({m}))", [(set_hadamard_power(psi, float(m)), 1.0)],
                    LEQ),
            ev.link(f"r(Ψ∘⋯∘Ψ [{m}×])",
                    [(set_hadamard_mean([psi] * m, ones), 1.0)], LEQ),
            ev.link(f"r(Ψ^{n}∘⋯∘Ψ^{n})^(1/{n})",
                    [(set_hadamard_mean([psin] * m, ones), 1.0 / n)], LEQ),
            ev.link(f"r(Ψ)^{m}", [(psi, float(m))], END),
        ]
        notes = []
        if alpha > 1:
            wa = WeightVector((alpha - 1.0, 1.0), SUPER)
            links += [
                ev.link(f"r(Ψ^({alpha:g}))",
                        [(set_hadamard_power(psi, alpha), 1.0)], LEQ),
                ev.link(f"r(Ψ^({alpha - 1:g})∘Ψ)",
                        [(set_hadamard_mean([psi, psi], wa), 1.0)], LEQ),
                ev.link(f"r((Ψ^{n})^({alpha - 1:g})∘Ψ^{n})^(1/{n})",
                        [(set_hadamard_mean([psin, psin], wa), 1.0 / n)], LEQ),
                ev.link(f"r(Ψ)^{alpha:g}", [(psi, alpha)], END),
            ]
        else:
            notes.append("alpha = 1: real-power chain degenerates to identity "
                         "links and is skipped")
    return ev.report("kathyprop-mat", links, notes, m=m, alpha=alpha, n=n)


def _chain_grid(theorem_id, grid, w, n, depth, norm, budget, mode, combine,
                labels):
    """Grid chain whose rows and columns are combined by ``combine``;
    ``labels`` name the four links, ``{n}`` standing for the power."""
    grid = [list(row) for row in grid]
    k, m = len(grid), len(grid[0])
    if any(len(row) != m for row in grid):
        raise DimensionMismatch("grid rows must have equal length")
    if len(w) != m:
        raise DimensionMismatch(f"{m} columns but {len(w)} weights")
    if mode not in ("kernel", "matrix"):
        raise ValueError(f"mode must be 'kernel' or 'matrix', got {mode!r}")
    if mode == "kernel" and w.regime != CONVEX:
        raise ValueError("kernel mode requires convex weights")
    with _Evaluator(depth, norm, budget) as ev:
        lhs = _fold(combine, [set_hadamard_mean(row, w) for row in grid])
        cols = [_fold(combine, [row[j] for row in grid]) for j in range(m)]
        col_mean = set_hadamard_mean(cols, w)
        col_mean_n = set_hadamard_mean([set_power(c, n) for c in cols], w)
        links = (
            ev.link(labels[0], [(lhs, 1.0)], LEQ),
            ev.link(labels[1], [(col_mean, 1.0)], LEQ),
            ev.link(labels[2].format(n=n), [(col_mean_n, 1.0 / n)], LEQ),
            ev.link(labels[3], list(zip(cols, w.weights)), END),
        )
    return ev.report(theorem_id, links, k=k, m=m, n=n, mode=mode,
                     weights=list(w.weights))


def chain_finally(grid, w: WeightVector, n: int,
                  depth: int = DEFAULT_CHAIN_DEPTH, norm: str = ROW_SUM, *,
                  budget: int = DEFAULT_WORD_BUDGET,
                  mode: str = "kernel") -> ChainReport:
    """Grid chain with ordinary products across rows."""
    return _chain_grid("finally", grid, w, n, depth, norm, budget, mode,
                       set_product,
                       ("r(⋯-combined row means)",
                        "r(∘-mean of column combinations)",
                        "r(∘-mean of {n}-th powers)^(1/{n})",
                        "Π r(column)^αj"))


def chain_finally2(grid, w: WeightVector, n: int,
                   depth: int = DEFAULT_CHAIN_DEPTH, norm: str = ROW_SUM, *,
                   budget: int = DEFAULT_WORD_BUDGET,
                   mode: str = "kernel") -> ChainReport:
    """Grid chain with sums across rows."""
    return _chain_grid("finally2", grid, w, n, depth, norm, budget, mode,
                       set_sum,
                       ("r(sum of row means)", "r(∘-mean of column sums)",
                        "r(∘-mean of {n}-th powers of column sums)^(1/{n})",
                        "Π r(column sum)^αj"))


def chain_kathyth1(sets, n: int, depth: int = DEFAULT_CHAIN_DEPTH,
                   norm: str = ROW_SUM, *,
                   budget: int = DEFAULT_WORD_BUDGET) -> ChainReport:
    """Cyclic-factor refinement at the set level, uniform weights 1/m."""
    sets = list(sets)
    m = len(sets)
    with _Evaluator(depth, norm, budget) as ev:
        w = uniform_weights(m)
        phis = [cyclic_factor(sets, j) for j in range(1, m + 1)]
        links = (
            ev.link("r(∘-mean of Ψj)", [(set_hadamard_mean(sets, w), 1.0)],
                    LEQ),
            ev.link(f"r(∘-mean of Φj)^(1/{m})",
                    [(set_hadamard_mean(phis, w), 1.0 / m)], LEQ),
            ev.link(f"r(∘-mean of Φj^{n})^(1/{n * m})",
                    [(set_hadamard_mean([set_power(p, n) for p in phis], w),
                      1.0 / (n * m))], LEQ),
            ev.link(f"r(Ψ1⋯Ψ{m})^(1/{m})", [(phis[0], 1.0 / m)], END),
        )
    return ev.report("kathyth1", links, m=m, n=n)


def chain_equalities_joint(sets, w: WeightVector, beta: float,
                           depth: int = DEFAULT_CHAIN_DEPTH,
                           norm: str = ROW_SUM, *,
                           budget: int = DEFAULT_WORD_BUDGET) -> ChainReport:
    """Three-member equality chain through split entrywise powers."""
    sets = list(sets)
    m = len(sets)
    if w.regime != CONVEX or len(w) != m:
        raise ValueError("need convex weights, one per set")
    exponents = _kernel_exponents(beta, "beta")
    with _Evaluator(depth, norm, budget) as ev:
        split = lambda s: _pair_mean(s, s, *exponents)
        prod = _fold(set_product, sets)
        split_prod = _fold(set_product, [split(s) for s in sets])
        phis = [cyclic_factor(sets, j) for j in range(1, m + 1)]
        links = (
            ev.link(f"r(Ψ1⋯Ψ{m})", [(prod, 1.0)], EQ),
            ev.link("r(Π (Ψj^(β)∘Ψj^(1-β)))", [(split_prod, 1.0)], EQ),
            ev.link("Π r(Φj^(β)∘Φj^(1-β))^αj",
                    [(split(p), a) for p, a in zip(phis, w.weights)], END),
        )
    return ev.report("equalities-joint", links, beta=beta, m=m,
                     weights=list(w.weights))


def chain_kathyth2(sets, alpha: float, n: int,
                   depth: int = DEFAULT_CHAIN_DEPTH, norm: str = ROW_SUM, *,
                   budget: int = DEFAULT_WORD_BUDGET) -> ChainReport:
    """Matrix-mode cyclic chains for entrywise power alpha >= 1/m; the
    alpha >= 1 branches are skipped (with a note) otherwise."""
    sets = list(sets)
    m = len(sets)
    if alpha < 1.0 / m:
        raise ValueError(f"alpha must be >= 1/m = {1.0 / m}")
    with _Evaluator(depth, norm, budget) as ev:
        wa = WeightVector((alpha,) * m, SUPER)
        phis = [cyclic_factor(sets, j) for j in range(1, m + 1)]
        phis_n = [set_power(p, n) for p in phis]
        prod = phis[0]
        pow_sets = [set_hadamard_power(s, alpha * m) for s in sets]
        prod_n = set_power(prod, n)
        lhs = ev.link("r(Ψ1^(α)∘⋯∘Ψm^(α))",
                      [(set_hadamard_mean(sets, wa), 1.0)], LEQ)
        end = ev.link(f"r(Ψ1⋯Ψm)^{alpha:g}", [(prod, alpha)], END)
        # entrywise-power product route, also the tail of the cyclic-power one
        power_route = [
            ev.link(f"r(Ψ1^(αm)⋯Ψm^(αm))^(1/{m})",
                    [(_fold(set_product, pow_sets), 1.0 / m)], LEQ),
            ev.link(f"r((Ψ1⋯Ψm)^(αm))^(1/{m})",
                    [(set_hadamard_power(prod, alpha * m), 1.0 / m)], LEQ),
            ev.link(f"r(((Ψ1⋯Ψm)^{n})^(αm))^(1/{n * m})",
                    [(set_hadamard_power(prod_n, alpha * m), 1.0 / (n * m))],
                    LEQ),
            end,
        ]
        mean_phis = ev.link(f"r(Φ1^(α)∘⋯)^(1/{m})",
                            [(set_hadamard_mean(phis, wa), 1.0 / m)], LEQ)
        mean_phis_n = ev.link(f"r((Φj^{n})^(α) ∘-mean)^(1/{m * n})",
                              [(set_hadamard_mean(phis_n, wa), 1.0 / (m * n))],
                              LEQ)
        links = [lhs, mean_phis, mean_phis_n, end, lhs, *power_route]
        notes = []
        if alpha >= 1.0:
            sigmas = [cyclic_factor(pow_sets, j) for j in range(1, m + 1)]
            um = uniform_weights(m)
            links += [
                lhs,
                (f"r(∘-mean of Φj^(α))^(1/{m})", mean_phis[1], LEQ),
                (f"r(∘-mean of (Φj^{n})^(α))^(1/{m * n})", mean_phis_n[1],
                 LEQ),
                ev.link(f"(Π r((Φj^{n})^({m})))^(α/{m * m * n})",
                        [(set_hadamard_power(p, float(m)),
                          alpha / (m * m * n)) for p in phis_n], LEQ),
                end,
                lhs,
                ev.link(f"r(∘-mean of Σj^(1/{m}))^(1/{m})",
                        [(set_hadamard_mean(sigmas, um), 1.0 / m)], LEQ),
                ev.link(f"r(∘-mean of (Σj^{n})^(1/{m}))^(1/{m * n})",
                        [(set_hadamard_mean([set_power(s, n) for s in sigmas],
                                            um), 1.0 / (m * n))], LEQ),
                *power_route,
            ]
        else:
            notes.append("skipped: hypothesis alpha >= 1 not met for the "
                         "diagonal-power and cyclic-power branches")
    return ev.report("kathyth2", links, notes, alpha=alpha, m=m, n=n)


def chain_geom_sym(sets, alpha: float, n: int,
                   depth: int = DEFAULT_CHAIN_DEPTH, norm: str = ROW_SUM, *,
                   budget: int = DEFAULT_WORD_BUDGET,
                   ab: tuple[float, float] | None = None) -> ChainReport:
    """Geometric-symmetrization product and sum chains; ``ab`` switches to
    the weighted (alpha, beta) matrix-mode variant."""
    sets = list(sets)
    m = len(sets)
    a, b = _kernel_exponents(alpha) if ab is None else ab
    sym = lambda s: symmetrize_ab(s, a, b)
    # F^(a) ∘ (G*)^(b), a zero exponent dropping its factor
    mix = lambda f, g: _pair_mean(f, set_adjoint(g), a, b)
    with _Evaluator(depth, norm, budget) as ev:
        fwd = _fold(set_product, sets)
        bwd = _fold(set_product, sets[::-1])
        syms = [sym(s) for s in sets]
        sym_prod = _fold(set_product, syms)
        total = _fold(set_sum, sets)
        sym_sum = _fold(set_sum, syms)
        links = (
            ev.link("r(S(Ψ1)⋯S(Ψm))", [(sym_prod, 1.0)], LEQ),
            ev.link("r((Ψ1⋯Ψm)^(α)∘((Ψm⋯Ψ1)*)^(β))", [(mix(fwd, bwd), 1.0)],
                    LEQ),
            ev.link(f"r(n-th power mix)^(1/{n})",
                    [(mix(set_power(fwd, n), set_power(bwd, n)), 1.0 / n)],
                    LEQ),
            ev.link("r(Ψ1⋯Ψm)^α·r(Ψm⋯Ψ1)^β", [(fwd, a), (bwd, b)], END),
            ev.link("r(S(Ψ1)+⋯+S(Ψm))", [(sym_sum, 1.0)], LEQ),
            ev.link("r(S(Ψ1+⋯+Ψm))", [(sym(total), 1.0)], LEQ),
            ev.link(f"r(S((Ψ1+⋯+Ψm)^{n}))^(1/{n})",
                    [(sym(set_power(total, n)), 1.0 / n)], LEQ),
            ev.link("r(Ψ1+⋯+Ψm)^(α+β)", [(total, a + b)], END),
        )
    return ev.report("geom-sym" if ab is None else "geom-sym-mat", links,
                     alpha=a, beta=b, m=m, n=n)


def chain_sym_mono(psi: MatrixSet, alpha: float, n_max: int,
                   depth: int = DEFAULT_CHAIN_DEPTH, norm: str = ROW_SUM, *,
                   budget: int = DEFAULT_WORD_BUDGET,
                   ab: tuple[float, float] | None = None) -> ChainReport:
    """Monotone symmetrization sequence chain
    ``r_0 <= r_1 <= ... <= r_n <= r(Ψ)^(α+β)``."""
    a, b = _kernel_exponents(alpha) if ab is None else ab
    with _Evaluator(depth, norm, budget) as ev:
        seq = symmetrization_sequence_ab(psi, a, b, n_max, depth, norm,
                                         word_budget=budget)
        links = [ChainLink(f"r_{n} = r(S(Ψ^{2 ** n}))^(1/{2 ** n})", bracket,
                           LEQ) for n, bracket in seq.levels]
        links.append(ev.link(f"r(Ψ)^{a + b:g}", [(psi, a + b)], END))
    return ev.report("sym-mono" if ab is None else "sym-mat", links,
                     alpha=a, beta=b, n_max=n_max)


def _run_zhan(p) -> ChainReport:
    _check_search(p.kw["depth"], p.kw["budget"])
    mats = [m for s in p.sets for m in s]
    if len(mats) < 2:
        mats = mats * 2
    pair = chain_zhan(mats[0], mats[1], p.beta)
    trio = chain_huang(mats[:3])
    return _report("zhan-chain", pair.links + trio.links, pair.context)


# theorem id -> the chain run on the arguments ``p`` of run_theorem, shaped
# to the chain's arity; THEOREM_IDS keeps this order
_THEOREMS = {
    "zhan-chain": _run_zhan,
    "powers": lambda p: chain_powers(p.sets, p.wvec(len(p.sets)), p.n,
                                     **p.kw),
    "refin": lambda p: chain_refin(p.two[0], p.two[1], p.beta, **p.kw),
    "folge": lambda p: chain_folge(p.sets[0], max(p.alpha, 1.0), p.n,
                                   **p.kw),
    "kathyprop-eq": lambda p: chain_kathyprop_eq(p.two[0], p.two[1],
                                                 p.wvec(2), p.beta, **p.kw),
    "kathyprop-mat": lambda p: chain_kathyprop_mat(
        p.sets[0], 2, max(p.alpha, 1.0), p.n, **p.kw),
    "finally": lambda p: chain_finally([p.sets, p.sets[::-1]],
                                       p.wvec(len(p.sets)), p.n, **p.kw),
    "kathyth1": lambda p: chain_kathyth1(p.sets, p.n, **p.kw),
    "equalities-joint": lambda p: chain_equalities_joint(
        p.sets, p.wvec(len(p.sets)), p.beta, **p.kw),
    "kathyth2": lambda p: chain_kathyth2(
        p.sets, max(p.alpha, 1.0 / len(p.sets)), p.n, **p.kw),
    "finally2": lambda p: chain_finally2([p.sets, p.sets[::-1]],
                                         p.wvec(len(p.sets)), p.n, **p.kw),
    "sym-mono": lambda p: chain_sym_mono(
        p.sets[0], min(max(p.alpha, 0.0), 1.0), p.levels, **p.kw),
    "geom-sym": lambda p: chain_geom_sym(
        p.sets, min(max(p.alpha, 0.0), 1.0), p.n, **p.kw),
    "sym-mat": lambda p: chain_sym_mono(p.sets[0], p.alpha, p.levels,
                                        ab=(p.alpha, p.alpha2), **p.kw),
    "geom-sym-mat": lambda p: chain_geom_sym(p.sets, p.alpha, p.n,
                                             ab=(p.alpha, p.alpha2), **p.kw),
}

THEOREM_IDS = tuple(_THEOREMS)


def run_theorem(theorem_id: str, sets, *, depth: int = DEFAULT_CHAIN_DEPTH,
                norm: str = ROW_SUM, alpha: float = 1.0,
                alpha2: float = 1.0, beta: float = 0.5, n: int = 2,
                levels: int = 3, weights=None,
                budget: int = DEFAULT_WORD_BUDGET) -> ChainReport:
    """Run a chain by id on the sets of an instance, adapting the instance
    shape to the chain's arity (reusing the last set when a chain needs
    more sets than the instance provides)."""
    if theorem_id not in _THEOREMS:
        raise KeyError(f"unknown theorem id: {theorem_id!r}")
    sets = list(sets)
    if not sets:
        raise ValueError("instance has no sets")

    def wvec(m):
        if weights is not None:
            return WeightVector(tuple(weights))
        return uniform_weights(m)

    two = sets if len(sets) >= 2 else [sets[0], sets[0]]
    return _THEOREMS[theorem_id](SimpleNamespace(
        sets=sets, two=two, wvec=wvec, alpha=alpha, alpha2=alpha2, beta=beta,
        n=n, levels=levels,
        kw=dict(depth=depth, norm=norm, budget=budget)))


def scalar_mitr_check(vectors, exponents, *, tol: float = 1e-12) -> bool:
    """Componentwise check of the sum-of-weighted-geometric-means
    inequality for a k x m grid of nonnegative vectors with exponent sum
    >= 1."""
    e = np.asarray(exponents, dtype=float)
    if np.any(e < 0):
        raise ValueError("exponents must be nonnegative")
    if e.sum() < 1.0 - 1e-12:
        raise ValueError("exponent sum must be >= 1")
    grid = np.asarray(vectors, dtype=float)
    if grid.ndim != 3:
        raise DimensionMismatch(
            "expected a k x m grid of equal-length vectors")
    if np.any(grid < 0) or not np.all(np.isfinite(grid)):
        raise ValueError("vectors must be finite and nonnegative")
    k, m, _ = grid.shape
    if m != e.size:
        raise DimensionMismatch(f"{m} columns but {e.size} exponents")
    lhs = (grid ** e[None, :, None]).prod(axis=1).sum(axis=0)
    rhs = (grid.sum(axis=0) ** e[:, None]).prod(axis=0)
    return bool(np.all(lhs <= rhs + tol * np.maximum(1.0, rhs)))
