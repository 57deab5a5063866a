"""Closed-form load baselines, the first-layer lower bound, and comparison sweeps.

All arithmetic is exact: memory sizes, split points and loads are
``fractions.Fraction`` throughout (the grid search scans exact integer
numerator/denominator pairs), with floats only ever produced by callers for
display.  Non-lattice memory ratios are handled by memory sharing, i.e.
the lower convex envelope of the lattice loads (linear interpolation between
adjacent lattice points); ratios that exceed 1 inside a split term clamp to 1,
meaning that subsystem caches everything and contributes zero load.

Two single-layer rates are provided: ``r_c``, the centralized scheme with
memory sharing, and ``r_d``, the decentralized scheme in whose terms KNMD
state their two-subsystem loads.  ``knmd_loads`` takes either through its
``rate`` parameter; ``r_c`` stays the default, and it is what ``compare``,
``search_min_r1`` and ``wwcy_loads`` use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

from .hierarchy import grouping_params, hybrid_params
from .pda import _mn_params, _refuse_huge_f

Rational = Union[int, str, float, Fraction]
Rate = Callable[[Rational, int], Fraction]


def _fraction(value: Rational) -> Fraction:
    """Exact conversion; floats go through their shortest decimal repr so that
    a literal like 2.4 means 12/5, not its binary approximation.  Text with over
    100 digits, or 2 in its exponent, is refused: Fraction("1e-N") builds 10**N."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        mantissa, _, exponent = value.lower().partition("e")
        if sum(map(str.isdigit, mantissa)) > 100 or sum(map(str.isdigit, exponent)) > 2:
            raise ValueError(f"{value!r} has more than 100 digits, or more than 2 in its exponent")
    return Fraction(value)


@dataclass(frozen=True)
class SystemParams:
    """A (K1, K2; M1, M2; N) two-layer caching system."""

    k1: int
    k2: int
    n_files: int
    m1: Fraction
    m2: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "m1", _fraction(self.m1))
        object.__setattr__(self, "m2", _fraction(self.m2))
        if self.k1 < 1 or self.k2 < 1 or self.n_files < 1:
            raise ValueError("K1, K2 and N must be positive")
        if not 0 <= self.m1 <= self.n_files or not 0 <= self.m2 <= self.n_files:
            raise ValueError("memory sizes must lie in [0, N]")


@dataclass(frozen=True)
class SplitPoint:
    """File/memory split (alpha, beta) between the two subsystems."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _fraction(self.alpha))
        object.__setattr__(self, "beta", _fraction(self.beta))
        if not 0 <= self.alpha <= 1 or not 0 <= self.beta <= 1:
            raise ValueError("alpha and beta must lie in [0, 1]")


def _rc_terms(num: int, den: int, k: int) -> tuple[int, int]:
    """``r_c(num/den, k)`` as an unreduced (numerator, denominator) pair.

    ``num >= den`` is a full cache, load (0, 1); otherwise 0 <= num < den.
    """
    if num >= den:
        return 0, 1
    t0, rem = divmod(num * k, den)
    if rem == 0:
        return k - t0, t0 + 1
    # (1 - lam)*lo + lam*hi with lam = rem/den, over one common denominator
    return (
        (den - rem) * (k - t0) * (t0 + 2) + rem * (k - t0 - 1) * (t0 + 1),
        den * (t0 + 1) * (t0 + 2),
    )


def _rate_ratio(m_ratio: Rational, k: int) -> Fraction:
    """``m_ratio`` as a Fraction, once it lies in [0, 1] and k is positive."""
    m = _fraction(m_ratio)
    if k < 1:
        raise ValueError("k must be positive")
    if not 0 <= m <= 1:
        raise ValueError(f"memory ratio {m} outside [0, 1]")
    return m


def r_c(m_ratio: Rational, k: int) -> Fraction:
    """Single-layer coded-caching load at memory ratio m for k users.

    Exactly K(1-m)/(1+Km) at the lattice points m = t/k; linear interpolation
    (memory sharing) between adjacent lattice points elsewhere.
    """
    m = _rate_ratio(m_ratio, k)
    return Fraction(*_rc_terms(m.numerator, m.denominator, k))


def r_d(m_ratio: Rational, k: int) -> Fraction:
    """Single-layer decentralized coded-caching load at memory ratio m for k users.

    Exactly (1/m - 1)(1 - (1-m)^k) for 0 < m <= 1, and its m -> 0 limit k at
    m = 0 (Maddah-Ali and Niesen, arXiv:1301.5848, the rate r(m, K) in which
    Karamchandani et al., arXiv:1403.7007, state the KNMD loads).
    """
    m = _rate_ratio(m_ratio, k)
    if m == 0:
        return Fraction(k)
    return (1 / m - 1) * (1 - (1 - m) ** k)


def _clamped(rate: Rate, memory: Fraction, content: Fraction, k: int) -> Fraction:
    """rate(memory/content, k) with ratios above 1 clamped to a full cache."""
    ratio = memory / content
    if ratio > 1:
        ratio = Fraction(1)
    return rate(ratio, k)


def _tail(p: SystemParams, s: SplitPoint, rate: Rate, k: int) -> Fraction:
    """The second subsystem's term (1-a)*r((1-b)M2/((1-a)N), k), which every
    load below ends with; zero at a = 1, its clamped limit."""
    if s.alpha == 1:
        return Fraction(0)
    return (1 - s.alpha) * _clamped(rate, (1 - s.beta) * p.m2, (1 - s.alpha) * p.n_files, k)


def _r2(p: SystemParams, s: SplitPoint, rate: Rate = r_c) -> Fraction:
    """Second-layer load both baselines share:
    R2 = a*r(b*M2/(aN), K2) + (1-a)*r((1-b)M2/((1-a)N), K2)."""
    a = s.alpha
    head = a * _clamped(rate, s.beta * p.m2, a * p.n_files, p.k2) if a else 0
    return head + _tail(p, s, rate, p.k2)


def knmd_loads(
    p: SystemParams, s: SplitPoint, rate: Rate = r_c
) -> tuple[Fraction, Fraction]:
    """Two-subsystem baseline that rebuilds whole files at each layer.

    R1 = a*K2*r(M1/(aN), K1) + (1-a)*r((1-b)M2/((1-a)N), K1K2)
    R2 = a*r(b*M2/(aN), K2)  + (1-a)*r((1-b)M2/((1-a)N), K2)
    with a weight of zero killing its term (the clamped limit).  The
    single-layer rate r is ``rate``: the centralized ``r_c`` by default, as
    ``compare`` and ``search_min_r1`` use it, or KNMD's own decentralized ``r_d``.
    """
    a = s.alpha
    head = a * p.k2 * _clamped(rate, p.m1, a * p.n_files, p.k1) if a else 0
    return head + _tail(p, s, rate, p.k1 * p.k2), _r2(p, s, rate)


def wwcy_loads(p: SystemParams, s: SplitPoint) -> tuple[Fraction, Fraction]:
    """Improved baseline concatenating the two layers' schemes.

    Shares KNMD's R2; its first-layer term multiplies the two layers' loads:
    R1 = a*r_c(M1/(aN), K1)*r_c(b*M2/(aN), K2) + (1-a)*r_c((1-b)M2/((1-a)N), K1K2).
    """
    a, an = s.alpha, s.alpha * p.n_files
    head = a * _clamped(r_c, p.m1, an, p.k1) * _clamped(r_c, s.beta * p.m2, an, p.k2) if a else 0
    return head + _tail(p, s, r_c, p.k1 * p.k2), _r2(p, s)


_FORMULAS = ("knmd", "wwcy")
_GRID_STEP = Fraction(1, 100)
# Points per grid axis, i.e. a grid step of at least 1/10,000.
_MAX_GRID_AXIS = 10_001


def search_min_r1(
    formula: str, p: SystemParams, grid_step: Rational = _GRID_STEP
) -> tuple[SplitPoint, Fraction, Fraction]:
    """Grid search over alpha, beta in {0, step, ..., 1}.

    Returns the grid point minimizing R1; ties break by smaller R2, then by
    lexicographic (alpha, beta).  With q the step's denominator, every grid
    value is an integer over q, so R1 and R2 are scanned as exact unreduced
    integer pairs (scaled by q) compared by cross-multiplication, R2 only
    where R1 ties or beats the best so far.  The argmin and its loads become
    Fractions once, from the best point's integers, after the scan.

    At each alpha, R1 and R2 are piecewise linear in beta, so only the beta
    ticks bracketing a breakpoint, and both ends, are evaluated: on each
    linear piece the least (R1, R2, beta) lies at its first or last tick.
    Visited in the same order, they give the exhaustive scan's argmin and
    tie-breaks.  Where those ticks could number as many as the axis (dense
    systems, coarse steps), every tick is evaluated.
    """
    if formula not in _FORMULAS:
        raise ValueError(f"formula must be one of {sorted(_FORMULAS)}, got {formula!r}")
    step = _fraction(grid_step)
    if not 0 < step <= 1:
        raise ValueError(f"grid step {step} outside (0, 1]")
    axis = math.ceil(1 / step) + 1
    if axis > _MAX_GRID_AXIS:
        raise ValueError(
            f"grid step {step} gives {axis} points per axis, more than {_MAX_GRID_AXIS}"
        )
    q, sn, last = step.denominator, step.numerator, axis - 1
    ticks = [i * sn for i in range(last)] + [q]
    k1, k2, n, kk = p.k1, p.k2, p.n_files, p.k1 * p.k2
    m1n, m1d = p.m1.numerator, p.m1.denominator
    m2n, m2d = p.m2.numerator, p.m2.denominator
    wwcy = formula == "wwcy"
    # The best q*R1 and q*R2 pairs and (a, b); +infinity, so the first point is taken.
    best = (1, 0, 1, 0, 0, 0)
    for a in ticks:
        # q*R1 = a*head*mid + (q-a)*tail.  head = r_c(M1/(aN), K1) depends on alpha
        # only; mid is K2 for KNMD and r_c(b*M2/(aN), K2) for WWCY.
        hn, hd = _rc_terms(m1n * q, m1d * a * n, k1) if a else (0, 1)
        # The ticks on either side of each breakpoint of R1 and R2 in b, at tick
        # index x/den: b*M2/(aN) = j/K2 and (q-b)*M2/((q-a)N) = j/(K1K2), and both
        # ends, onto which a cut outside (0, last) would clamp.  With M2 = 0 there is none.
        columns: Iterable[int] = range(axis)
        if 2 * (k2 + kk + 2) < axis:
            den = kk * m2n * sn
            xs = [j * a * n * m2d * k1 for j in range(k2 + 1)]
            xs += [q * kk * m2n - j * (q - a) * n * m2d for j in range(kk + 1)]
            cuts = {i for x in xs for i in (x // den, -(-x // den)) if 0 < i < last} if m2n else ()
            columns = [0, *sorted(cuts), last]
        for b in map(ticks.__getitem__, columns):
            mn, md = _rc_terms(b * m2n, m2d * a * n, k2) if wwcy and a else (k2, 1)
            tn, td = _rc_terms((q - b) * m2n, m2d * (q - a) * n, kk) if a < q else (0, 1)
            num, den = a * hn * mn * td + (q - a) * tn * hd * md, hd * md * td
            lhs, rhs = num * best[1], best[0] * den
            if lhs > rhs:
                continue
            # q*R2 = a*r_c(b*M2/(aN), K2) + (q-a)*r_c((q-b)*M2/((q-a)N), K2): WWCY's
            # mid, then R1's tail over K2 users.
            if a and not wwcy:
                mn, md = _rc_terms(b * m2n, m2d * a * n, k2)
            un, ud = _rc_terms((q - b) * m2n, m2d * (q - a) * n, k2) if a < q else (0, 1)
            r2n, r2d = a * mn * ud + (q - a) * un * md, md * ud
            if lhs < rhs or r2n * best[3] < best[2] * r2d:
                best = (num, den, r2n, r2d, a, b)
    num, den, r2n, r2d, a, b = best
    return SplitPoint(Fraction(a, q), Fraction(b, q)), Fraction(num, den * q), Fraction(r2n, r2d * q)


def lower_bound_r1(p: SystemParams) -> Fraction:
    """Least possible first-layer load under uncoded placement.

    The pooled memory ratio (M1+M2)/N is evaluated against the envelope of the
    lattice bounds (K1K2 - t)/(t + 1), which is exactly ``r_c`` of the pooled
    ratio for K1K2 users.
    """
    pooled = (p.m1 + p.m2) / p.n_files
    if not 0 <= pooled <= 1:
        raise ValueError(f"pooled memory ratio {pooled} outside [0, 1]")
    return r_c(pooled, p.k1 * p.k2)


def optimal_r2(p: SystemParams) -> Fraction:
    """Least possible second-layer load under uncoded placement: r_c(M2/N, K2)."""
    return r_c(p.m2 / p.n_files, p.k2)


@dataclass(frozen=True)
class ComparisonRow:
    """One scheme at one memory point; ``split`` is a search row's argmin (alpha, beta)."""

    scheme: str
    t: int
    m1_ratio: Fraction
    m2_ratio: Fraction
    r1: Fraction | None
    r2: Fraction | None
    f: int | None
    split: SplitPoint | None = None

    @property
    def feasible(self) -> bool:
        """False only on a hybrid-mn row with no matched single-layer arrays."""
        return self.r1 is not None


def compare_sweep(
    k1: int, k2: int, n: int, t_range: Iterable[int], grid_step: Rational | None = None
) -> list[ComparisonRow]:
    """Every row ``compare`` prints: at each t's grouping memory ratios, that
    construction, the hybrid fed matched MN arrays (infeasible if none exist),
    both baselines at alpha = beta = 1 and at their least R1 on the grid of
    ``grid_step`` (``_GRID_STEP`` when None; "-search"), and the per-layer
    optima ("bound"); sorted by (t, scheme), each distinct t once.  Every closed
    form, and so any refusal of a t, comes before the step is read and any search runs.
    """
    whole = SplitPoint(alpha=Fraction(1), beta=Fraction(1))
    rows: list[ComparisonRow] = []
    searches: list[tuple[int, Fraction, Fraction, SystemParams]] = []
    for t in dict.fromkeys(t_range):
        loads, _, _ = grouping_params(k1, k2, t)
        m1r, m2r = loads.m1_ratio, loads.m2_ratio
        params = SystemParams(k1=k1, k2=k2, n_files=n, m1=m1r * n, m2=m2r * n)
        t1, t2 = m1r * k1, m2r * k2
        hybrid = (None, None, None)
        if t1.denominator == 1 and t2.denominator == 1 and 1 <= t1 <= k1 and 1 <= t2 <= k2:
            t1, t2 = int(t1), int(t2)
            _refuse_huge_f("hybrid F", (k1, t1), (k2, t2))
            h = hybrid_params(_mn_params(k1, t1), _mn_params(k2, t2))
            hybrid = (h.r1, h.r2, h.f)
        table = (  # (scheme, r1, r2, f); hybrid-mn has no r1 where it is infeasible
            ("grouping", loads.r1, loads.r2, loads.f),
            ("hybrid-mn", *hybrid),
            ("knmd", *knmd_loads(params, whole), None),
            ("wwcy", *wwcy_loads(params, whole), None),
            ("bound", lower_bound_r1(params), optimal_r2(params), None),
        )
        rows += (ComparisonRow(scheme, t, m1r, m2r, r1, r2, f) for scheme, r1, r2, f in table)
        searches.append((t, m1r, m2r, params))
    step = _fraction(_GRID_STEP if grid_step is None else grid_step)
    for t, m1r, m2r, params in searches:
        for formula in _FORMULAS:
            point, r1, r2 = search_min_r1(formula, params, step)
            rows.append(ComparisonRow(f"{formula}-search", t, m1r, m2r, r1, r2, None, point))
    return sorted(rows, key=lambda row: (row.t, row.scheme))
