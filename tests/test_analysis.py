"""Closed-form baselines, the lower bound, the grid search, and sweeps."""

import dataclasses
import random
from fractions import Fraction
from math import comb, floor

import pytest

import hpda.analysis
from hpda import (
    ComparisonRow,
    SplitPoint,
    SystemParams,
    build_grouping,
    compare_sweep,
    grouping_params,
    hybrid_params,
    knmd_loads,
    loads_from_hpda,
    lower_bound_r1,
    optimal_r2,
    r_c,
    r_d,
    search_min_r1,
    wwcy_loads,
)

EXAMPLE_PARAMS = SystemParams(
    k1=3, k2=2, n_files=6, m1=Fraction(12, 5), m2=Fraction(8, 5)
)


def test_rc_lattice_values():
    assert r_c(0, 5) == 5
    assert r_c(1, 5) == 0
    assert r_c(Fraction(1, 3), 3) == 1
    assert r_c(Fraction(2, 3), 6) == Fraction(2, 5)
    for k in (2, 4, 7):
        for t in range(k + 1):
            assert r_c(Fraction(t, k), k) == Fraction(k - t, t + 1)


def test_rc_interpolates_between_lattice_points():
    # halfway between t=0 (load 2) and t=1 (load 1/2) for two users
    assert r_c(Fraction(1, 4), 2) == Fraction(5, 4)
    # the golden second-layer optimum: m = 4/15, k = 2
    assert r_c(Fraction(4, 15), 2) == Fraction(6, 5)


def test_rc_monotone_nonincreasing():
    k = 6
    samples = [Fraction(i, 60) for i in range(61)]
    values = [r_c(m, k) for m in samples]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_rc_rejects_out_of_range():
    with pytest.raises(ValueError):
        r_c(Fraction(-1, 2), 3)
    with pytest.raises(ValueError):
        r_c(Fraction(3, 2), 3)


def test_rc_accepts_float_via_decimal_repr():
    assert r_c(0.5, 2) == Fraction(1, 2)
    assert r_c(0.4, 3) == r_c(Fraction(2, 5), 3)


def test_rd_values():
    for k in (1, 3, 6):
        assert r_d(0, k) == k
        assert r_d(1, k) == 0
    assert r_d(Fraction(1, 2), 2) == Fraction(3, 4)
    assert r_d(Fraction(4, 9), 6) == Fraction(644770, 531441)
    for m in (0, Fraction(1, 3), 1, 0.5, "2/7"):
        assert type(r_d(m, 4)) is Fraction


def test_rd_rejects_out_of_range():
    with pytest.raises(ValueError):
        r_d(Fraction(-1, 2), 3)
    with pytest.raises(ValueError):
        r_d(Fraction(3, 2), 3)
    with pytest.raises(ValueError):
        r_d(Fraction(1, 2), 0)


def test_knmd_default_rate_is_rc_on_grid():
    p = EXAMPLE_PARAMS
    step = Fraction(1, 10)
    for i in range(11):
        for j in range(11):
            point = SplitPoint(i * step, j * step)
            assert knmd_loads(p, point, rate=r_c) == knmd_loads(p, point)


def test_knmd_with_rd_at_mirror_split():
    # alpha = M1/N fills the mirrors with the alpha-part; beta = 0 leaves M2
    # to the rest, so R1 = (3/5) r_d(4/9, 6) and the users hold none of the
    # alpha-part: R2 = (2/5) r_d(0, 2) + (3/5) r_d(4/9, 2).
    p = EXAMPLE_PARAMS
    r1, r2 = knmd_loads(p, SplitPoint(Fraction(2, 5), 0), rate=r_d)
    assert r1 == Fraction(3, 5) * r_d(Fraction(4, 9), 6) == Fraction(128954, 177147)
    assert r2 == Fraction(2, 5) * 2 + Fraction(3, 5) * r_d(Fraction(4, 9), 2)
    assert type(r1) is Fraction and type(r2) is Fraction


def test_knmd_corners():
    p = EXAMPLE_PARAMS
    r1, r2 = knmd_loads(p, SplitPoint(1, 1))
    assert r1 == 2 * r_c(Fraction(2, 5), 3)
    assert r2 == r_c(Fraction(4, 15), 2)
    r1, r2 = knmd_loads(p, SplitPoint(0, 0))
    assert r1 == r_c(Fraction(4, 15), 6)
    assert r2 == r_c(Fraction(4, 15), 2)


def test_knmd_clamps_oversized_ratio():
    p = EXAMPLE_PARAMS
    # alpha = 1/5 makes M1/(alpha N) = 2 > 1: that subsystem caches all.
    r1, _ = knmd_loads(p, SplitPoint(Fraction(1, 5), 1))
    assert r1 == Fraction(4, 5) * r_c(Fraction(0), 6)


def test_wwcy_corners():
    p = EXAMPLE_PARAMS
    r1, r2 = wwcy_loads(p, SplitPoint(1, 1))
    assert r1 == r_c(Fraction(2, 5), 3) * r_c(Fraction(4, 15), 2)
    assert r2 == r_c(Fraction(4, 15), 2)


def test_wwcy_r2_equals_knmd_r2_on_grid():
    p = EXAMPLE_PARAMS
    step = Fraction(1, 10)
    for i in range(11):
        for j in range(11):
            point = SplitPoint(i * step, j * step)
            assert knmd_loads(p, point)[1] == wwcy_loads(p, point)[1]


def test_wwcy_r1_never_exceeds_knmd_r1():
    p = EXAMPLE_PARAMS
    step = Fraction(1, 10)
    for i in range(11):
        for j in range(11):
            point = SplitPoint(i * step, j * step)
            assert wwcy_loads(p, point)[0] <= knmd_loads(p, point)[0]


def test_search_returns_grid_point_consistent_with_formula():
    point, r1, r2 = search_min_r1("knmd", EXAMPLE_PARAMS, Fraction(1, 20))
    assert (r1, r2) == knmd_loads(EXAMPLE_PARAMS, point)
    assert point.alpha.denominator <= 20 and point.beta.denominator <= 20


def test_search_min_wwcy_le_knmd():
    _, knmd_r1, _ = search_min_r1("knmd", EXAMPLE_PARAMS, Fraction(1, 50))
    _, wwcy_r1, _ = search_min_r1("wwcy", EXAMPLE_PARAMS, Fraction(1, 50))
    assert wwcy_r1 <= knmd_r1


def test_search_grid_step_one_hits_corners():
    point, r1, _ = search_min_r1("knmd", EXAMPLE_PARAMS, 1)
    corner_values = [
        knmd_loads(EXAMPLE_PARAMS, SplitPoint(a, b))[0] for a in (0, 1) for b in (0, 1)
    ]
    assert r1 == min(corner_values)
    assert point.alpha in (0, 1) and point.beta in (0, 1)


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        search_min_r1("unknown", EXAMPLE_PARAMS, Fraction(1, 10))
    with pytest.raises(ValueError):
        search_min_r1("knmd", EXAMPLE_PARAMS, 0)


def test_search_rejects_grid_beyond_bound_before_allocating():
    # 10**12 + 1 points per axis: only the arithmetic pre-check may run.
    with pytest.raises(ValueError, match="1000000000001 points per axis"):
        search_min_r1("knmd", EXAMPLE_PARAMS, Fraction(1, 10**12))
    with pytest.raises(ValueError, match="10002 points per axis"):
        search_min_r1("wwcy", EXAMPLE_PARAMS, Fraction(1, 10001))


def _naive_search(fn, p, step):
    """Every grid point through the Fraction formula, keeping the first
    strictly smaller (R1, R2) in (alpha, beta) lexicographic order."""
    values = []
    i = 0
    while i * step < 1:
        values.append(i * step)
        i += 1
    values.append(Fraction(1))
    best = None
    for a in values:
        for b in values:
            r1, r2 = fn(p, SplitPoint(a, b))
            if best is None or (r1, r2) < best[2:]:
                best = (a, b, r1, r2)
    return best


SEARCH_STEPS = [Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(3, 10), Fraction(1, 7), Fraction(1, 20)]


def _search_systems():
    rng = random.Random(2024)
    for _ in range(16):
        k1, k2, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 9)
        lattice = rng.randint(1, 6)
        m1 = Fraction(rng.randint(0, n * lattice), lattice)
        m2 = Fraction(rng.randint(0, n * lattice), lattice)
        yield SystemParams(k1, k2, n, m1, m2)
    # ties: everything cached (R1 = 0 wherever beta <= alpha) and nothing cached
    # (the same (R1, R2) at every point)
    for k1, k2, n in [(3, 2, 6), (1, 4, 5), (5, 5, 9)]:
        yield SystemParams(k1, k2, n, n, n)
        yield SystemParams(k1, k2, n, 0, 0)
    yield EXAMPLE_PARAMS


def test_search_matches_naive_fraction_loop():
    for p in _search_systems():
        for step in SEARCH_STEPS:
            for formula, fn in (("knmd", knmd_loads), ("wwcy", wwcy_loads)):
                point, r1, r2 = search_min_r1(formula, p, step)
                got = (point.alpha, point.beta, r1, r2)
                assert got == _naive_search(fn, p, step), (formula, p, step)
                assert all(type(v) is Fraction for v in got)


def _bracketing_systems():
    """Systems beyond ``_search_systems``: K1·K2 up to 20, each also with
    M2 = 0 (no breakpoint in beta) and M2 = N."""
    rng = random.Random(15)
    for _ in range(6):
        k1 = rng.randint(1, 5)
        k2, n, lattice = rng.randint(1, 20 // k1), rng.randint(1, 12), rng.randint(1, 7)
        m1 = Fraction(rng.randint(0, n * lattice), lattice)
        for m2 in (Fraction(rng.randint(0, n * lattice), lattice), 0, n):
            yield SystemParams(k1, k2, n, m1, m2)
    yield SystemParams(4, 5, 7, Fraction(10, 3), Fraction(9, 4))


def test_search_over_bracketing_ticks_matches_naive_fraction_loop():
    # Steps with numerators above 1, so the last tick is off the step.  The
    # last one, 2/(2c + 1), is the coarsest with more ticks per axis (c + 2)
    # than the c = 2(K2 + K1K2 + 2) bracketing ticks, so the search visits
    # only the ticks next to a breakpoint.
    for p in _bracketing_systems():
        c = 2 * (p.k2 + p.k1 * p.k2 + 2)
        for step in (Fraction(2, 7), Fraction(3, 10), Fraction(7, 100), Fraction(2, 2 * c + 1)):
            for formula, fn in (("knmd", knmd_loads), ("wwcy", wwcy_loads)):
                point, r1, r2 = search_min_r1(formula, p, step)
                got = (point.alpha, point.beta, r1, r2)
                assert got == _naive_search(fn, p, step), (formula, p, step)


def _visited(monkeypatch, formula, p, step):
    """The search's result and the (a, b) tick numerators at which it evaluated
    R1's tail, i.e. every visited point with alpha < 1.  A tail is the only
    ``_rc_terms`` call for K1·K2 users when K1 and K2 exceed 1 and M2 > 0."""
    q, visited = step.denominator, []
    rc_terms = hpda.analysis._rc_terms

    def recording(num, den, k):
        if k == p.k1 * p.k2:  # ((q - b)*M2, (q - a)*N) over M2's denominator
            visited.append((q - den // (p.m2.denominator * p.n_files), q - num // p.m2.numerator))
        return rc_terms(num, den, k)

    monkeypatch.setattr(hpda.analysis, "_rc_terms", recording)
    result = search_min_r1(formula, p, step)
    monkeypatch.undo()
    return result, visited


def test_search_evaluates_only_ticks_next_to_a_breakpoint(monkeypatch):
    # The example at 1/100: at most a third of the 101 x 101 inner points,
    # with the exhaustive scan's argmin.
    for formula, fn in (("knmd", knmd_loads), ("wwcy", wwcy_loads)):
        (point, r1, r2), visited = _visited(monkeypatch, formula, EXAMPLE_PARAMS, Fraction(1, 100))
        assert len(visited) <= 101 * 101 // 3
        assert (point.alpha, point.beta, r1, r2) == _naive_search(fn, EXAMPLE_PARAMS, Fraction(1, 100))
    # K1 = K2 = 30 has more breakpoints than ticks: every tick, as many as the
    # full scan's 100 x 101 (alpha = 1 has no tail), and no more.
    dense = SystemParams(30, 30, 6, Fraction(12, 5), Fraction(8, 5))
    for formula in ("knmd", "wwcy"):
        _, visited = _visited(monkeypatch, formula, dense, Fraction(1, 100))
        assert len(visited) == 100 * 101


def test_search_visits_each_rows_least_point(monkeypatch):
    # The argument, row by row: at each alpha < 1, the visited betas include
    # that row's least (R1, R2, beta).  These WWCY systems have rows whose
    # least point sits only next to a breakpoint of the middle term (mid
    # cuts, including its clamp at j = K2) or just above a breakpoint.
    step = Fraction(1, 40)
    ticks = [Fraction(i, 40) for i in range(41)]
    cases = [
        ("wwcy", SystemParams(3, 2, 6, Fraction(1, 2), 5)),
        ("wwcy", SystemParams(2, 3, 4, 0, Fraction(10, 3))),
        ("wwcy", EXAMPLE_PARAMS),
        ("knmd", EXAMPLE_PARAMS),
    ]
    for formula, p in cases:
        fn = knmd_loads if formula == "knmd" else wwcy_loads
        _, visited = _visited(monkeypatch, formula, p, step)
        for a in ticks[:-1]:
            least = min((*fn(p, SplitPoint(a, b)), b) for b in ticks)
            assert (a * 40, least[2] * 40) in visited, (formula, p, a)


def test_search_visits_each_rows_ticks_once_in_ascending_order(monkeypatch):
    # The update rule keeps the exhaustive scan's tie-breaks only in the scan's
    # order: alpha by alpha, each beta tick once, ascending.  Both systems have
    # rows with cuts at tick index -1, which clamp to the first tick.
    cases = [(EXAMPLE_PARAMS, Fraction(1, 40)), (SystemParams(4, 5, 7, Fraction(10, 3), Fraction(9, 4)), Fraction(2, 109))]
    for p, step in cases:
        for formula, fn in (("knmd", knmd_loads), ("wwcy", wwcy_loads)):
            (point, r1, r2), visited = _visited(monkeypatch, formula, p, step)
            assert visited == sorted(set(visited)), (formula, p)
            assert (point.alpha, point.beta, r1, r2) == _naive_search(fn, p, step)


def test_search_tie_breaks():
    full = SystemParams(3, 2, 6, 6, 6)
    # R1 = 0 wherever beta <= alpha, but R2 = 0 only on the diagonal: smaller R2
    # wins the R1 tie, then the first diagonal point wins the (R1, R2) tie.
    assert knmd_loads(full, SplitPoint(Fraction(1, 2), Fraction(1, 4))) == (0, Fraction(1, 4))
    assert knmd_loads(full, SplitPoint(Fraction(1, 2), Fraction(1, 2))) == (0, 0)
    assert search_min_r1("knmd", full, Fraction(1, 4)) == (SplitPoint(0, 0), 0, 0)
    # nothing cached: (R1, R2) = (K1*K2, K2) at every point, so (0, 0) wins
    empty = SystemParams(3, 2, 6, 0, 0)
    for formula in ("knmd", "wwcy"):
        assert search_min_r1(formula, empty, Fraction(1, 4)) == (SplitPoint(0, 0), 6, 2)


def test_search_makes_one_split_point_and_no_fraction_r2(monkeypatch):
    # The scan runs on integers: no _r2 call, and one SplitPoint per search,
    # the argmin's, built after it.
    made = []
    post_init = SplitPoint.__post_init__

    def counting(point):
        made.append(point)
        post_init(point)

    def refuse(*args):
        raise AssertionError("_r2 called")

    monkeypatch.setattr(SplitPoint, "__post_init__", counting)
    monkeypatch.setattr(hpda.analysis, "_r2", refuse)
    argmin = SplitPoint(Fraction(47, 100), 0)
    for formula in ("knmd", "wwcy"):
        made.clear()
        result = search_min_r1(formula, EXAMPLE_PARAMS, Fraction(1, 100))
        assert result == (argmin, Fraction(267, 500), Fraction(361, 300))
        assert made == [argmin]


def _rc_reference(m, k):
    scaled = m * k
    t0 = floor(scaled)
    lo = Fraction(k - t0, t0 + 1)
    if scaled == t0:
        return lo
    lam = scaled - t0
    return (1 - lam) * lo + lam * Fraction(k - t0 - 1, t0 + 2)


def test_rc_integer_core_matches_fraction_formula():
    for k in range(1, 9):
        assert r_c(1, k) == 0
        for i in range(38):
            m = Fraction(i, 37)
            assert r_c(m, k) == _rc_reference(m, k)
            assert type(r_c(m, k)) is Fraction


def test_lower_bound_examples():
    assert lower_bound_r1(EXAMPLE_PARAMS) == Fraction(2, 5)
    assert lower_bound_r1(SystemParams(3, 2, 6, 3, 3)) == 0
    assert lower_bound_r1(SystemParams(3, 2, 6, 0, 0)) == 6


def test_lower_bound_rejects_pooled_memory_above_n():
    with pytest.raises(ValueError, match=r"^pooled memory ratio 4/3 outside \[0, 1\]$"):
        lower_bound_r1(SystemParams(3, 2, 6, 4, 4))


def test_lower_bound_matches_grouping_r1_at_lattice():
    for k1, k2 in [(2, 2), (3, 2), (2, 3)]:
        k = k1 * k2
        n = k
        for t in range(k2 + 1, k):
            loads, _, _ = grouping_params(k1, k2, t)
            params = SystemParams(k1, k2, n, loads.m1_ratio * n, loads.m2_ratio * n)
            assert lower_bound_r1(params) == loads.r1


def test_optimal_r2_examples():
    assert optimal_r2(EXAMPLE_PARAMS) == Fraction(6, 5)
    assert optimal_r2(SystemParams(3, 2, 6, 0, 6)) == 0
    assert optimal_r2(SystemParams(3, 2, 6, 0, 0)) == 2


def test_compare_sweep_golden_point():
    rows = compare_sweep(3, 2, 6, [4])
    schemes = ["bound", "grouping", "hybrid-mn", "knmd", "knmd-search", "wwcy", "wwcy-search"]
    assert [r.scheme for r in rows] == schemes  # sorted by (t, scheme)
    by_scheme = {r.scheme: r for r in rows}
    g = by_scheme["grouping"]
    assert (g.r1, g.r2, g.f) == (Fraction(2, 5), Fraction(6, 5), 15)
    assert by_scheme["bound"].r1 == Fraction(2, 5)
    assert by_scheme["bound"].r2 == Fraction(6, 5)
    assert not by_scheme["hybrid-mn"].feasible  # 3*(2/5) is not an integer
    assert all(r.feasible for r in rows if r.scheme != "hybrid-mn")
    assert "feasible" not in {field.name for field in dataclasses.fields(ComparisonRow)}
    assert by_scheme["knmd"].r1 == 2 * r_c(Fraction(2, 5), 3)
    assert by_scheme["wwcy"].r1 == r_c(Fraction(2, 5), 3) * r_c(Fraction(4, 15), 2)
    params = SystemParams(k1=3, k2=2, n_files=6, m1=Fraction(12, 5), m2=Fraction(8, 5))
    for formula in ("knmd", "wwcy"):
        row = by_scheme[f"{formula}-search"]
        assert (row.split, row.r1, row.r2) == search_min_r1(formula, params)
        assert row.f is None and (row.m1_ratio, row.m2_ratio) == (g.m1_ratio, g.m2_ratio)
    assert [r.scheme for r in rows if r.split is not None] == ["knmd-search", "wwcy-search"]


def test_compare_sweep_sorts_rows_by_t_and_scheme():
    rows = compare_sweep(3, 2, 6, [5, 4], grid_step="1/4")
    assert [(r.t, r.scheme) for r in rows] == sorted((r.t, r.scheme) for r in rows)
    assert len(rows) == 14


def test_compare_sweep_feasible_hybrid_row():
    rows = compare_sweep(2, 3, 6, [5])
    hybrid = [r for r in rows if r.scheme == "hybrid-mn"][0]
    assert hybrid.feasible
    assert hybrid.r1 == Fraction(1, 2)
    assert hybrid.r2 == Fraction(1)
    assert hybrid.f == 6
    wwcy = [r for r in rows if r.scheme == "wwcy"][0]
    assert hybrid.r1 == wwcy.r1  # matched single-layer inputs reproduce wwcy


def test_hybrid_mn_loads_factor_into_single_layer_loads():
    """With matched single-layer inputs, R1 is the product of the per-layer
    loads and R2 is the second-layer optimum."""
    for k1, t1, k2, t2 in [(2, 1, 3, 1), (3, 2, 4, 2), (4, 1, 2, 1), (5, 3, 3, 2)]:
        a = (k1, comb(k1, t1), comb(k1 - 1, t1 - 1), comb(k1, t1 + 1))
        b = (k2, comb(k2, t2), comb(k2 - 1, t2 - 1), comb(k2, t2 + 1))
        loads = hybrid_params(a, b)
        assert loads.r1 == r_c(Fraction(t1, k1), k1) * r_c(Fraction(t2, k2), k2)
        params = SystemParams(k1, k2, k1 * k2, loads.m1_ratio * k1 * k2,
                              loads.m2_ratio * k1 * k2)
        assert loads.r2 == optimal_r2(params)
        point = SplitPoint(1, 1)
        assert loads.r1 == wwcy_loads(params, point)[0]


def test_full_scale_sweep_keeps_ordering():
    """The published-figure scale runs in closed form; only ordering asserted."""
    rows = compare_sweep(40, 20, 800, [100, 400, 700])
    by_t = {}
    for r in rows:
        by_t.setdefault(r.t, {})[r.scheme] = r
    for t, schemes in by_t.items():
        g, b = schemes["grouping"], schemes["bound"]
        w, k = schemes["wwcy"], schemes["knmd"]
        assert g.r1 == b.r1 <= w.r1 <= k.r1
        assert g.r2 >= b.r2


def test_compare_sweep_empty_range():
    assert compare_sweep(3, 2, 6, []) == []


def test_compare_sweep_rejects_out_of_range_t():
    with pytest.raises(ValueError):
        compare_sweep(3, 2, 6, [2])


def test_compare_sweep_matches_constructed_loads():
    rows = compare_sweep(3, 2, 6, [4, 5])
    for row in rows:
        if row.scheme != "grouping":
            continue
        measured = loads_from_hpda(build_grouping(3, 2, row.t))
        assert measured.r1 == row.r1
        assert measured.r2 == row.r2


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(k1=0, k2=2, n_files=6, m1=1, m2=1)
    with pytest.raises(ValueError):
        SystemParams(k1=2, k2=2, n_files=6, m1=7, m2=1)
    p = SystemParams(k1=2, k2=2, n_files=6, m1=2.4, m2="8/5")
    assert p.m1 == Fraction(12, 5)
    assert p.m2 == Fraction(8, 5)


def test_split_point_validation():
    with pytest.raises(ValueError):
        SplitPoint(alpha=Fraction(3, 2), beta=0)
    point = SplitPoint(alpha=0.25, beta="1/4")
    assert point.alpha == point.beta == Fraction(1, 4)
