"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Criterion 8 is split into its two halves so each reference value gets
its own verdict line.
"""

import random
from fractions import Fraction
from functools import lru_cache, reduce

import pytest

from hpda import (
    STAR,
    Hpda,
    MirrorPlacement,
    Pda,
    SplitPoint,
    SystemParams,
    build_grouping,
    build_hybrid,
    compare_sweep,
    grouping_params,
    hybrid_params,
    knmd_loads,
    loads_from_hpda,
    lower_bound_r1,
    mn_pda,
    optimal_r2,
    delivery_plan,
    r_d,
    search_min_r1,
    simulate,
    verify_hpda,
    verify_pda,
    worst_case_demand,
)
from hpda.simulation import FileLibrary, mirror_delivery, server_delivery

from reference import inner_sets_disjoint
from test_hpda import GOLDEN_15x9_BLOCKS, GOLDEN_15x9_MIRROR, golden_15x9


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def xor(*packets):
    return reduce(lambda a, b: bytes(x ^ y for x, y in zip(a, b)), packets)


def grouping_cases(max_users: int = 10):
    for k1 in range(2, max_users + 1):
        for k2 in range(1, max_users + 1):
            k = k1 * k2
            if k > max_users:
                continue
            for t in range(k2 + 1, k):
                yield k1, k2, t


@lru_cache(maxsize=1)
def grouping_arrays() -> tuple[tuple[tuple[int, int, int], Hpda], ...]:
    return tuple(((k1, k2, t), build_grouping(k1, k2, t)) for k1, k2, t in grouping_cases())


@lru_cache(maxsize=1)
def hybrid_pairs() -> tuple[tuple[tuple[int, int, int, int], Hpda], ...]:
    rng = random.Random(1405)
    out = []
    for _ in range(50):
        k1 = rng.randint(1, 4)
        t1 = rng.randint(1, k1)
        k2 = rng.randint(1, 4)
        t2 = rng.randint(1, k2)
        out.append(((k1, t1, k2, t2), build_hybrid(mn_pda(k1, t1), mn_pda(k2, t2))))
    return tuple(out)


def test_criterion_01_golden_3x3():
    ok = mn_pda(3, 1).grid == ((STAR, 1, 2), (1, STAR, 3), (2, 3, STAR))
    announce("1", ok, "mn_pda(3,1) equals the golden 3x3 array exactly")
    assert ok


def test_criterion_02_golden_15x9():
    h = build_grouping(3, 2, 4)
    ok = (
        h.mirror.grid == GOLDEN_15x9_MIRROR
        and tuple(b.grid for b in h.blocks) == GOLDEN_15x9_BLOCKS
        and h.s_m == frozenset(range(7, 43))
        and h.s_k[0] == frozenset(range(1, 19))
        and h.s_k[1] == frozenset(range(1, 7)) | frozenset(range(19, 31))
        and h.s_k[2] == frozenset(range(1, 7)) | frozenset(range(31, 43))
    )
    announce("2", ok, "grouping (3,2,4) equals the golden 15x9 array and id sets")
    assert ok


def test_criterion_03_golden_hybrid_blocks():
    h = build_hybrid(mn_pda(2, 1), mn_pda(3, 1))
    b = mn_pda(3, 1)
    shift = lambda arr, a: tuple(  # noqa: E731
        tuple(c if c == STAR else c + a for c in row) for row in arr.grid
    )
    ok = (
        h.blocks[0].grid == shift(b, 3) + b.grid
        and h.blocks[1].grid == b.grid + shift(b, 6)
        and h.s_m == frozenset(range(4, 10))
    )
    announce("3", ok, "hybrid of the 2x2 and 3x3 arrays stacks the shifted copies")
    assert ok


def test_criterion_04_golden_loads_and_signals():
    h = build_grouping(3, 2, 4)
    d = worst_case_demand(3, 2, 6)
    seed = 424242
    result = simulate(h, 6, 32, d, seed=seed)
    lib = FileLibrary.random(6, 15, 32, seed)
    server = server_delivery(h, lib, d)
    mirror1 = mirror_delivery(h, lib, d, 1, server)
    expected_server_1 = xor(
        lib.packet(1, 11), lib.packet(2, 7), lib.packet(3, 4),
        lib.packet(4, 2), lib.packet(5, 1),
    )
    expected_mirror_1 = xor(lib.packet(1, 11), lib.packet(2, 7))
    ok = (
        result.success
        and result.r1 == Fraction(6, 15)
        and result.r2 == Fraction(18, 15)
        and server[0] == (1, expected_server_1)
        and mirror1[0] == (1, expected_mirror_1)
        and result.transcript.server_signals[0][1] == expected_server_1
    )
    announce("4", ok, "measured loads 6/15 and 18/15 with byte-exact id-1 signals")
    assert ok


def test_criterion_05_triple_agreement():
    failures = []
    for (k1, k2, t), h in grouping_arrays():
        formula, _, _ = grouping_params(k1, k2, t)
        scanned = loads_from_hpda(h)
        result = simulate(h, k1 * k2, 8, seed=5)
        if not (
            formula == scanned
            and result.success
            and result.r1 == formula.r1
            and result.r2 == formula.r2
        ):
            failures.append((k1, k2, t))
    ok = not failures
    announce(
        "5",
        ok,
        f"formula = scanned = measured loads on {len(grouping_arrays())} grouping arrays"
        + (f"; failures {failures}" if failures else ""),
    )
    assert ok


def test_criterion_06_hybrid_agreement():
    failures = []
    for (k1, t1, k2, t2), h in hybrid_pairs():
        a, b = mn_pda(k1, t1), mn_pda(k2, t2)
        formula = hybrid_params((a.k, a.f, a.z, a.s), (b.k, b.f, b.z, b.s))
        scanned = loads_from_hpda(h)
        result = simulate(h, max(k1 * k2, 1), 8, seed=6)
        if not (
            verify_hpda(h).valid
            and inner_sets_disjoint(a, b)
            and formula == scanned
            and result.success
            and result.r1 == formula.r1
            and result.r2 == formula.r2
        ):
            failures.append((k1, t1, k2, t2))
    ok = not failures
    announce(
        "6",
        ok,
        "formula = scanned = measured loads, valid and disjoint on 50 seeded hybrid pairs"
        + (f"; failures {failures}" if failures else ""),
    )
    assert ok


def test_criterion_07_lower_bound_equality():
    failures = []
    for k1, k2, t in grouping_cases():
        loads, _, _ = grouping_params(k1, k2, t)
        n = k1 * k2
        params = SystemParams(k1, k2, n, loads.m1_ratio * n, loads.m2_ratio * n)
        if lower_bound_r1(params) != loads.r1:
            failures.append((k1, k2, t))
    ok = not failures
    announce("7", ok, "first-layer bound equals the grouping load at every lattice point")
    assert ok


EXAMPLE_PARAMS = SystemParams(k1=3, k2=2, n_files=6, m1=Fraction(12, 5), m2=Fraction(8, 5))
KNMD_REFERENCE = 0.73
WWCY_REFERENCE = 0.55
TOLERANCE = 0.05


def test_criterion_08a_knmd_reference():
    """KNMD's loads under KNMD's own rate, at the split alpha = M1/N, beta = 0.

    Karamchandani et al. (arXiv:1403.7007) write R1 over the decentralized
    single-layer rate r_d of arXiv:1301.5848, not the centralized r_c.  At
    alpha = M1/N the mirrors hold the whole alpha-part, so its term vanishes,
    and beta = 0 leaves all of M2 to the rest: R1 = (3/5) r_d(4/9, 6) =
    128954/177147 ~ 0.7279, which matches the reference to two decimals.
    Neither grid minimum does: the r_c formula's is 267/500 = 0.534 (printed
    below) and the r_d formula's is ~0.6785 at alpha = 0.48, beta = 0, 0.0515
    away.  The paper's text is not in the repo, so the split cannot be
    confirmed there; KNMD's regime split alpha = M1/(M1 + K2 M2) = 3/7 would
    give ~0.6992, also within tolerance.
    """
    p = EXAMPLE_PARAMS
    r1, _ = knmd_loads(p, SplitPoint(p.m1 / p.n_files, 0), rate=r_d)
    _, grid_r1, _ = search_min_r1("knmd", p, Fraction(1, 100))
    ok = isinstance(r1, Fraction) and abs(float(r1) - KNMD_REFERENCE) <= TOLERANCE
    announce(
        "8a",
        ok,
        f"knmd with r_d at alpha=M1/N, beta=0: {float(r1):.4f} vs reference "
        f"{KNMD_REFERENCE} +/- {TOLERANCE} (centralized r_c grid minimum "
        f"{float(grid_r1):.4f})",
    )
    assert ok, f"knmd R1 with r_d at alpha=M1/N, beta=0 is {r1} = {float(r1):.4f}"


def test_criterion_08b_wwcy_reference():
    _, r1, _ = search_min_r1("wwcy", EXAMPLE_PARAMS, Fraction(1, 100))
    ok = abs(float(r1) - WWCY_REFERENCE) <= TOLERANCE
    announce(
        "8b",
        ok,
        f"wwcy search minimum {float(r1):.4f} vs reference {WWCY_REFERENCE} +/- {TOLERANCE}",
    )
    assert ok


def _mutate_pda(p: Pda, rng: random.Random) -> Pda:
    """One seeded single-cell mutation that must break C1, C2 or C3."""
    grid = [list(row) for row in p.grid]
    ints = sorted({c for row in p.grid for c in row if c != STAR})
    stars = [(j, k) for j in range(p.f) for k in range(p.k) if p.grid[j][k] == STAR]
    int_cells = [(j, k) for j in range(p.f) for k in range(p.k) if p.grid[j][k] != STAR]
    kinds = []
    if stars and ints:
        kinds.append("star_to_int")
    if int_cells:
        kinds.extend(["int_to_star", "int_to_fresh"])
    kind = rng.choice(kinds)
    if kind == "star_to_int":
        j, k = rng.choice(stars)
        grid[j][k] = rng.choice(ints)
    elif kind == "int_to_star":
        j, k = rng.choice(int_cells)
        grid[j][k] = STAR
    else:
        j, k = rng.choice(int_cells)
        grid[j][k] = (max(ints) if ints else 0) + 1 + rng.randrange(5)
    return Pda(k=p.k, f=p.f, z=p.z, s=p.s, grid=tuple(tuple(r) for r in grid))


def _mutate_hpda(h: Hpda, rng: random.Random) -> Hpda:
    """One seeded single-cell mutation that must break B1, B2 or B3."""
    if rng.random() < 0.3:
        j = rng.randrange(h.f)
        k = rng.randrange(h.k1)
        grid = [list(row) for row in h.mirror.grid]
        grid[j][k] = None if grid[j][k] == STAR else STAR
        mirror = MirrorPlacement(grid=tuple(tuple(r) for r in grid))
        return Hpda(
            k1=h.k1, k2=h.k2, f=h.f, z1=h.z1, z2=h.z2,
            mirror=mirror, blocks=h.blocks, s_m=h.s_m,
        )
    g = rng.randrange(h.k1)
    mutated = _mutate_pda(h.blocks[g], rng)
    blocks = list(h.blocks)
    blocks[g] = mutated
    return Hpda(
        k1=h.k1, k2=h.k2, f=h.f, z1=h.z1, z2=h.z2,
        mirror=h.mirror, blocks=tuple(blocks), s_m=h.s_m,
    )


def test_criterion_09_decodability_and_mutation_rejection():
    arrays = [h for _, h in grouping_arrays()] + [h for _, h in hybrid_pairs()]
    decode_failures = 0
    for h in arrays:
        n = h.k1 * h.k2
        for lib_seed in range(100):
            result = simulate(h, n, 4, seed=lib_seed)
            if not result.success:
                decode_failures += 1
                break
    rng = random.Random(909)
    surviving_mutants = 0
    golden_pda = mn_pda(3, 1)
    golden_hier = [golden_15x9(), build_hybrid(mn_pda(2, 1), mn_pda(3, 1))]
    for i in range(50):
        if i % 5 == 0:
            mutant = _mutate_pda(golden_pda, rng)
            if verify_pda(mutant).valid:
                surviving_mutants += 1
        else:
            mutant = _mutate_hpda(rng.choice(golden_hier), rng)
            if verify_hpda(mutant).valid:
                surviving_mutants += 1
    ok = decode_failures == 0 and surviving_mutants == 0
    announce(
        "9",
        ok,
        f"{len(arrays)} arrays x 100 seeded libraries decode byte-exactly; "
        f"50 seeded single-cell mutations all rejected "
        f"(decode failures {decode_failures}, surviving mutants {surviving_mutants})",
    )
    assert ok


def test_plan_loads_agree_with_every_source():
    """Closed form = id-set scan = delivery-plan count = transcript count, on
    criterion 9's arrays."""
    failures = []
    cases = [(("grouping", *key), h, grouping_params(*key)[0]) for key, h in grouping_arrays()]
    for key, h in hybrid_pairs():
        a, b = mn_pda(*key[:2]), mn_pda(*key[2:])
        formula = hybrid_params((a.k, a.f, a.z, a.s), (b.k, b.f, b.z, b.s))
        cases.append((("hybrid", *key), h, formula))
    for key, h, formula in cases:
        scanned = loads_from_hpda(h)
        plan = delivery_plan(h)
        result = simulate(h, h.k1 * h.k2, 4, seed=9)
        if not (
            result.success
            and formula.r1 == scanned.r1 == plan.r1 == result.r1
            and formula.r2 == scanned.r2 == plan.r2 == result.r2
        ):
            failures.append(key)
    assert len(cases) == 116
    assert not failures, failures


def test_criterion_10_reduced_scale_ordering():
    rows = compare_sweep(6, 3, 30, range(4, 18))
    by_t: dict[int, dict[str, object]] = {}
    for row in rows:
        by_t.setdefault(row.t, {})[row.scheme] = row
    violations = []
    for t, schemes in by_t.items():
        g = schemes["grouping"]
        b = schemes["bound"]
        w = schemes["wwcy"]
        k = schemes["knmd"]
        if not (g.r1 == b.r1 <= w.r1 <= k.r1):
            violations.append((t, "r1 ordering"))
        if not g.r2 >= b.r2:
            violations.append((t, "r2 vs optimum"))
    ok = not violations
    announce(
        "10",
        ok,
        "grouping R1 = bound <= wwcy <= knmd and grouping R2 >= optimal R2 "
        f"across t=4..17 at (6,3,30)" + (f"; violations {violations}" if violations else ""),
    )
    assert ok
