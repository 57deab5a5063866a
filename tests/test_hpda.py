"""Hierarchical array construction, verification, loads, and I/O."""

import io
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

import hpda.hierarchy
import hpda.pda
from hpda import (
    STAR,
    Hpda,
    InvalidArrayError,
    MirrorPlacement,
    Pda,
    PdaFormatError,
    build_grouping,
    build_hybrid,
    derive_s_m,
    format_hpda,
    grouping_params,
    hybrid_params,
    load_hpda,
    loads_from_hpda,
    mn_pda,
    parse_hpda,
    parse_pda,
    save_hpda,
    verify_hpda,
    verify_pda,
)

from reference import inner_sets_disjoint, pda_shift, reference_grouping, reference_hybrid
from test_pda import refuse_huge_combs

S = STAR

# Golden 15x9 hierarchical array: (K1,K2;F;Z1,Z2) = (3,2;15;6,4),
# S_m = [7:42], S_1 = [1:18], S_2 = [1:6]+[19:30], S_3 = [1:6]+[31:42].
GOLDEN_15x9_MIRROR = (
    (S, S, None),
    (S, None, None),
    (S, None, None),
    (S, None, None),
    (S, None, None),
    (S, None, S),
    (None, S, None),
    (None, S, None),
    (None, None, S),
    (None, None, S),
    (None, S, None),
    (None, S, None),
    (None, None, S),
    (None, None, S),
    (None, S, S),
)
GOLDEN_15x9_BLOCKS = (
    (
        (7, 8), (9, 10), (11, 12), (13, 14), (15, 16), (17, 18),
        (S, 1), (S, 2), (S, 3), (S, 4), (1, S), (2, S), (3, S), (4, S), (5, 6),
    ),
    (
        (19, 20), (S, 1), (S, 2), (1, S), (2, S), (3, 4),
        (21, 22), (23, 24), (S, 5), (5, S), (25, 26), (27, 28), (S, 6), (6, S), (29, 30),
    ),
    (
        (1, 2), (S, 3), (3, S), (S, 4), (4, S), (31, 32),
        (S, 5), (5, S), (33, 34), (35, 36), (S, 6), (6, S), (37, 38), (39, 40), (41, 42),
    ),
)


def golden_15x9() -> Hpda:
    blocks = tuple(
        Pda(k=2, f=15, z=4, s=18, grid=grid) for grid in GOLDEN_15x9_BLOCKS
    )
    return Hpda(
        k1=3,
        k2=2,
        f=15,
        z1=6,
        z2=4,
        mirror=MirrorPlacement(grid=GOLDEN_15x9_MIRROR),
        blocks=blocks,
        s_m=frozenset(range(7, 43)),
    )


def golden_6x8() -> Hpda:
    """The hybrid of the 2x2 and 3x3 golden arrays: blocks (B+3 over B) and
    (B over B+6), mirror columns starred on rows 1-3 and 4-6."""
    return build_hybrid(mn_pda(2, 1), mn_pda(3, 1))


def test_grouping_golden_15x9_exact():
    h = build_grouping(3, 2, 4)
    assert (h.k1, h.k2, h.f, h.z1, h.z2) == (3, 2, 15, 6, 4)
    assert h.mirror.grid == GOLDEN_15x9_MIRROR
    assert tuple(b.grid for b in h.blocks) == GOLDEN_15x9_BLOCKS
    assert h.s_m == frozenset(range(7, 43))
    assert h.s_k[0] == frozenset(range(1, 19))
    assert h.s_k[1] == frozenset(range(1, 7)) | frozenset(range(19, 31))
    assert h.s_k[2] == frozenset(range(1, 7)) | frozenset(range(31, 43))


def test_grouping_mirror_column_one_stars_rows_1_to_6():
    h = build_grouping(3, 2, 4)
    starred = [j for j in range(1, 16) if h.mirror.is_star(j, 1)]
    assert starred == [1, 2, 3, 4, 5, 6]


def test_grouping_rejects_out_of_range_t():
    with pytest.raises(ValueError):
        build_grouping(3, 2, 2)
    with pytest.raises(ValueError):
        build_grouping(3, 2, 6)


def test_verify_golden_arrays():
    assert verify_hpda(golden_15x9()).valid
    assert verify_hpda(golden_6x8()).valid


def test_verify_flags_missing_mirror_star():
    h = golden_15x9()
    grid = [list(r) for r in h.mirror.grid]
    grid[0][0] = None  # ids 7 and 8 now lack their mirror star
    broken = Hpda(
        k1=3, k2=2, f=15, z1=6, z2=4,
        mirror=MirrorPlacement(grid=tuple(tuple(r) for r in grid)),
        blocks=h.blocks, s_m=h.s_m,
    )
    report = verify_hpda(broken)
    assert not report.valid
    assert any(v.condition == "B3" for v in report.violations)
    b3_rows = {v.coords for v in report.violations if v.condition == "B3"}
    assert (1, 1, 1) in b3_rows and (1, 1, 2) in b3_rows


def test_verify_flags_wrong_mirror_star_count():
    h = golden_15x9()
    broken = Hpda(
        k1=3, k2=2, f=15, z1=5, z2=4,
        mirror=h.mirror, blocks=h.blocks, s_m=h.s_m,
    )
    report = verify_hpda(broken)
    assert {v.condition for v in report.violations} == {"B1"}


def test_verify_flags_block_violations_as_b2():
    h = golden_15x9()
    grid = [list(r) for r in h.blocks[0].grid]
    grid[6][0] = 2  # clashes with the 2 at row 8 in the same column
    blocks = list(h.blocks)
    blocks[0] = Pda(k=2, f=15, z=4, s=18, grid=tuple(tuple(r) for r in grid))
    broken = Hpda(
        k1=3, k2=2, f=15, z1=6, z2=4,
        mirror=h.mirror, blocks=tuple(blocks), s_m=h.s_m,
    )
    report = verify_hpda(broken)
    assert any(v.condition == "B2" for v in report.violations)


def test_verify_flags_b4_on_cross_block_conflict():
    # Two mirrors, one user each, sharing id 1 on the same rows without the
    # required mirror coverage.
    mirror = MirrorPlacement(grid=((None, None), (None, None)))
    b1 = Pda(k=1, f=2, z=1, s=1, grid=((1,), (S,)))
    b2 = Pda(k=1, f=2, z=1, s=1, grid=((1,), (S,)))
    broken = Hpda(k1=2, k2=1, f=2, z1=0, z2=1, mirror=mirror, blocks=(b1, b2), s_m=frozenset())
    report = verify_hpda(broken)
    conditions = {v.condition for v in report.violations}
    assert "C3a" not in conditions  # same row across blocks is a B4 matter
    assert "B4" in conditions


@pytest.mark.parametrize("k1", [2, 3, 4])
def test_grouping_sweep_verifies(k1):
    k2 = 2
    for t in range(k2 + 1, k1 * k2):
        h = build_grouping(k1, k2, t)
        assert verify_hpda(h).valid, (k1, k2, t)


def test_grouping_params_match_golden():
    loads, z1, z2 = grouping_params(3, 2, 4)
    assert (loads.f, z1, z2) == (15, 6, 4)
    assert loads.r1 == Fraction(2, 5)
    assert loads.r2 == Fraction(6, 5)
    assert loads.m1_ratio == Fraction(2, 5)
    assert loads.m2_ratio == Fraction(4, 15)


def test_grouping_r1_at_largest_t():
    for k1, k2 in [(2, 2), (3, 2), (2, 3)]:
        k = k1 * k2
        loads, _, _ = grouping_params(k1, k2, k - 1)
        assert loads.r1 == Fraction(1, k)


@pytest.mark.parametrize(
    "k1,k2",
    [(2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (8, 1), (3, 1), (6, 1)],
)
def test_grouping_formula_equals_scanned_loads(k1, k2):
    for t in range(k2 + 1, k1 * k2):
        loads, _, _ = grouping_params(k1, k2, t)
        measured = loads_from_hpda(build_grouping(k1, k2, t))
        assert loads == measured, (k1, k2, t)


def test_grouping_server_ids_are_the_source_alphabet():
    h = build_grouping(3, 2, 4)
    assert h.union_integers() - h.s_m == frozenset(range(1, 7))


def test_grouping_mirror_only_ids_occur_once():
    h = build_grouping(4, 2, 5)
    counts = {}
    for block in h.blocks:
        for row in block.grid:
            for cell in row:
                if cell != STAR and cell in h.s_m:
                    counts[cell] = counts.get(cell, 0) + 1
    assert set(counts) == set(h.s_m)
    assert all(c == 1 for c in counts.values())


def test_hybrid_golden_6x8():
    h = golden_6x8()
    b = mn_pda(3, 1)
    assert (h.k1, h.k2, h.f, h.z1, h.z2) == (2, 3, 6, 3, 2)
    assert h.blocks[0].grid == pda_shift(b, 3).grid + b.grid
    assert h.blocks[1].grid == b.grid + pda_shift(b, 6).grid
    assert h.s_m == frozenset(range(4, 10))
    assert h.s_k[0] == frozenset(range(1, 7))
    assert h.s_k[1] == frozenset(range(1, 4)) | frozenset(range(7, 10))
    assert h.mirror.grid[:3] == ((S, None),) * 3
    assert h.mirror.grid[3:] == ((None, S),) * 3


def test_hybrid_all_star_outer_caches_everything():
    outer = mn_pda(3, 3)
    inner = mn_pda(3, 1)
    h = build_hybrid(outer, inner)
    shifts = {tuple(block.grid) for block in h.blocks}
    expected = {
        pda_shift(inner, a * inner.s).grid for a in range(3)
    }
    assert shifts == expected
    assert loads_from_hpda(h).r1 == 0
    assert h.s_m == h.union_integers()


def test_hybrid_inner_without_integers_gives_zero_loads():
    h = build_hybrid(mn_pda(2, 1), mn_pda(3, 3))
    loads = loads_from_hpda(h)
    assert loads.r1 == 0
    assert loads.r2 == 0
    assert h.s_m == frozenset()


def test_hybrid_rejects_invalid_inputs():
    bad = Pda(k=2, f=2, z=1, s=1, grid=((S, 1), (S, 1)))
    message = (
        "outer array fails verification:\n"
        "  C1 at (1,): column 1 has 2 stars, expected 1\n"
        "  C1 at (2,): column 2 has 0 stars, expected 1\n"
        "  C3a at (1, 2, 2, 2): integer 1 repeats in the same column"
    )
    with pytest.raises(InvalidArrayError) as exc:
        build_hybrid(bad, mn_pda(2, 1))
    assert str(exc.value) == message
    shifted = pda_shift(mn_pda(3, 1), 5)  # valid array, alphabet [6..8]
    with pytest.raises(InvalidArrayError, match=r"^outer array must use the integer alphabet \[1\.\.3\]$"):
        build_hybrid(shifted, mn_pda(2, 1))


def mn_sweep_pairs(limit):
    for k1 in range(1, limit + 1):
        for t1 in range(1, k1 + 1):
            for k2 in range(1, limit + 1):
                for t2 in range(1, k2 + 1):
                    yield k1, t1, k2, t2


def test_hybrid_sweep_verifies():
    for k1, t1, k2, t2 in mn_sweep_pairs(4):
        h = build_hybrid(mn_pda(k1, t1), mn_pda(k2, t2))
        assert verify_hpda(h).valid, (k1, t1, k2, t2)


def test_hybrid_params_golden():
    loads = hybrid_params((2, 2, 1, 1), (3, 3, 1, 3))
    assert loads.f == 6
    assert loads.r1 == Fraction(1, 2)
    assert loads.r2 == Fraction(1)
    assert loads.m1_ratio == Fraction(1, 2)
    assert loads.m2_ratio == Fraction(1, 3)


def test_hybrid_params_zero_integer_inner():
    loads = hybrid_params((2, 2, 1, 1), (3, 1, 1, 0))
    assert loads.r1 == 0
    assert loads.r2 == 0


def test_hybrid_params_match_scanned_loads_on_random_pairs():
    rng = random.Random(20240817)
    for _ in range(50):
        k1 = rng.randint(1, 4)
        t1 = rng.randint(1, k1)
        k2 = rng.randint(1, 4)
        t2 = rng.randint(1, k2)
        a, b = mn_pda(k1, t1), mn_pda(k2, t2)
        h = build_hybrid(a, b)
        formula = hybrid_params((a.k, a.f, a.z, a.s), (b.k, b.f, b.z, b.s))
        assert loads_from_hpda(h) == formula, (k1, t1, k2, t2)


def test_inner_sets_disjoint_golden_and_sweep():
    assert inner_sets_disjoint(mn_pda(2, 1), mn_pda(3, 1))
    assert inner_sets_disjoint(mn_pda(3, 3), mn_pda(3, 1))  # all-star outer
    # zero-star outer: the star-copy statements hold vacuously
    uncoded = Pda(k=2, f=2, z=0, s=4, grid=((1, 2), (3, 4)))
    assert verify_pda(uncoded).valid
    assert inner_sets_disjoint(uncoded, mn_pda(3, 1))
    # inner ids run past the declared S, so neighbouring shifted copies collide
    assert not inner_sets_disjoint(mn_pda(2, 1), Pda(k=2, f=1, z=0, s=1, grid=((1, 2),)))
    rng = random.Random(11)
    for _ in range(30):
        k1 = rng.randint(1, 5)
        t1 = rng.randint(1, k1)
        k2 = rng.randint(1, 5)
        t2 = rng.randint(1, k2)
        assert inner_sets_disjoint(mn_pda(k1, t1), mn_pda(k2, t2))


def test_loads_from_golden_arrays():
    loads = loads_from_hpda(golden_15x9())
    assert loads.r1 == Fraction(6, 15)
    assert loads.r2 == Fraction(18, 15)
    loads = loads_from_hpda(golden_6x8())
    assert loads.r1 == Fraction(3, 6)
    assert loads.r2 == Fraction(6, 6)


def test_loads_of_all_star_single_block():
    mirror = MirrorPlacement(grid=((S,), (S,)))
    block = Pda(k=1, f=2, z=2, s=0, grid=((S,), (S,)))
    h = Hpda(k1=1, k2=1, f=2, z1=2, z2=2, mirror=mirror, blocks=(block,), s_m=frozenset())
    loads = loads_from_hpda(h)
    assert loads.r1 == 0
    assert loads.r2 == 0


def test_loads_rejects_invalid_array():
    h = golden_15x9()
    broken = Hpda(
        k1=3, k2=2, f=15, z1=5, z2=4, mirror=h.mirror, blocks=h.blocks, s_m=h.s_m
    )
    with pytest.raises(ValueError):
        loads_from_hpda(broken)


def test_hpda_save_load_roundtrip(tmp_path):
    for h in (golden_15x9(), golden_6x8(), build_grouping(2, 2, 3)):
        path = tmp_path / "h.hpda"
        save_hpda(h, path)
        loaded = load_hpda(path)
        assert loaded.mirror == h.mirror
        assert tuple(b.grid for b in loaded.blocks) == tuple(b.grid for b in h.blocks)
        assert loaded.s_m == h.s_m
        assert loaded.s_k == h.s_k
        assert (loaded.k1, loaded.k2, loaded.f, loaded.z1, loaded.z2) == (
            h.k1, h.k2, h.f, h.z1, h.z2,
        )


def test_hpda_text_roundtrip_via_stream():
    h = golden_6x8()
    buf = io.StringIO()
    save_hpda(h, buf)
    loaded = load_hpda(io.StringIO(buf.getvalue()))
    assert format_hpda(loaded) == format_hpda(h)


def test_derive_s_m_skips_rows_without_mirror_star():
    # id 1 occurs once but on an uncached row: it must stay a server id.
    mirror = MirrorPlacement(grid=((S,), (None,)))
    block = Pda(k=1, f=2, z=1, s=1, grid=((S,), (1,)))
    assert derive_s_m(mirror, (block,)) == frozenset()
    # Starred row: the mirror can serve it alone.
    block2 = Pda(k=1, f=2, z=1, s=1, grid=((1,), (S,)))
    assert derive_s_m(mirror, (block2,)) == frozenset({1})


def test_derive_s_m_rejects_blocks_that_do_not_fit_the_mirror_grid():
    mirror = MirrorPlacement(grid=((S,), (None,)))  # F = 2, one mirror
    # Two blocks for one mirror: every id in both blocks, or one only in the first.
    for blocks in ((mn_pda(2, 1),) * 2, (mn_pda(2, 1), pda_shift(mn_pda(2, 1), 1))):
        with pytest.raises(ValueError, match="^expected 1 blocks, got 2$"):
            derive_s_m(mirror, blocks)
    with pytest.raises(ValueError, match="^block 1 is 3x3, expected 2x3$"):
        derive_s_m(mirror, (mn_pda(3, 1),))


def test_hybrid_budget_refuses_before_verifying_or_allocating(monkeypatch):
    outer = inner = mn_pda(14, 7)  # 3432 x 14: 48,048 cells each
    # Verification comes before any row is built: failing it keeps a missing
    # budget from building 2.5e9 cells.
    monkeypatch.setattr(hpda.hierarchy, "verify_pda", None)
    message = (
        f"^hybrid of a 3432x14 outer and a 3432x14 inner array has {3432 * 3432 * 14 * 15}"
        " cells, more than 10000000$"
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            build_hybrid(outer, inner)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hybrid_budget_is_inclusive(monkeypatch):
    # mn(2,1) x mn(3,1): F = 6 rows of K1 = 2 mirror and K1·K2 = 6 block cells.
    monkeypatch.setattr(hpda.hierarchy, "_MAX_MN_CELLS", 48)
    assert verify_hpda(build_hybrid(mn_pda(2, 1), mn_pda(3, 1))).valid
    monkeypatch.setattr(hpda.hierarchy, "_MAX_MN_CELLS", 47)
    with pytest.raises(ValueError, match="has 48 cells, more than 47$") as exc:
        build_hybrid(mn_pda(2, 1), mn_pda(3, 1))
    assert not isinstance(exc.value, InvalidArrayError)  # a size refusal exits 2, not 3


def test_parse_hpda_rejects_malformed():
    good = format_hpda(golden_6x8())
    with pytest.raises(PdaFormatError):
        parse_hpda(good.replace("HPDA", "HPDX", 1))
    with pytest.raises(PdaFormatError):
        parse_hpda("HPDA 0 3 0 0 0\n")  # degenerate header
    with pytest.raises(PdaFormatError):
        parse_hpda("HPDA 2 3 6 3 2\n* -\n")
    lines = good.splitlines()
    lines[1] = lines[1] + " 9"
    with pytest.raises(PdaFormatError):
        parse_hpda("\n".join(lines) + "\n")
    with pytest.raises(PdaFormatError):
        parse_hpda(good.replace("-", "x", 1))


def test_parse_hpda_checks_token_counts_before_sizing_by_k1():
    # K1 = 10**6 declares 2,000,000 tokens a line; the line holds two.  The
    # count is checked before anything is allocated per mirror.
    tracemalloc.start()
    try:
        with pytest.raises(PdaFormatError, match="expected 2000000 tokens, found 2"):
            parse_hpda("HPDA 1000000 1 1 0 0\n* *\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "text, message",
    [
        (f"PDA {10**30} 0 0 0\n", "array dimensions must be positive"),
        (f"HPDA 1 {10**30} 0 0 0\n", "mirror grid must be nonempty"),
        (f"HPDA {10**9} 1 0 0 0\n", "mirror grid must be nonempty"),
    ],
)
def test_parsers_size_nothing_by_header_without_grid_lines(text, message):
    # F = 0 leaves no line to check K, K1 or K2 against; nothing may be
    # allocated per declared column or mirror before the constructors reject it.
    parse = parse_pda if text.startswith("PDA") else parse_hpda
    tracemalloc.start()
    try:
        with pytest.raises(PdaFormatError, match=message):
            parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hpda_constructor_validates_shape():
    h = golden_6x8()
    with pytest.raises(ValueError):
        Hpda(k1=3, k2=3, f=6, z1=3, z2=2, mirror=h.mirror, blocks=h.blocks, s_m=h.s_m)
    with pytest.raises(ValueError):
        Hpda(k1=2, k2=3, f=5, z1=3, z2=2, mirror=h.mirror, blocks=h.blocks, s_m=h.s_m)
    shape = dict(k2=3, f=6, z1=3, z2=2, mirror=h.mirror, s_m=h.s_m)
    with pytest.raises(ValueError, match="^K1, K2 and F must be positive$"):
        Hpda(k1=0, blocks=(), **shape)
    narrow = Pda(k=2, f=6, z=6, s=0, grid=((S, S),) * 6)
    with pytest.raises(ValueError, match="^block 2 is 6x2, expected 6x3$"):
        Hpda(k1=2, blocks=(h.blocks[0], narrow), **shape)


def test_grouping_block_sizes_match_closed_forms():
    for k1, k2, t in [(3, 2, 4), (2, 3, 5), (4, 2, 6)]:
        k = k1 * k2
        h = build_grouping(k1, k2, t)
        s = math.comb(k, t + 1)
        z1 = math.comb(k - k2, t - k2)
        expected = k2 * z1 + s - math.comb(k - k2, t + 1)
        assert all(len(sk) == expected for sk in h.s_k)
        assert len(h.s_m) == k * z1


def test_grouping_equals_the_papers_composition():
    shapes = [
        (k1, k2, t)
        for k1 in range(2, 11)
        for k2 in range(1, 10 // k1 + 1)
        for t in range(k2 + 1, k1 * k2)
    ]
    assert len(shapes) == 66
    for k1, k2, t in shapes + [(4, 4, 8)]:
        h, ref = build_grouping(k1, k2, t), reference_grouping(k1, k2, t)
        assert format_hpda(h) == format_hpda(ref), (k1, k2, t)
        assert h.s_m == ref.s_m, (k1, k2, t)
        assert h == ref, (k1, k2, t)
        # The id sets' closed forms.  Each mirror caches Z1 rows; block g keeps
        # every MN id (the rank of a (t+1)-subset) that meets its users, plus
        # its own K2*Z1 fresh ids, which the mirrors serve.
        k, s, z1 = k1 * k2, math.comb(k1 * k2, t + 1), math.comb(k1 * k2 - k2, t - k2)
        subsets = list(combinations(range(k), t + 1))
        assert [column.count(S) for column in zip(*h.mirror.grid)] == [z1] * k1
        assert h.s_m == frozenset(range(s + 1, s + k * z1 + 1)), (k1, k2, t)
        for g, ids in enumerate(h.s_k):
            users = set(range(g * k2, (g + 1) * k2))
            inherited = {r for r, sub in enumerate(subsets, start=1) if users.intersection(sub)}
            fresh = range(s + g * k2 * z1 + 1, s + (g + 1) * k2 * z1 + 1)
            assert ids == inherited.union(fresh), (k1, k2, t, g)
            assert len(ids) == k2 * z1 + s - math.comb(k - k2, t + 1), (k1, k2, t, g)


def test_hybrid_equals_the_papers_composition():
    for k1, t1, k2, t2 in mn_sweep_pairs(4):
        outer, inner = mn_pda(k1, t1), mn_pda(k2, t2)
        h, ref = build_hybrid(outer, inner), reference_hybrid(outer, inner)
        assert format_hpda(h) == format_hpda(ref), (k1, t1, k2, t2)
        assert h.s_m == ref.s_m, (k1, t1, k2, t2)
        assert h == ref, (k1, t1, k2, t2)
        # The id sets' closed forms.  Block c holds the S2 ids of the copy of
        # each outer integer in column c, and the fresh ids of the column's
        # Z1 star copies, which the mirrors serve.
        s1, s2, z1 = outer.s, inner.s, outer.z
        assert h.s_m == frozenset(range(s1 * s2 + 1, (s1 + z1 * k1) * s2 + 1))
        for c, block in enumerate(h.blocks):
            expected = set(range((s1 + c * z1) * s2 + 1, (s1 + (c + 1) * z1) * s2 + 1))
            for cell in {row[c] for row in outer.grid} - {S}:
                expected.update(range((cell - 1) * s2 + 1, cell * s2 + 1))
            assert h.s_k[c] == expected, (k1, t1, k2, t2, c)
            assert block.s == outer.f * s2, (k1, t1, k2, t2, c)


def test_parse_scans_each_blocks_ids_once(monkeypatch):
    # The scan that sets a parsed block's S also fills its kept id set, which
    # Hpda's s_k and the B2 check then read: K1 scans, not 2*K1.
    text = format_hpda(build_grouping(3, 2, 4))
    scans = []

    def counting(rows):
        scans.append(rows)
        return distinct_ids(rows)

    distinct_ids = hpda.pda._distinct_ids
    monkeypatch.setattr(hpda.pda, "_distinct_ids", counting)
    monkeypatch.setattr(hpda.hierarchy, "_distinct_ids", counting)
    h = parse_hpda(text)
    assert len(scans) == h.k1 == 3
    assert verify_hpda(h).valid
    assert len(scans) == 3


def test_grouping_builds_no_mn_array(monkeypatch):
    # The blocks are sliced from the MN rows, so the only arrays made are
    # the K1 blocks, each checked once as it is made.
    made = []
    post_init = Pda.__post_init__

    def counting(self):
        made.append((self.f, self.k))
        post_init(self)

    monkeypatch.setattr(Pda, "__post_init__", counting)
    h = build_grouping(3, 2, 4)
    assert made == [(15, 2)] * 3
    assert h == golden_15x9()


def test_mirror_placement_rejects_uneven_rows_and_invalid_cells():
    with pytest.raises(ValueError, match="^mirror row 2 has 1 entries, expected 2$"):
        MirrorPlacement(grid=((S, None), (S,)))
    with pytest.raises(ValueError, match="^mirror row 1 holds invalid cell 1$"):
        MirrorPlacement(grid=((S, 1),))


def test_verify_flags_a_blocks_declared_z_as_b2():
    h = golden_6x8()
    b = h.blocks[0]
    blocks = (Pda(k=b.k, f=b.f, z=b.z + 1, s=b.s, grid=b.grid), *h.blocks[1:])
    bad = Hpda(k1=h.k1, k2=h.k2, f=h.f, z1=h.z1, z2=h.z2, mirror=h.mirror, blocks=blocks, s_m=h.s_m)
    report = verify_hpda(bad)
    assert not report.valid
    assert f"B2 at (1,): block 1 declares Z={h.z2 + 1}, expected {h.z2}" in map(
        str, report.violations
    )


@pytest.mark.parametrize("k1, k2, t", [(-2, -2, 3), (0, 3, 2), (3, 0, 2), (-1, 4, 5)])
def test_grouping_rejects_non_positive_dimensions(k1, k2, t):
    for build in (grouping_params, build_grouping):
        with pytest.raises(ValueError, match="^K1 and K2 must be positive$"):
            build(k1, k2, t)


def test_grouping_refuses_an_mn_grid_over_budget_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^MN array for k=40, t=20 has 5513861152800 cells"):
            build_grouping(8, 5, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_grouping_refuses_a_huge_mn_grid_before_any_closed_form(monkeypatch):
    refuse_huge_combs(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^MN array for k=1000000, t=500000 has about 10\^301033"):
        build_grouping(1000, 1000, 5 * 10**5)
    # The checks of K1, K2 and t still come first.
    with pytest.raises(ValueError, match="^K1 and K2 must be positive$"):
        build_grouping(-1000, -1000, 5 * 10**5)
    with pytest.raises(ValueError, match="^t must satisfy 1000 < t < 1000000, got 1000$"):
        build_grouping(1000, 1000, 1000)
    assert time.perf_counter() - start < 1
