"""Single-layer array construction, verification, transforms, and I/O."""

import io
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

import hpda.pda
from hpda import (
    STAR,
    Pda,
    PdaFormatError,
    format_pda,
    load_pda,
    mn_pda,
    parse_pda,
    save_pda,
    verify_pda,
)

from reference import column_partition, pda_shift, star_rows

# Golden 3x3 array: K=F=S=3, Z=1.
GOLDEN_3X3 = (
    (STAR, 1, 2),
    (1, STAR, 3),
    (2, 3, STAR),
)


def test_mn_pda_golden_3x3():
    p = mn_pda(3, 1)
    assert (p.k, p.f, p.z, p.s) == (3, 3, 1, 3)
    assert p.grid == GOLDEN_3X3


def test_mn_pda_2x2():
    p = mn_pda(2, 1)
    assert p.grid == ((STAR, 1), (1, STAR))
    assert (p.k, p.f, p.z, p.s) == (2, 2, 1, 1)


def test_mn_pda_full_cache_is_all_stars():
    for k in (1, 2, 5):
        p = mn_pda(k, k)
        assert p.f == 1
        assert p.s == 0
        assert p.grid == (tuple([STAR] * k),)


def test_mn_pda_rejects_bad_t():
    with pytest.raises(ValueError):
        mn_pda(3, 0)
    with pytest.raises(ValueError):
        mn_pda(3, 4)


@pytest.mark.parametrize("k", [0, -5])
def test_mn_pda_rejects_k_below_1_before_t(k):
    # t = 1 is in no range [1, k] here: the fault is k's.
    with pytest.raises(ValueError, match=rf"^k must be positive, got {k}$"):
        mn_pda(k, 1)


@pytest.mark.parametrize("k", range(1, 8))
def test_mn_pda_verifies_for_all_t(k):
    for t in range(1, k + 1):
        p = mn_pda(k, t)
        report = verify_pda(p)
        assert report.valid, report.violations
        for col in range(k):
            stars = sum(1 for j in range(p.f) if p.grid[j][col] == STAR)
            assert stars == math.comb(k - 1, t - 1)


def _mn_grid_by_rank(k, t):
    """The MN grid by its definition: the rank of sorted(T + (c,)) among the
    (t+1)-subsets, looked up in a table of all of them."""
    ranks = {sub: r for r, sub in enumerate(combinations(range(1, k + 1), t + 1), start=1)}
    return tuple(
        tuple(STAR if c in t_set else ranks[tuple(sorted(t_set + (c,)))] for c in range(1, k + 1))
        for t_set in combinations(range(1, k + 1), t)
    )


@pytest.mark.parametrize("k,t", [(k, t) for k in range(1, 9) for t in range(1, k + 1)] + [(16, 8)])
def test_mn_pda_equals_rank_definition(k, t):
    p = mn_pda(k, t)
    assert p.grid == _mn_grid_by_rank(k, t)
    assert (p.f, p.z, p.s) == (math.comb(k, t), math.comb(k - 1, t - 1), math.comb(k, t + 1))


@pytest.mark.parametrize("k,t", [(4, 1), (5, 2), (6, 3), (7, 4)])
def test_mn_pda_each_integer_occurs_exactly_t_plus_1_times(k, t):
    p = mn_pda(k, t)
    counts = {}
    for row in p.grid:
        for cell in row:
            if cell != STAR:
                counts[cell] = counts.get(cell, 0) + 1
    assert set(counts) == set(range(1, p.s + 1))
    assert all(c == t + 1 for c in counts.values())


def test_verify_flags_broken_star_complement():
    grid = [list(row) for row in GOLDEN_3X3]
    grid[0][1] = 3  # was 1; now 3 at (1,2) pairs badly with 3 at (2,3)
    p = Pda(k=3, f=3, z=1, s=3, grid=tuple(tuple(r) for r in grid))
    report = verify_pda(p)
    assert not report.valid
    c3b = [v for v in report.violations if v.condition == "C3b"]
    assert c3b
    rows_hit = {c3b[0].coords[0], c3b[0].coords[2]}
    assert rows_hit == {1, 2}


def test_verify_flags_wrong_star_count():
    p = Pda(k=3, f=3, z=2, s=3, grid=GOLDEN_3X3)
    report = verify_pda(p)
    assert any(v.condition == "C1" for v in report.violations)


def test_verify_flags_wrong_integer_count():
    p = Pda(k=3, f=3, z=1, s=4, grid=GOLDEN_3X3)
    report = verify_pda(p)
    assert [v.condition for v in report.violations] == ["C2"]


def test_verify_flags_same_row_repeat():
    grid = ((1, 1), (STAR, STAR))
    p = Pda(k=2, f=2, z=1, s=1, grid=grid)
    report = verify_pda(p)
    assert any(v.condition == "C3a" for v in report.violations)


def test_pda_shift_matches_printed_blocks():
    b = mn_pda(3, 1)
    assert pda_shift(b, 3).grid == ((STAR, 4, 5), (4, STAR, 6), (5, 6, STAR))
    assert pda_shift(b, 6).grid == ((STAR, 7, 8), (7, STAR, 9), (8, 9, STAR))


def test_pda_shift_identity_and_inverse():
    b = mn_pda(3, 1)
    assert pda_shift(b, 0) == b
    assert pda_shift(pda_shift(b, 6), -6) == b


def test_pda_shift_keeps_validity():
    for k, t in [(4, 2), (5, 3)]:
        shifted = pda_shift(mn_pda(k, t), 11)
        assert verify_pda(shifted).valid


def test_pda_shift_rejects_nonpositive_result():
    with pytest.raises(ValueError):
        pda_shift(mn_pda(3, 1), -1)


def test_star_rows():
    assert star_rows(mn_pda(3, 1)) == []
    assert star_rows(mn_pda(4, 4)) == [1]
    blocks = column_partition(mn_pda(6, 4), 3)
    assert star_rows(blocks[0]) == [1, 2, 3, 4, 5, 6]
    assert star_rows(blocks[1]) == [1, 7, 8, 11, 12, 15]
    assert star_rows(blocks[2]) == [6, 9, 10, 13, 14, 15]


def test_column_partition_shapes_and_inverse():
    p = mn_pda(6, 4)
    blocks = column_partition(p, 3)
    assert [b.k for b in blocks] == [2, 2, 2]
    assert all(b.f == 15 for b in blocks)
    rebuilt = tuple(
        tuple(cell for b in blocks for cell in b.grid[j]) for j in range(p.f)
    )
    assert rebuilt == p.grid
    assert column_partition(p, 1)[0].grid == p.grid


def test_column_partition_blocks_keep_c1_and_c3():
    p = mn_pda(6, 4)
    for block in column_partition(p, 3):
        report = verify_pda(block)
        assert report.valid, report.violations
        for col in range(block.k):
            stars = sum(1 for j in range(block.f) if block.grid[j][col] == STAR)
            assert stars == p.z


def test_column_partition_rejects_nondivisor():
    with pytest.raises(ValueError):
        column_partition(mn_pda(6, 4), 4)


def test_save_load_roundtrip(tmp_path):
    p = mn_pda(3, 1)
    path = tmp_path / "a.pda"
    save_pda(p, path)
    assert load_pda(path) == p
    buf = io.StringIO()
    save_pda(p, buf)
    assert load_pda(io.StringIO(buf.getvalue())) == p


def test_load_golden_text_matches_construction():
    text = "PDA 3 3 1 3\n* 1 2\n1 * 3\n2 3 *\n"
    assert parse_pda(text) == mn_pda(3, 1)


def test_format_is_stable():
    p = mn_pda(4, 2)
    assert parse_pda(format_pda(p)) == p


def test_parse_rejects_wrong_row_length():
    text = "PDA 3 3 1 3\n* 1 2\n1 * 3\n2 3\n"
    with pytest.raises(PdaFormatError) as err:
        parse_pda(text)
    assert err.value.line == 4


def test_parse_rejects_bad_token():
    text = "PDA 2 2 1 1\n* 1\n1 x\n"
    with pytest.raises(PdaFormatError) as err:
        parse_pda(text)
    assert err.value.line == 3
    assert err.value.column == 2


def test_parse_rejects_zero_token():
    with pytest.raises(PdaFormatError):
        parse_pda("PDA 2 2 1 1\n* 0\n1 *\n")


def test_parse_rejects_missing_rows_and_garbage():
    with pytest.raises(PdaFormatError):
        parse_pda("PDA 3 3 1 3\n* 1 2\n")
    with pytest.raises(PdaFormatError):
        parse_pda("")
    with pytest.raises(PdaFormatError):
        parse_pda("HELLO 1 2 3 4\n")


def test_pda_constructor_validates_shape():
    with pytest.raises(ValueError):
        Pda(k=2, f=2, z=1, s=1, grid=((STAR, 1), (1,)))
    with pytest.raises(ValueError):
        Pda(k=2, f=2, z=1, s=1, grid=((STAR, 0), (1, STAR)))
    with pytest.raises(ValueError, match="^integer count S=-1 must be nonnegative$"):
        Pda(k=2, f=2, z=1, s=-1, grid=((STAR, 1), (1, STAR)))
    with pytest.raises(ValueError, match="^grid has 1 rows, declared F=2$"):
        Pda(k=2, f=2, z=1, s=1, grid=((STAR, 1),))
    # A bool is an int, but format_pda would write it as a token parse_pda rejects.
    with pytest.raises(ValueError, match="^row 1 holds invalid cell True$"):
        Pda(k=1, f=1, z=0, s=1, grid=((True,),))


def test_parse_ignores_trailing_blank_lines():
    assert parse_pda(format_pda(mn_pda(3, 1)) + "\n  \n\t\n") == mn_pda(3, 1)


def test_mn_pda_refuses_a_grid_over_budget_before_allocating():
    # C(40,20) rows of 40 cells: 5.5e12 cells, refused from math.comb alone.
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError, match="^MN array for k=40, t=20 has 5513861152800 cells, more than 10000000$"
        ):
            mn_pda(40, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mn_budget_names_a_size_too_long_to_print_by_its_magnitude():
    with pytest.raises(ValueError, match=r"^MN array for k=20000, t=10000 has about 10\^6023 cells"):
        mn_pda(20000, 10000)


def refuse_huge_combs(monkeypatch):
    """Make ``math.comb`` fail for k > 10^4, so that a budget test never runs
    a huge closed form."""
    comb = math.comb

    def guarded(k, t):
        assert k <= 10**4, f"math.comb({k}, {t}) ran"
        return comb(k, t)

    monkeypatch.setattr(math, "comb", guarded)


def test_mn_budget_refuses_a_huge_array_from_its_magnitude_alone(monkeypatch):
    # log10(C(10^6, 5*10^5) * 10^6) = 301032.898 (from math.comb, once, offline).
    refuse_huge_combs(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(
        ValueError,
        match=r"^MN array for k=1000000, t=500000 has about 10\^301033 cells, more than 10000000$",
    ):
        mn_pda(10**6, 5 * 10**5)
    with pytest.raises(ValueError, match=r"has about 10\^1200 cells"):
        mn_pda(10**400, 2)  # the 1,200-digit count is never formed
    with pytest.raises(ValueError, match=r"has about 10\^14118\d{395} cells"):
        mn_pda(10**400, 10**399)  # no float holds m = 10^399
    assert time.perf_counter() - start < 1


def test_mn_magnitude_rounds_like_the_exact_count():
    # The magnitude _mn_rows names: log10 C(k, t) plus log10 k, rounded once.
    rng = random.Random(14)
    cases = [(k, t) for k in range(1, 41) for t in range(1, k + 1)]
    cases += [(k, rng.randint(1, k)) for k in (rng.randint(41, 5000) for _ in range(200))]
    for k, t in cases:
        magnitude = round(hpda.pda._log10_comb(k, t) + Fraction(math.log10(k)))
        assert magnitude == round(math.log10(math.comb(k, t) * k)), (k, t)


def test_log10_comb_rounds_like_the_exact_count():
    # math.log10 reads a big int without converting it to str.
    cases = [(k, t) for k in range(1, 5001, 11) for t in range(max(0, k // 2 - 2), k // 2 + 3)]
    cases.append((3400, 1720))  # 1021.54: rounding twice named 10^1021
    for k, t in cases:
        if t <= k:
            assert round(hpda.pda._log10_comb(k, t)) == round(math.log10(math.comb(k, t))), (k, t)


def test_mn_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(hpda.pda, "_MAX_MN_CELLS", 16)
    p = mn_pda(4, 1)  # exactly the budget
    assert p.f * p.k == 16 and verify_pda(p).valid
    with pytest.raises(ValueError, match="has 24 cells, more than 16"):
        mn_pda(4, 2)
