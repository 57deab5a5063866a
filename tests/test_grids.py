"""The occurrence index and the checks that read it, against the per-pair
scans over a dict of (block, row, column) cells that they replaced."""

import os
import random
import subprocess
import sys
from itertools import combinations

import hpda.grids
from hpda import (
    STAR,
    Hpda,
    MirrorPlacement,
    Pda,
    VerificationReport,
    Violation,
    build_grouping,
    build_hybrid,
    derive_s_m,
    format_hpda,
    mn_pda,
    parse_hpda,
    verify_hpda,
    verify_pda,
)
from hpda.cli import main

from test_acceptance import _mutate_hpda, _mutate_pda, grouping_arrays, hybrid_pairs
from test_hpda import golden_6x8, golden_15x9


def reference_occurrences(blocks):
    """id -> [(block, row, column)] over all blocks, 1-based, in grid order."""
    occ = {}
    for g, block in enumerate(blocks, start=1):
        for j, row in enumerate(block.grid, start=1):
            for c, cell in enumerate(row, start=1):
                if cell != STAR:
                    occ.setdefault(cell, []).append((g, j, c))
    return occ


def reference_verify_pda(p):
    violations = []
    for k in range(p.k):
        stars = sum(1 for j in range(p.f) if p.grid[j][k] == STAR)
        if stars != p.z:
            violations.append(
                Violation("C1", (k + 1,), f"column {k + 1} has {stars} stars, expected {p.z}")
            )
    occurrences = reference_occurrences((p,))
    if len(occurrences) != p.s:
        violations.append(
            Violation("C2", (), f"{len(occurrences)} distinct integers, declared S={p.s}")
        )
    for value, cells in occurrences.items():
        for (_, j1, k1), (_, j2, k2) in combinations(cells, 2):
            if j1 == j2 or k1 == k2:
                axis = "row" if j1 == j2 else "column"
                violations.append(
                    Violation("C3a", (j1, k1, j2, k2), f"integer {value} repeats in the same {axis}")
                )
            elif p.grid[j1 - 1][k2 - 1] != STAR or p.grid[j2 - 1][k1 - 1] != STAR:
                violations.append(
                    Violation(
                        "C3b",
                        (j1, k1, j2, k2),
                        f"occurrences of {value} lack the star-complement 2x2 pattern",
                    )
                )
    return VerificationReport(valid=not violations, violations=tuple(violations))


def reference_verify_hpda(h):
    def mirror_star(j, g):
        return h.mirror.grid[j - 1][g - 1] == STAR

    def block_entry(g, j, c):
        return h.blocks[g - 1].grid[j - 1][c - 1]

    violations = []
    for g in range(1, h.k1 + 1):
        stars = sum(1 for row in h.mirror.grid if row[g - 1] == STAR)
        if stars != h.z1:
            violations.append(
                Violation("B1", (g,), f"mirror column {g} has {stars} stars, expected {h.z1}")
            )
    for g, block in enumerate(h.blocks, start=1):
        if block.z != h.z2:
            violations.append(
                Violation("B2", (g,), f"block {g} declares Z={block.z}, expected {h.z2}")
            )
        for v in reference_verify_pda(block).violations:
            violations.append(
                Violation("B2", (g, *v.coords), f"block {g}: {v.condition}: {v.message}")
            )
    occ = reference_occurrences(h.blocks)
    for s in sorted(h.s_m):
        cells = occ.get(s, [])
        owners = {g for g, _, _ in cells}
        if len(owners) != 1:
            violations.append(
                Violation(
                    "B3",
                    (s,),
                    f"mirror-only id {s} occurs in {len(owners)} blocks, expected exactly 1",
                )
            )
        for g, j, c in cells:
            if not mirror_star(j, g):
                violations.append(
                    Violation(
                        "B3",
                        (g, j, c),
                        f"mirror-only id {s} at block {g} row {j} lacks a mirror star",
                    )
                )
    for s, cells in occ.items():
        if len({g for g, _, _ in cells}) < 2:
            continue
        for (g1, j1, c1), (g2, j2, c2) in combinations(cells, 2):
            if g1 == g2:
                continue
            if block_entry(g1, j2, c1) != STAR and not mirror_star(j2, g1):
                violations.append(
                    Violation(
                        "B4",
                        (g1, j2, c1),
                        f"id {s}: block {g1} row {j2} is an integer but mirror {g1} "
                        f"misses row {j2}",
                    )
                )
            if block_entry(g2, j1, c2) != STAR and not mirror_star(j1, g2):
                violations.append(
                    Violation(
                        "B4",
                        (g2, j1, c2),
                        f"id {s}: block {g2} row {j1} is an integer but mirror {g2} "
                        f"misses row {j1}",
                    )
                )
    return VerificationReport(valid=not violations, violations=tuple(violations))


def reference_derive_s_m(mirror, blocks):
    return frozenset(
        s
        for s, cells in reference_occurrences(blocks).items()
        if len({g for g, _, _ in cells}) == 1
        and all(mirror.grid[j - 1][g - 1] == STAR for g, j, _ in cells)
    )


def assert_matches_reference(h):
    assert verify_hpda(h) == reference_verify_hpda(h)
    for block in h.blocks:
        assert verify_pda(block) == reference_verify_pda(block)
    assert derive_s_m(h.mirror, h.blocks) == reference_derive_s_m(h.mirror, h.blocks)


def test_index_lists_every_cell_by_term_in_scan_order():
    for h in (golden_15x9(), golden_6x8(), build_grouping(3, 2, 4)):
        occ = h.occurrences
        ref = reference_occurrences(h.blocks)
        assert occ.ids == tuple(ref)
        runs = [list(occ.terms[lo:hi]) for _, lo, hi in occ.runs()]
        assert runs == [
            [((g - 1) * h.k2 + c - 1) * h.f + j - 1 for g, j, c in cells] for cells in ref.values()
        ]
        assert occ.stars == bytes(
            block.grid[j][c] == STAR for block in h.blocks for c in range(h.k2) for j in range(h.f)
        )
        assert occ.cached == bytes(
            h.mirror.is_star(j + 1, g + 1)
            for g in range(h.k1)
            for c in range(h.k2)
            for j in range(h.f)
        )
    p = mn_pda(4, 2)
    assert hpda.grids.build_index((p.grid,), p.f, p.k, ()).cached == b""


def test_index_is_built_lazily_and_kept():
    h = build_grouping(3, 2, 4)
    assert h._occurrence_index is None
    assert h.occurrences is h.occurrences
    parsed = parse_hpda(format_hpda(h))
    assert parsed._occurrence_index is not None
    assert parsed.occurrences == h.occurrences


def test_verifiers_match_reference_on_criterion_9_arrays():
    arrays = [h for _, h in grouping_arrays()] + [h for _, h in hybrid_pairs()]
    assert len(arrays) == 116
    for h in arrays:
        assert_matches_reference(h)
        assert verify_hpda(parse_hpda(format_hpda(h))) == reference_verify_hpda(h)


def test_verifiers_match_reference_on_seeded_mutants():
    # The first 40 are the mutants whose simulate outcomes test_simulation pins.
    rng = random.Random(5)
    goldens = (golden_15x9(), build_hybrid(mn_pda(2, 1), mn_pda(3, 1)))
    for i in range(200):
        mutant = _mutate_hpda(goldens[i % 2], rng)
        assert_matches_reference(mutant)
        parsed = parse_hpda(format_hpda(mutant))
        assert verify_hpda(parsed) == reference_verify_hpda(parsed)
    rng = random.Random(6)
    for i in range(200):
        p = _mutate_pda(mn_pda(3 + i % 3, 1 + i % 2), rng)
        assert verify_pda(p) == reference_verify_pda(p)


def test_verifiers_match_reference_on_scrambled_arrays():
    """Many cells rewritten at once, so that violations of several ids and
    blocks interleave and their order is tested."""
    rng = random.Random(7)
    goldens = (golden_15x9(), golden_6x8(), build_grouping(2, 3, 4))
    for i in range(100):
        h = goldens[i % 3]
        ids = sorted(h.union_integers())
        mirror = [list(row) for row in h.mirror.grid]
        grids = [[list(row) for row in block.grid] for block in h.blocks]
        for _ in range(rng.randint(1, 12)):
            j = rng.randrange(h.f)
            if rng.random() < 0.2:
                m = rng.randrange(h.k1)
                mirror[j][m] = None if mirror[j][m] == STAR else STAR
            else:
                g, c = rng.randrange(h.k1), rng.randrange(h.k2)
                grids[g][j][c] = rng.choice([STAR, *ids[: rng.randint(1, len(ids))]])
        blocks = tuple(Pda(k=h.k2, f=h.f, z=h.z2, s=len(ids) // h.k1, grid=g) for g in grids)
        scrambled = Hpda(
            k1=h.k1, k2=h.k2, f=h.f, z1=h.z1, z2=h.z2,
            mirror=MirrorPlacement(grid=mirror), blocks=blocks, s_m=h.s_m,
        )
        assert_matches_reference(scrambled)
        parsed = parse_hpda(format_hpda(scrambled))
        assert verify_hpda(parsed) == reference_verify_hpda(parsed)


def _bench_kind_mutant(h, kind, rng):
    """One cell of ``h`` changed the way the benchmark's verify mutants are:
    a mirror star toggled, a block integer made a star, or a block star given
    an integer of the same block row."""
    j = rng.randrange(h.f)
    if kind == "mirror-toggle":
        rows = [list(row) for row in h.mirror.grid]
        m = rng.randrange(h.k1)
        rows[j][m] = None if rows[j][m] == STAR else STAR
        mirror, blocks = MirrorPlacement(grid=rows), h.blocks
    else:
        g = rng.randrange(h.k1)
        rows = [list(row) for row in h.blocks[g].grid]
        while True:
            j, c = rng.randrange(h.f), rng.randrange(h.k2)
            ints = [cell for cell in rows[j] if cell != STAR]
            if kind == "int-to-star" and rows[j][c] != STAR:
                rows[j][c] = STAR
                break
            if kind == "star-to-int" and rows[j][c] == STAR and ints:
                rows[j][c] = rng.choice(ints)
                break
        block = h.blocks[g]
        blocks = h.blocks[:g] + (Pda(k=block.k, f=block.f, z=block.z, s=block.s, grid=rows),)
        blocks += h.blocks[g + 1 :]
        mirror = h.mirror
    return Hpda(k1=h.k1, k2=h.k2, f=h.f, z1=h.z1, z2=h.z2, mirror=mirror, blocks=blocks, s_m=h.s_m)


def test_verifiers_match_reference_on_bench_mutant_kinds():
    h = build_grouping(4, 4, 8)
    rng = random.Random(448)
    for kind in ("mirror-toggle", "int-to-star", "star-to-int"):
        mutant = parse_hpda(format_hpda(_bench_kind_mutant(h, kind, rng)))
        report = verify_hpda(mutant)
        assert not report.valid
        assert report == reference_verify_hpda(mutant)


def _count_index_builds(monkeypatch):
    build_index = hpda.grids.build_index
    calls = []

    def counting(*args):
        calls.append(args)
        return build_index(*args)

    monkeypatch.setattr(hpda.grids, "build_index", counting)
    return calls


def test_cli_builds_the_index_once_per_loaded_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "g.hpda"
    path.write_text(format_hpda(build_grouping(3, 2, 4)))
    calls = _count_index_builds(monkeypatch)
    assert main(["verify", str(path)]) == 0
    assert len(calls) == 1
    assert main(["simulate", str(path), "--files", "6", "--packet-bytes", "4"]) == 0
    assert len(calls) == 2


def test_in_memory_arrays_build_the_index_on_first_use_only(monkeypatch):
    calls = _count_index_builds(monkeypatch)
    h = build_grouping(3, 2, 4)
    assert calls == []
    assert verify_hpda(h).valid
    assert verify_hpda(h).valid
    assert len(calls) == 1


def test_grids_module_loads_on_first_parse_or_verify_only():
    code = (
        "import sys, hpda, hpda.cli\n"
        "hpda.cli.main(['compare', '--k1', '3', '--k2', '2', '--n', '6', '--t', '4'])\n"
        "h = hpda.build_grouping(3, 2, 4)\n"
        "assert 'hpda.grids' not in sys.modules\n"
        "hpda.verify_hpda(h)\n"
        "assert 'hpda.grids' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, stdout=subprocess.DEVNULL)
