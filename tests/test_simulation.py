"""Placement, XOR delivery, decoding, and measured loads."""

import io
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

import hpda.plan
import hpda.simulation
from hpda import (
    STAR,
    CacheState,
    DecodingError,
    DemandVector,
    FileLibrary,
    Hpda,
    MirrorPlacement,
    Pda,
    Transcript,
    build_grouping,
    build_hybrid,
    decode_user,
    delivery_plan,
    mirror_delivery,
    mn_pda,
    place,
    server_delivery,
    simulate,
    worst_case_demand,
)

from reference import reference_delivery
from test_acceptance import _mutate_hpda, grouping_arrays, hybrid_pairs
from test_hpda import golden_15x9


def xor(*packets):
    return reduce(lambda a, b: bytes(x ^ y for x, y in zip(a, b)), packets)


def zero_library(n_files, f, packet_bytes):
    packets = ((bytes(packet_bytes),) * f,) * n_files
    return FileLibrary(n_files=n_files, f=f, packet_bytes=packet_bytes, packets=packets)


@pytest.fixture(scope="module")
def golden():
    h = build_grouping(3, 2, 4)
    lib = FileLibrary.random(6, 15, 32, seed=2024)
    d = worst_case_demand(3, 2, 6)
    return h, lib, d


def test_place_golden_cache_contents(golden):
    h, lib, _ = golden
    cache = place(h, lib)
    assert cache.mirror_rows[1] == frozenset({1, 2, 3, 4, 5, 6})
    assert cache.mirror_rows[2] == frozenset({1, 7, 8, 11, 12, 15})
    assert cache.mirror_rows[3] == frozenset({6, 9, 10, 13, 14, 15})
    assert cache.user_rows[(1, 1)] == frozenset({7, 8, 9, 10})
    assert cache.user_rows[(1, 2)] == frozenset({11, 12, 13, 14})
    assert cache.user_rows[(2, 1)] == frozenset({2, 3, 9, 13})
    assert cache.user_rows[(3, 2)] == frozenset({3, 5, 8, 12})


def test_place_sizes_match_declared(golden):
    h, lib, _ = golden
    cache = place(h, lib)
    assert all(len(rows) == h.z1 for rows in cache.mirror_rows.values())
    assert all(len(rows) == h.z2 for rows in cache.user_rows.values())


def test_place_all_star_block_caches_every_row():
    h = build_hybrid(mn_pda(2, 1), mn_pda(2, 2))
    lib = zero_library(4, h.f, 4)
    cache = place(h, lib)
    assert cache.user_rows[(1, 1)] == frozenset(range(1, h.f + 1))


def test_place_rejects_wrong_subpacketization(golden):
    h, _, _ = golden
    with pytest.raises(ValueError):
        place(h, zero_library(6, 14, 8))


def test_server_delivery_matches_printed_signals(golden):
    h, lib, d = golden
    signals = server_delivery(h, lib, d)
    assert [s for s, _ in signals] == [1, 2, 3, 4, 5, 6]
    expected = {
        1: xor(lib.packet(1, 11), lib.packet(2, 7), lib.packet(3, 4),
               lib.packet(4, 2), lib.packet(5, 1)),
        2: xor(lib.packet(1, 12), lib.packet(2, 8), lib.packet(3, 5),
               lib.packet(4, 3), lib.packet(6, 1)),
        3: xor(lib.packet(1, 13), lib.packet(2, 9), lib.packet(3, 6),
               lib.packet(5, 3), lib.packet(6, 2)),
        4: xor(lib.packet(1, 14), lib.packet(2, 10), lib.packet(4, 6),
               lib.packet(5, 5), lib.packet(6, 4)),
        5: xor(lib.packet(1, 15), lib.packet(3, 10), lib.packet(4, 9),
               lib.packet(5, 8), lib.packet(6, 7)),
        6: xor(lib.packet(2, 15), lib.packet(3, 14), lib.packet(4, 13),
               lib.packet(5, 12), lib.packet(6, 11)),
    }
    for s, payload in signals:
        assert payload == expected[s], f"signal {s}"


def test_server_signal_self_inverse(golden):
    h, lib, d = golden
    occ = {}
    for g, block in enumerate(h.blocks, start=1):
        for j, row in enumerate(block.grid, start=1):
            for c, cell in enumerate(row, start=1):
                if cell != "*":
                    occ.setdefault(cell, []).append((g, j, c))
    for s, payload in server_delivery(h, lib, d):
        cancelled = xor(payload, *(lib.packet(d.demand(g, c), j) for g, j, c in occ[s]))
        assert cancelled == bytes(lib.packet_bytes)


def test_zero_library_gives_zero_payloads(golden):
    h, _, d = golden
    lib = zero_library(6, 15, 8)
    for _, payload in server_delivery(h, lib, d):
        assert payload == bytes(8)


def test_mirror_delivery_matches_printed_signals(golden):
    h, lib, d = golden
    server = server_delivery(h, lib, d)
    signals = mirror_delivery(h, lib, d, 1, server)
    assert [s for s, _ in signals] == list(range(1, 19))
    by_id = dict(signals)
    assert by_id[1] == xor(lib.packet(1, 11), lib.packet(2, 7))
    assert by_id[2] == xor(lib.packet(1, 12), lib.packet(2, 8))
    assert by_id[3] == xor(lib.packet(1, 13), lib.packet(2, 9))
    assert by_id[4] == xor(lib.packet(1, 14), lib.packet(2, 10))
    # ids 5 and 6 pass through unchanged: no other-block cell sits on a
    # row mirror 1 caches.
    assert by_id[5] == dict(server)[5]
    assert by_id[6] == dict(server)[6]
    # mirror-only ids 7..18 are the uncoded packets of files 1 and 2.
    uncoded = {7: (1, 1), 8: (2, 1), 9: (1, 2), 10: (2, 2), 11: (1, 3), 12: (2, 3),
               13: (1, 4), 14: (2, 4), 15: (1, 5), 16: (2, 5), 17: (1, 6), 18: (2, 6)}
    for s, (n, j) in uncoded.items():
        assert by_id[s] == lib.packet(n, j), f"mirror-only id {s}"


def test_mirror_delivery_counts(golden):
    h, lib, d = golden
    server = server_delivery(h, lib, d)
    for k1 in (1, 2, 3):
        assert len(mirror_delivery(h, lib, d, k1, server)) == 18


def test_mirror_delivery_missing_server_signal(golden):
    h, lib, d = golden
    server = server_delivery(h, lib, d)[1:]
    with pytest.raises(ValueError):
        mirror_delivery(h, lib, d, 1, server)


def test_mirror_delivery_rejects_mirror_index_zero(golden):
    h, lib, d = golden
    server = server_delivery(h, lib, d)
    with pytest.raises(ValueError, match=r"^mirror index 0 outside \[1, 3\]$"):
        mirror_delivery(h, lib, d, 0, server)


def test_decode_user_recovers_requested_file(golden):
    h, lib, d = golden
    cache = place(h, lib)
    server = server_delivery(h, lib, d)
    for k1 in (1, 2, 3):
        signals = mirror_delivery(h, lib, d, k1, server)
        for k2 in (1, 2):
            got = decode_user(h, cache, signals, k1, k2, d)
            assert got == lib.file(d.demand(k1, k2)), (k1, k2)


def test_decode_from_cache_only_when_block_column_all_stars():
    h = build_hybrid(mn_pda(2, 1), mn_pda(2, 2))
    lib = FileLibrary.random(4, h.f, 8, seed=5)
    d = worst_case_demand(2, 2, 4)
    cache = place(h, lib)
    got = decode_user(h, cache, [], 1, 1, d)
    assert got == lib.file(d.demand(1, 1))


def test_decode_rejects_cache_missing_a_read_row(golden):
    h, lib, d = golden
    cache = place(h, lib)
    signals = mirror_delivery(h, lib, d, 1, server_delivery(h, lib, d))
    rows = dict(cache.user_rows)
    rows[(1, 1)] = cache.user_rows[(1, 1)] - {9}
    foreign = CacheState(library=lib, mirror_rows=cache.mirror_rows, user_rows=rows)
    with pytest.raises(DecodingError, match=r"user \(1,1\) does not cache packet row 9"):
        decode_user(h, foreign, signals, 1, 1, d)


def test_decode_rejects_user_outside_array():
    h = build_grouping(3, 2, 4)
    lib = FileLibrary.random(6, h.f, 8, seed=5)
    d = worst_case_demand(3, 2, 6)
    cache = place(h, lib)
    for k1, k2, match in (
        (0, 1, r"mirror index 0 outside \[1, 3\]"),
        (4, 1, r"mirror index 4 outside \[1, 3\]"),
        (1, 0, r"user index 0 outside \[1, 2\]"),
        (1, 3, r"user index 3 outside \[1, 2\]"),
    ):
        with pytest.raises(ValueError, match=match):
            decode_user(h, cache, [], k1, k2, d)
    assert h._delivery_plan is None  # checked before the plan is compiled


def _decode_inputs():
    h = build_grouping(3, 2, 4)
    lib = FileLibrary.random(6, h.f, 8, seed=5)
    d = worst_case_demand(3, 2, 6)
    cache = place(h, lib)
    signals = mirror_delivery(h, lib, d, 1, server_delivery(h, lib, d))
    return h, lib, d, cache, signals


def test_decode_rejects_demand_of_another_shape():
    h, _, _, cache, signals = _decode_inputs()
    d = DemandVector(k1=2, k2=3, entries=(1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError, match=r"demand shape \(2,3\) != array shape \(3,2\)"):
        decode_user(h, cache, signals, 1, 1, d)


def test_decode_and_place_reject_another_f_with_one_message():
    h, _, d, cache, signals = _decode_inputs()
    lib = FileLibrary.random(6, h.f + 1, 8, seed=5)
    foreign = CacheState(library=lib, mirror_rows=cache.mirror_rows, user_rows=cache.user_rows)
    message = r"library splits files into 16 packets, array expects 15"
    with pytest.raises(ValueError, match=message):
        decode_user(h, foreign, signals, 1, 1, d)
    with pytest.raises(ValueError, match=message):
        place(h, lib)


def test_decode_rejects_demand_beyond_library():
    h, _, _, cache, signals = _decode_inputs()
    d = DemandVector(k1=3, k2=2, entries=(9, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError, match=r"demand index 9 exceeds library size 6"):
        decode_user(h, cache, signals, 1, 1, d)


def test_decode_rejects_cache_placed_for_another_array():
    # Same F = 15, but six mirrors of one user each: the cache has no user (1, 2).
    h, lib, d, _, signals = _decode_inputs()
    cache = place(build_hybrid(mn_pda(6, 2), mn_pda(1, 1)), lib)
    with pytest.raises(DecodingError, match=r"user \(1,2\) does not cache packet row"):
        decode_user(h, cache, signals, 1, 2, d)


@pytest.mark.parametrize("stage", ["mirror", "user"])
@pytest.mark.parametrize("size", [3, 5])
def test_stages_refuse_a_signal_of_another_size(stage, size):
    # Unchecked, a long signal raised a bare OverflowError and a short one
    # came out as a mix of 3- and 4-byte signals.
    h = build_grouping(3, 2, 4)
    lib = FileLibrary.random(6, h.f, 4, seed=5)
    d = worst_case_demand(3, 2, 6)
    signals = server_delivery(h, lib, d)
    if stage == "user":
        signals = mirror_delivery(h, lib, d, 1, signals)
    resized = [(s, (payload * 2)[:size]) for s, payload in signals]
    with pytest.raises(ValueError, match=rf"^signal for id \d+ has {size} bytes, expected 4$") as info:
        if stage == "mirror":
            mirror_delivery(h, lib, d, 1, resized)
        else:
            decode_user(h, place(h, lib), resized, 1, 1, d)
    named = int(str(info.value).split()[3])
    assert named in dict(signals)


def test_decode_fails_loudly_without_signals(golden):
    h, lib, d = golden
    cache = place(h, lib)
    with pytest.raises(DecodingError):
        decode_user(h, cache, [], 1, 1, d)


def test_simulate_golden_loads(golden):
    h, _, d = golden
    result = simulate(h, 6, 32, d, seed=99)
    assert result.success
    assert result.r1 == Fraction(6, 15)
    assert result.r2 == Fraction(18, 15)
    assert result.transcript.server_packets == 6
    assert all(result.transcript.mirror_packets(k1) == 18 for k1 in (1, 2, 3))


def test_simulate_hybrid_golden_loads():
    h = build_hybrid(mn_pda(2, 1), mn_pda(3, 1))
    result = simulate(h, 6, 16, seed=4)
    assert result.success
    assert result.r1 == Fraction(3, 6)
    assert result.r2 == Fraction(6, 6)


def test_simulate_single_file_demand(golden):
    h, _, _ = golden
    d = DemandVector(k1=3, k2=2, entries=(1,) * 6)
    result = simulate(h, 1, 8, d, seed=0)
    assert result.success
    assert result.r1 <= Fraction(6, 15)


def test_loads_invariant_under_demand_permutation(golden):
    h, _, _ = golden
    rng = random.Random(7)
    base = list(range(1, 7))
    reference = simulate(h, 6, 8, DemandVector(3, 2, tuple(base)), seed=1)
    for _ in range(5):
        rng.shuffle(base)
        result = simulate(h, 6, 8, DemandVector(3, 2, tuple(base)), seed=1)
        assert result.success
        assert result.r1 == reference.r1
        assert result.r2 == reference.r2


def test_signal_counts_equal_id_set_cardinalities():
    for h in (build_grouping(3, 2, 4), build_grouping(2, 3, 5),
              build_hybrid(mn_pda(3, 2), mn_pda(4, 2))):
        result = simulate(h, h.k1 * h.k2, 4, seed=13)
        assert result.success
        t = result.transcript
        assert t.server_packets == len(h.union_integers() - h.s_m)
        for k1 in range(1, h.k1 + 1):
            assert t.mirror_packets(k1) == len(h.s_k[k1 - 1])


def test_decoding_with_random_distinct_demands():
    rng = random.Random(31)
    arrays = [build_grouping(3, 2, 4), build_hybrid(mn_pda(2, 2), mn_pda(3, 1))]
    for h in arrays:
        users = h.k1 * h.k2
        for trial in range(10):
            entries = tuple(rng.sample(range(1, 11), users))
            d = DemandVector(k1=h.k1, k2=h.k2, entries=entries)
            result = simulate(h, 10, 8, d, seed=trial)
            assert result.success, (entries, trial)


def test_worst_case_demand():
    assert worst_case_demand(3, 2, 6).entries == (1, 2, 3, 4, 5, 6)
    assert worst_case_demand(1, 1, 1).entries == (1,)
    for n in range(6, 21):
        d = worst_case_demand(3, 2, n)
        assert len(set(d.entries)) == 6
    with pytest.raises(ValueError):
        worst_case_demand(3, 2, 5)


def test_demand_vector_validation():
    with pytest.raises(ValueError):
        DemandVector(k1=2, k2=2, entries=(1, 2, 3))
    with pytest.raises(ValueError):
        DemandVector(k1=1, k2=2, entries=(1, 0))
    with pytest.raises(ValueError, match="^demands must be positive file indices$"):
        DemandVector(k1=1, k2=2, entries=(True, 2))
    d = DemandVector(k1=2, k2=3, entries=(4, 5, 6, 1, 2, 3))
    assert d.demand(1, 1) == 4
    assert d.demand(2, 3) == 3


@pytest.mark.parametrize(
    "k1, k2, message",
    [
        (0, 1, r"mirror index 0 outside \[1, 3\]"),
        (4, 1, r"mirror index 4 outside \[1, 3\]"),
        (1, 0, r"user index 0 outside \[1, 2\]"),
        (1, 3, r"user index 3 outside \[1, 2\]"),
    ],
)
def test_demand_rejects_indices_outside_the_array(k1, k2, message):
    # Unchecked, (0, 1), (1, 0) and (1, 3) would index another user's demand.
    with pytest.raises(ValueError, match=message):
        worst_case_demand(3, 2, 6).demand(k1, k2)


def test_simulate_rejects_small_library(golden):
    h, _, _ = golden
    with pytest.raises(ValueError):
        simulate(h, 5, 8, seed=0)


def test_simulate_checks_the_demand_before_drawing(golden, monkeypatch):
    def no_draw(*args):
        raise AssertionError("the library was drawn")

    monkeypatch.setattr(hpda.simulation, "_draw", no_draw)
    h, _, _ = golden
    with pytest.raises(ValueError, match="^demand index 7 exceeds library size 6$"):
        simulate(h, 6, 64, DemandVector(k1=3, k2=2, entries=(1, 2, 3, 4, 5, 7)))
    with pytest.raises(ValueError, match=r"^demand shape \(2,3\) != array shape \(3,2\)$"):
        simulate(h, 6, 64, DemandVector(k1=2, k2=3, entries=(1,) * 6))
    # The library's dimensions are still checked first, as before.
    with pytest.raises(ValueError, match="^library dimensions must be positive$"):
        simulate(h, 6, 0, DemandVector(k1=3, k2=2, entries=(1, 2, 3, 4, 5, 7)))
    with pytest.raises(ValueError, match="^library of 6 files x 15 packets x 4194304 bytes"):
        simulate(h, 6, 1 << 22, DemandVector(k1=3, k2=2, entries=(1, 2, 3, 4, 5, 7)))


def test_transcript_dump_format(golden):
    h, _, d = golden
    result = simulate(h, 6, 4, d, seed=11)
    lines = result.transcript.dump_lines()
    assert len(lines) == 6 + 3 * 18
    assert lines[0].startswith("S 1 ")
    assert lines[6].startswith("M 1 1 ")
    for line in lines:
        kind = line.split()[0]
        assert kind in {"S", "M"}
        payload = line.split()[-1]
        assert len(payload) == 8  # 4 bytes in hex
        bytes.fromhex(payload)


def test_transcript_dump_roundtrip_stable(golden, tmp_path):
    h, _, d = golden
    a = simulate(h, 6, 4, d, seed=11)
    b = simulate(h, 6, 4, d, seed=11)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    a.transcript.dump(pa)
    b.transcript.dump(pb)
    assert pa.read_text() == pb.read_text()
    stream = io.StringIO()
    a.transcript.dump(stream)
    assert stream.getvalue() == pa.read_text()


def test_library_random_is_seeded():
    a = FileLibrary.random(3, 4, 8, seed=42)
    b = FileLibrary.random(3, 4, 8, seed=42)
    c = FileLibrary.random(3, 4, 8, seed=43)
    assert a == b
    assert a != c
    assert a.file(2) == b"".join(a.packets[1])


def reference_place(h):
    """(mirror rows, user rows) of every receiver, cell by cell from the grids."""
    rows = range(1, h.f + 1)
    mirror_rows = {
        k1: frozenset(j for j in rows if h.mirror.is_star(j, k1)) for k1 in range(1, h.k1 + 1)
    }
    user_rows = {}
    for k1, block in enumerate(h.blocks, start=1):
        for k2 in range(1, h.k2 + 1):
            user_rows[(k1, k2)] = frozenset(j for j in rows if block.grid[j - 1][k2 - 1] == STAR)
    return mirror_rows, user_rows


def test_place_matches_the_per_cell_reference():
    arrays = [h for _, h in grouping_arrays()]
    arrays += [
        build_hybrid(mn_pda(k1, t1), mn_pda(k2, t2))
        for k1 in range(1, 5)
        for t1 in range(1, k1 + 1)
        for k2 in range(1, 5)
        for t2 in range(1, k2 + 1)
    ]
    # Built by hand and never verified: B1-B4 and C1-C3 all fail.
    mirror = MirrorPlacement(grid=((STAR, None), (None, None), (STAR, STAR)))
    blocks = (
        Pda(k=2, f=3, z=2, s=9, grid=((1, STAR), (STAR, STAR), (2, 2))),
        Pda(k=2, f=3, z=0, s=1, grid=((STAR, 1), (3, STAR), (STAR, STAR))),
    )
    arrays.append(Hpda(k1=2, k2=2, f=3, z1=1, z2=1, mirror=mirror, blocks=blocks, s_m={1, 7}))
    assert len(arrays) == 66 + 100 + 1
    for h in arrays:
        cache, ref = place(h, zero_library(1, h.f, 1)), reference_place(h)
        assert (cache.mirror_rows, cache.user_rows) == ref
        assert list(cache.user_rows) == list(ref[1])  # in (mirror, user) order


def test_library_validation():
    with pytest.raises(ValueError):
        FileLibrary(n_files=1, f=2, packet_bytes=2, packets=((b"ab",),))
    with pytest.raises(ValueError):
        FileLibrary(n_files=1, f=1, packet_bytes=2, packets=((b"abc",),))
    with pytest.raises(ValueError, match="^library dimensions must be positive$"):
        FileLibrary(n_files=0, f=1, packet_bytes=1, packets=())
    with pytest.raises(ValueError, match="^expected 2 files, got 1$"):
        FileLibrary(n_files=2, f=1, packet_bytes=2, packets=((b"ab",),))


def test_library_random_checks_dimensions_before_drawing():
    # A packet size of 0 or -1 used to reach range() or randbytes() and leak
    # their messages; every dimension now gets the constructor's.
    for bad in (0, -1):
        for dims in [(bad, 15, 8), (6, bad, 8), (6, 15, bad)]:
            with pytest.raises(ValueError, match="^library dimensions must be positive$"):
                FileLibrary.random(*dims, seed=0)


def test_library_random_refuses_a_library_over_budget_before_drawing():
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError,
            match="^library of 100000000 files x 12870 packets x 64 bytes has 82368000000000 bytes,"
            " more than 268435456$",
        ):
            FileLibrary.random(10**8, 12870, 64, seed=0)
        with pytest.raises(ValueError, match=r"has about 10\^406 bytes, more than 268435456$"):
            FileLibrary.random(10**400, 10**3, 10**3, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_library_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(hpda.simulation, "_MAX_LIBRARY_BYTES", 64)
    assert len(FileLibrary.random(2, 4, 8, seed=0).file(2)) == 32  # exactly the budget
    with pytest.raises(ValueError, match="^library of 3 files x 4 packets x 8 bytes has 96 bytes"):
        FileLibrary.random(3, 4, 8, seed=0)


def test_simulate_peaks_below_two_and_a_half_libraries():
    # simulate holds each packet once, as an int: never its bytes beside it.
    h = build_grouping(3, 2, 4)
    delivery_plan(h)
    library = 6 * h.f * 65536
    tracemalloc.start()
    try:
        result = simulate(h, 6, 65536)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.success
    assert peak < 2.5 * library


def test_library_random_is_one_draw_of_the_whole_library():
    for n_files, f, packet_bytes in [(1, 1, 1), (5, 3, 3), (9, 7, 5), (6, 15, 2), (10, 1, 13)]:
        blob = random.Random(77).randbytes(n_files * f * packet_bytes)
        lib = FileLibrary.random(n_files, f, packet_bytes, seed=77)
        assert b"".join(lib.file(n) for n in range(1, n_files + 1)) == blob


def criterion_9_arrays():
    arrays = [h for _, h in grouping_arrays()] + [h for _, h in hybrid_pairs()]
    assert len(arrays) == 116
    return arrays


def check_against_reference(h, n_files, packet_bytes, d, seed):
    """simulate, and the public stages run one after another, send and decode
    what the byte-wise reference does."""
    lib = FileLibrary.random(n_files, h.f, packet_bytes, seed)
    server, mirrors, files = reference_delivery(h, lib, d)
    result = simulate(h, n_files, packet_bytes, d, seed=seed)
    assert result.success
    assert result.transcript.server_signals == tuple(server)
    assert result.transcript.mirror_signals == {k1: tuple(m) for k1, m in mirrors.items()}
    sent = server_delivery(h, lib, d)
    assert sent == server
    cache = place(h, lib)
    for k1 in range(1, h.k1 + 1):
        forwarded = mirror_delivery(h, lib, d, k1, sent)
        assert forwarded == mirrors[k1]
        for k2 in range(1, h.k2 + 1):
            decoded = decode_user(h, cache, forwarded, k1, k2, d)
            assert decoded == files[(k1, k2)] == lib.file(d.demand(k1, k2))


@pytest.mark.parametrize("packet_bytes", [1, 3, 64])
def test_delivery_matches_the_bytewise_reference(packet_bytes):
    for h in criterion_9_arrays():
        n = h.k1 * h.k2
        check_against_reference(h, n, packet_bytes, worst_case_demand(h.k1, h.k2, n), packet_bytes)


def test_a_demand_of_repeated_files_matches_the_bytewise_reference():
    # Fewer files than users: user i asks for file (i mod N) + 1.
    checked = 0
    for h in criterion_9_arrays():
        users = h.k1 * h.k2
        if users > 1:
            n = users // 2
            d = DemandVector(k1=h.k1, k2=h.k2, entries=tuple(i % n + 1 for i in range(users)))
            check_against_reference(h, n, 3, d, seed=users)
            checked += 1
    assert checked > 100


def test_mirror_delivery_and_simulate_never_place(golden, monkeypatch):
    h, lib, d = golden
    calls = []
    monkeypatch.setattr(hpda.simulation, "place", lambda *args: calls.append(args))
    server = server_delivery(h, lib, d)
    for k1 in (1, 2, 3):
        mirror_delivery(h, lib, d, k1, server)
    simulate(h, 6, 8, d, seed=3)
    assert calls == []


def test_plan_compiled_once_per_array(monkeypatch):
    compile_plan = hpda.plan.compile_plan
    calls = []

    def counting(h):
        calls.append(h)
        return compile_plan(h)

    monkeypatch.setattr(hpda.plan, "compile_plan", counting)
    h = build_grouping(3, 2, 4)
    first = simulate(h, 6, 8, seed=1)
    second = simulate(h, 6, 8, seed=2)
    assert first.success and second.success
    assert len(calls) == 1
    assert delivery_plan(h) is delivery_plan(h)


def test_simulate_runs_each_stage_through_its_one_executor(monkeypatch):
    calls = Counter()
    for name in ("server_signals", "mirror_signals", "decode"):
        method = getattr(hpda.plan.DeliveryPlan, name)

        def counting(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(hpda.plan.DeliveryPlan, name, counting)
    h = build_grouping(3, 2, 4)
    assert simulate(h, 6, 8, seed=1).success
    assert calls == {"server_signals": 1, "mirror_signals": h.k1, "decode": h.k1 * h.k2}


def grid_term_count(h):
    """Packets XORed by the server, the mirrors and the users, counted from
    the grids with the delivery rules alone."""
    occ = {}
    for g, block in enumerate(h.blocks, start=1):
        for j, row in enumerate(block.grid, start=1):
            for c, cell in enumerate(row, start=1):
                if cell != STAR:
                    occ.setdefault(cell, []).append((g, j, c))
    star = h.mirror.is_star
    terms = sum(len(occ[s]) for s in h.union_integers() - h.s_m)
    for k1 in range(1, h.k1 + 1):
        own = h.s_k[k1 - 1]
        terms += sum(1 for s in own - h.s_m for g, j, _ in occ[s] if g != k1 and star(j, k1))
        terms += sum(1 for s in own & h.s_m for g, _, _ in occ[s] if g == k1)
        for k2 in range(1, h.k2 + 1):
            for j, row in enumerate(h.blocks[k1 - 1].grid, start=1):
                cell = row[k2 - 1]
                if cell != STAR:
                    terms += sum(
                        1
                        for g, jj, cc in occ[cell]
                        if (g, jj, cc) != (k1, j, k2) and not (g != k1 and star(jj, k1))
                    )
    return terms


def test_plan_module_loads_on_first_delivery_only():
    code = (
        "import sys, hpda\n"
        "hpda.verify_hpda(hpda.build_grouping(3, 2, 4))\n"
        "assert 'hpda.plan' not in sys.modules\n"
        "hpda.simulate(hpda.build_grouping(3, 2, 4), 6, 4)\n"
        "assert 'hpda.plan' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_plan_terms_match_grid_count():
    for h in (golden_15x9(), build_grouping(2, 3, 5), build_hybrid(mn_pda(2, 1), mn_pda(3, 1)),
              build_hybrid(mn_pda(3, 2), mn_pda(4, 2))):
        plan = delivery_plan(h)
        assert plan.terms == grid_term_count(h)


def test_plan_terms_of_grouping_4_4_8():
    assert delivery_plan(build_grouping(4, 4, 8)).terms == 887_040


# What simulate did with each seeded mutant below before the delivery plan
# existed, when caches were checked on every packet read.
MUTANT_OUTCOMES = (
    "decodes",
    "decodes",
    "DecodingError: mirror 1 does not cache packet row 12",
    "decodes",
    "decodes",
    "decodes",
    "DecodingError: user (1,1) does not cache packet row 14",
    "DecodingError: mirror 1 does not cache packet row 1",
    "DecodingError: mirror 1 does not cache packet row 11",
    "DecodingError: user (1,1) does not cache packet row 6",
    "decodes",
    "DecodingError: user (1,1) does not cache packet row 3",
    "decodes",
    "DecodingError: user (2,2) does not cache packet row 3",
    "DecodingError: user (2,1) does not cache packet row 6",
    "DecodingError: user (1,1) does not cache packet row 3",
    "decodes",
    "decodes",
    "decodes",
    "DecodingError: user (1,1) does not cache packet row 2",
    "fails",
    "DecodingError: mirror 2 does not cache packet row 6",
    "decodes",
    "DecodingError: mirror 2 does not cache packet row 5",
    "decodes",
    "DecodingError: mirror 2 does not cache packet row 6",
    "fails",
    "DecodingError: user (1,2) does not cache packet row 4",
    "decodes",
    "DecodingError: mirror 2 does not cache packet row 5",
    "DecodingError: mirror 2 does not cache packet row 10",
    "decodes",
    "DecodingError: user (2,1) does not cache packet row 4",
    "DecodingError: mirror 2 does not cache packet row 2",
    "decodes",
    "decodes",
    "decodes",
    "decodes",
    "decodes",
    "decodes",
)


def _outcome(h, seed):
    try:
        result = simulate(h, h.k1 * h.k2, 4, seed=seed)
    except (DecodingError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "decodes" if result.success else "fails"


def test_public_stages_convert_each_packet_once():
    # A public stage converts the packet of every term its runs hold, so those
    # terms must be distinct: on every array, or the stage must fail first.
    rng = random.Random(5)
    goldens = (golden_15x9(), build_hybrid(mn_pda(2, 1), mn_pda(3, 1)))
    arrays = [_mutate_hpda(goldens[i % 2], rng) for i in range(200)] + criterion_9_arrays()
    for h in arrays:
        plan = delivery_plan(h)
        assert len(set(plan.server.terms)) == len(plan.server.terms)
        for mirror in plan.mirrors:
            read = mirror.strip.terms + mirror.local.terms
            assert len(set(read)) == len(read)
            for user in mirror.users:
                assert user.failure or len(set(user.cancel.terms)) == len(user.cancel.terms)


def test_simulate_forwards_an_unstripped_server_signal_as_its_bytes(golden):
    # A mirror signal equal to the server's is the server's bytes object, so
    # the transcript holds its payload once.
    h, _, d = golden
    t = simulate(h, 6, 8, d, seed=1).transcript
    server = dict(t.server_signals)
    forwarded = [(p, server[s]) for m in t.mirror_signals.values() for s, p in m if server.get(s) == p]
    assert len(forwarded) == 6
    assert all(payload is sent for payload, sent in forwarded)


def test_public_stages_convert_only_the_packets_they_read(golden, monkeypatch):
    h, lib, d = golden
    plan, converted, demanded = delivery_plan(h), [], hpda.simulation._demanded

    def keeping(*args):
        converted.append(demanded(*args))
        return converted[-1]

    monkeypatch.setattr(hpda.simulation, "_demanded", keeping)
    signals = mirror_delivery(h, lib, d, 1, server_delivery(h, lib, d))
    decode_user(h, place(h, lib), signals, 1, 1, d)
    mirror = plan.mirrors[0]
    read = (plan.server.terms, mirror.strip.terms + mirror.local.terms, mirror.users[0].cancel.terms)
    assert [sorted(values) for values in converted] == [sorted(terms) for terms in read]


def test_mutant_outcomes_unchanged():
    rng = random.Random(5)
    goldens = (golden_15x9(), build_hybrid(mn_pda(2, 1), mn_pda(3, 1)))
    outcomes = tuple(
        _outcome(_mutate_hpda(goldens[i % 2], rng), i) for i in range(len(MUTANT_OUTCOMES))
    )
    assert outcomes == MUTANT_OUTCOMES


def _result_or_error(run):
    try:
        return run()
    except (DecodingError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _staged(h, n_files, packet_bytes, seed):
    """simulate's transcript and success, from the public stages run in order:
    the server, every mirror, then user by user up to the first wrong file."""
    lib = FileLibrary.random(n_files, h.f, packet_bytes, seed)
    d = worst_case_demand(h.k1, h.k2, n_files)
    server = server_delivery(h, lib, d)
    mirrors = {k1: tuple(mirror_delivery(h, lib, d, k1, server)) for k1 in range(1, h.k1 + 1)}
    cache = place(h, lib)
    success = all(
        decode_user(h, cache, mirrors[k1], k1, k2, d) == lib.file(d.demand(k1, k2))
        for k1 in range(1, h.k1 + 1)
        for k2 in range(1, h.k2 + 1)
    )
    return Transcript(f=h.f, server_signals=tuple(server), mirror_signals=mirrors), success


def test_simulate_fails_as_the_public_stages_run_in_order():
    # simulate chains the plan's stage methods itself; on every mutant it must
    # raise, send and decode exactly as the public stages do.  No single
    # mutant fails at a user and at a later mirror, so each is mutated once
    # more too: then every mirror's failure must come before any user's.
    rng = random.Random(5)
    goldens = (golden_15x9(), build_hybrid(mn_pda(2, 1), mn_pda(3, 1)))
    singles = [_mutate_hpda(goldens[i % 2], rng) for i in range(200)]
    raised = Counter()
    for i, h in enumerate(singles + [_mutate_hpda(h, rng) for h in singles]):
        n = h.k1 * h.k2
        result = _result_or_error(lambda: simulate(h, n, 4, seed=i))
        staged = _result_or_error(lambda: _staged(h, n, 4, i))
        if isinstance(result, str):
            assert result == staged
            raised[result.split(" ", 2)[1]] += 1
        else:
            assert (result.transcript, result.success) == staged
    assert raised["mirror"] and raised["user"]  # both kinds of receiver fail somewhere
