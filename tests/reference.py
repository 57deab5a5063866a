"""The paper's composition primitives, its two HPDA classes built from them,
and its two-layer delivery computed byte by byte.

The paper builds its first class by splitting an MN array's columns into
mirror groups and relabelling each group's all-star rows, and its second by
stacking shifted copies of an inner array.  ``build_grouping`` and
``build_hybrid`` slice and shift cells directly; the tests check them against
:func:`reference_grouping` and :func:`reference_hybrid`, which build the same
arrays the paper's way.  :func:`reference_delivery` builds every signal and
every decoded file straight from the grids, XORing packets byte by byte, with
no delivery plan and no int conversion.  This module imports only the public
API of ``hpda`` and keeps its own copies of the helpers it needs, so that the
reference stays independent of the code it checks.
"""

from functools import reduce
from operator import xor

from hpda import STAR, Hpda, MirrorPlacement, Pda, mn_pda


def _distinct_ids(rows) -> frozenset:
    """Distinct multicast ids of a grid given as rows of cells."""
    return frozenset(cell for row in rows for cell in row if cell != STAR)


def pda_shift(p: Pda, a: int) -> Pda:
    """Add ``a`` to every integer cell, leaving stars untouched."""
    if a == 0:
        return p
    low = min(p.integer_set(), default=1)
    if low + a < 1:
        raise ValueError(f"shift by {a} sends {low} below 1")
    rows = (tuple(cell if cell == STAR else cell + a for cell in row) for row in p.grid)
    return Pda(k=p.k, f=p.f, z=p.z, s=p.s, grid=rows)


def star_rows(p: Pda) -> list[int]:
    """Ascending 1-based indices of rows consisting entirely of stars."""
    return [j + 1 for j, row in enumerate(p.grid) if all(c == STAR for c in row)]


def column_partition(p: Pda, k1: int) -> list[Pda]:
    """Split into k1 blocks of consecutive columns, rows unchanged.

    Block i keeps columns [(i-1)*K/k1 + 1 .. i*K/k1].  Each block's declared
    star count is inherited from the parent; its integer count is recounted
    from the block's own cells.
    """
    if k1 < 1 or p.k % k1 != 0:
        raise ValueError(f"k1={k1} does not divide K={p.k}")
    width = p.k // k1
    blocks = []
    for i in range(k1):
        rows = tuple(row[i * width : (i + 1) * width] for row in p.grid)
        blocks.append(Pda(k=width, f=p.f, z=p.z, s=len(_distinct_ids(rows)), grid=rows))
    return blocks


def _slots(outer: Pda) -> list[list[int]]:
    """Slot of the inner copy replacing each outer cell, column by column.

    Integer cells s reuse slot s-1; star cells take fresh slots laid out after
    all S1 integer slots, ordered by column and then by the star's position
    down that column.  The copy in slot a is the inner array shifted by a*S2.
    """
    slots = []
    for c in range(outer.k):
        fresh = outer.s + c * outer.z
        column = []
        for row in outer.grid:
            if row[c] == STAR:
                column.append(fresh)
                fresh += 1
            else:
                column.append(row[c] - 1)
        slots.append(column)
    return slots


def inner_sets_disjoint(outer: Pda, inner: Pda) -> bool:
    """Check the hybrid's shift layout never reuses an id.

    Copies replacing equal outer integers are one copy (they share ids by
    design); every outer star gets its own copy.  These copies are pairwise
    disjoint exactly when their union holds as many ids as they do together.
    """
    base = inner.integer_set()
    shifts = {
        (c, j) if outer.grid[j][c] == STAR else outer.grid[j][c]: slot
        for c, column in enumerate(_slots(outer))
        for j, slot in enumerate(column)
    }
    union = {v + shift * inner.s for shift in shifts.values() for v in base}
    return len(union) == len(shifts) * len(base)


def reference_grouping(k1, k2, t):
    """The paper's grouping: split an MN array's columns into k1 blocks; each
    block's all-star rows become its mirror's cached rows and take fresh ids,
    block by block, row by row, left to right."""
    q = mn_pda(k1 * k2, t)
    parts = column_partition(q, k1)
    cached = [star_rows(part) for part in parts]
    next_id = q.s + 1
    grids = []
    for part, rows in zip(parts, cached):
        grid = list(part.grid)
        for j in rows:
            grid[j - 1] = tuple(range(next_id, next_id + k2))
            next_id += k2
        grids.append(grid)
    z1 = len(cached[0])
    mirror = MirrorPlacement(
        grid=[[STAR if j in rows else None for rows in cached] for j in range(1, q.f + 1)]
    )
    blocks = tuple(
        Pda(k=k2, f=q.f, z=q.z - z1, s=len(_distinct_ids(g)), grid=g) for g in grids
    )
    return Hpda(
        k1=k1, k2=k2, f=q.f, z1=z1, z2=q.z - z1, mirror=mirror, blocks=blocks,
        s_m=frozenset(range(q.s + 1, next_id)),
    )


def reference_hybrid(outer, inner):
    """The paper's hybrid: block c stacks one shifted inner copy per outer cell
    of column c.  Outer integer s takes shift (s - 1) * S2; outer stars take
    fresh shifts after all of them, column by column, top to bottom, and their
    ids are the mirror-only ones."""
    fresh = outer.s
    blocks = []
    for c in range(outer.k):
        rows = []
        for row in outer.grid:
            if row[c] == STAR:
                slot, fresh = fresh, fresh + 1
            else:
                slot = row[c] - 1
            rows.extend(pda_shift(inner, slot * inner.s).grid)
        blocks.append(
            Pda(k=inner.k, f=outer.f * inner.f, z=outer.f * inner.z, s=outer.f * inner.s, grid=rows)
        )
    mirror = MirrorPlacement(
        grid=[tuple(None if cell != STAR else STAR for cell in row) for row in outer.grid for _ in inner.grid]
    )
    return Hpda(
        k1=outer.k, k2=inner.k, f=outer.f * inner.f, z1=outer.z * inner.f, z2=inner.z * outer.f,
        mirror=mirror, blocks=tuple(blocks),
        s_m=frozenset(range(outer.s * inner.s + 1, fresh * inner.s + 1)),
    )


def _xor(size, packets):
    """The byte-wise XOR of ``size``-byte packets, zeros for none."""
    return reduce(lambda a, b: bytes(map(xor, a, b)), packets, bytes(size))


def reference_delivery(h, lib, d):
    """(server signals, mirror signals by mirror, decoded file by user) of
    ``h`` delivering demand ``d`` from library ``lib``, in transmission order.

    The server sends, for each id outside ``s_m`` in ascending order, the XOR
    of the demanded packet of every cell carrying it.  Mirror k1 forwards each
    such id of its block, ascending, with the packets of other blocks at rows
    it caches XORed out, and then sends each mirror-only id of its block,
    ascending, from its cache.  A user reads its starred rows from its cache
    and takes every other row from its mirror's signal for that row's id,
    XORing out the packets still in it.  Every packet a mirror or a user
    reads from its cache is asserted to be at a row its grid stars.
    """
    size = lib.packet_bytes
    cells = {}
    for g, block in enumerate(h.blocks, start=1):
        for j, row in enumerate(block.grid, start=1):
            for c, cell in enumerate(row, start=1):
                if cell != STAR:
                    cells.setdefault(cell, []).append((g, j, c))

    def packet(g, j, c):
        return lib.packet(d.demand(g, c), j)

    def mirror_caches(k1, j):
        return h.mirror.grid[j - 1][k1 - 1] == STAR

    server = [(s, _xor(size, [packet(*cell) for cell in cells[s]])) for s in sorted(set(cells) - h.s_m)]
    received = dict(server)
    mirrors, files = {}, {}
    for k1 in range(1, h.k1 + 1):
        ids = {s for s, where in cells.items() if any(g == k1 for g, _, _ in where)}
        mirrors[k1] = [
            (s, _xor(size, [received[s]] + [packet(g, j, c) for g, j, c in cells[s] if g != k1 and mirror_caches(k1, j)]))
            for s in sorted(ids - h.s_m)
        ]
        for s in sorted(ids & h.s_m):
            own = [(g, j, c) for g, j, c in cells[s] if g == k1]
            assert all(mirror_caches(k1, j) for _, j, _ in own)
            mirrors[k1].append((s, _xor(size, [packet(*cell) for cell in own])))
        signals = dict(mirrors[k1])
        grid = h.blocks[k1 - 1].grid
        for k2 in range(1, h.k2 + 1):
            rows = []
            for j, row in enumerate(grid, start=1):
                s = row[k2 - 1]
                if s == STAR:
                    rows.append(packet(k1, j, k2))
                    continue
                left = [
                    (g, jj, c)
                    for g, jj, c in cells[s]
                    if (g, jj, c) != (k1, j, k2) and (g == k1 or not mirror_caches(k1, jj))
                ]
                assert all(grid[jj - 1][k2 - 1] == STAR for _, jj, _ in left)
                rows.append(_xor(size, [signals[s]] + [packet(*cell) for cell in left]))
            files[(k1, k2)] = b"".join(rows)
    return server, mirrors, files
