"""Two-layer hierarchical placement delivery arrays.

An HPDA couples a mirror placement grid (F x K1 of star/null) with K1 user
blocks (each an F x K2 placement delivery array).  The multicast ids split
into ``s_m`` (served from mirror caches alone) and per-block sets derived by
scanning; conditions B1-B4 tie the two layers together so that every user can
decode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Union

from .pda import (
    STAR,
    InvalidArrayError,
    Pda,
    PdaFormatError,
    VerificationReport,
    _distinct_ids,
    _MAX_MN_CELLS,
    _mn_rows,
    _parse_header,
    _read_text,
    _refuse_huge_f,
    _size,
    _write_text,
    verify_pda,
)

if TYPE_CHECKING:
    from .grids import Occurrences
    from .plan import DeliveryPlan

MirrorCell = Union[str, None]


@dataclass(frozen=True)
class MirrorPlacement:
    """F x K1 grid of STAR/None recording which packet rows each mirror caches."""

    grid: tuple[tuple[MirrorCell, ...], ...]

    def __post_init__(self) -> None:
        grid = tuple(tuple(row) for row in self.grid)
        if not grid or not grid[0]:
            raise ValueError("mirror grid must be nonempty")
        width = len(grid[0])
        for j, row in enumerate(grid, start=1):
            if len(row) != width:
                raise ValueError(f"mirror row {j} has {len(row)} entries, expected {width}")
            for cell in row:
                if cell is not None and cell != STAR:
                    raise ValueError(f"mirror row {j} holds invalid cell {cell!r}")
        object.__setattr__(self, "grid", grid)

    @property
    def f(self) -> int:
        return len(self.grid)

    @property
    def k1(self) -> int:
        return len(self.grid[0])

    def is_star(self, j: int, k1: int) -> bool:
        """Star test at 1-based (row, mirror)."""
        return self.grid[j - 1][k1 - 1] == STAR


@dataclass(frozen=True)
class SchemeLoads:
    """Exact per-layer loads and memory ratios of an F-division scheme."""

    r1: Fraction
    r2: Fraction
    f: int
    m1_ratio: Fraction
    m2_ratio: Fraction


@dataclass(frozen=True)
class Hpda:
    """Mirror placement plus K1 user blocks with declared (K1, K2, F, Z1, Z2).

    ``s_m`` holds the ids delivered from mirror caches alone; ``s_k`` is always
    recomputed from the block grids so a stale declaration cannot leak into
    delivery.
    """

    k1: int
    k2: int
    f: int
    z1: int
    z2: int
    mirror: MirrorPlacement
    blocks: tuple[Pda, ...]
    s_m: frozenset[int]
    s_k: tuple[frozenset[int], ...] = field(init=False)
    _occurrence_index: Occurrences | None = field(init=False, default=None, repr=False, compare=False)
    _delivery_plan: DeliveryPlan | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k1 < 1 or self.k2 < 1 or self.f < 1:
            raise ValueError("K1, K2 and F must be positive")
        if self.mirror.f != self.f or self.mirror.k1 != self.k1:
            raise ValueError(
                f"mirror grid is {self.mirror.f}x{self.mirror.k1}, expected {self.f}x{self.k1}"
            )
        _check_blocks(self.mirror, self.blocks, self.k2)
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "s_m", frozenset(self.s_m))
        object.__setattr__(self, "s_k", tuple(block.integer_set() for block in self.blocks))

    def union_integers(self) -> frozenset[int]:
        return frozenset().union(*self.s_k)

    @property
    def occurrences(self) -> Occurrences:
        """Where each id occurs in the user blocks, by plan term
        (:class:`hpda.grids.Occurrences`).

        Kept from parsing, or built on first use and kept: the array is
        frozen, so it cannot go stale.  It is kept in a declared field, not by
        ``cached_property``: writing a new key through ``__dict__`` slows
        every later attribute read of the array on CPython 3.11.  The
        delivery plan (``hpda.simulation.delivery_plan``) is kept the same way.
        """
        if self._occurrence_index is None:
            from .grids import build_index

            occ = build_index([b.grid for b in self.blocks], self.f, self.k2, self.mirror.grid)
            object.__setattr__(self, "_occurrence_index", occ)
        return self._occurrence_index


def _check_blocks(mirror: MirrorPlacement, blocks: tuple[Pda, ...], k2: int) -> None:
    """One F x K2 block per mirror column, F being the mirror grid's height."""
    if len(blocks) != mirror.k1:
        raise ValueError(f"expected {mirror.k1} blocks, got {len(blocks)}")
    for i, block in enumerate(blocks, start=1):
        if block.f != mirror.f or block.k != k2:
            raise ValueError(f"block {i} is {block.f}x{block.k}, expected {mirror.f}x{k2}")


def _assemble(
    k2: int, z1: int, z2: int, mirror_rows: Iterable, grids: Iterable, s_m: frozenset[int] | None
) -> Hpda:
    """The array of a mirror grid and K1 block grids of K2 columns each.

    F and K1 are the mirror grid's shape.  Each block's ids are scanned once,
    for its ``s`` and its kept id set.  With ``s_m`` None (a parsed array),
    ``s_m`` is derived from the occurrence index, which the array keeps.
    ``grids`` is consumed only after the mirror grid is checked nonempty.
    """
    mirror = MirrorPlacement(grid=mirror_rows)
    blocks = []
    for grid in grids:
        ids = _distinct_ids(grid)
        block = Pda(k=k2, f=mirror.f, z=z2, s=len(ids), grid=grid)
        object.__setattr__(block, "_ids", ids)
        blocks.append(block)
    occ = None
    if s_m is None:
        from .grids import build_index, mirror_only_ids

        occ = build_index([block.grid for block in blocks], mirror.f, k2, mirror.grid)
        s_m = mirror_only_ids(occ, mirror.f, k2)
    h = Hpda(k1=mirror.k1, k2=k2, f=mirror.f, z1=z1, z2=z2, mirror=mirror, blocks=blocks, s_m=s_m)
    object.__setattr__(h, "_occurrence_index", occ)
    return h


def verify_hpda(h: Hpda) -> VerificationReport:
    """Check B1-B4 against the grids.

    B1: every mirror column has Z1 stars.  B2: every block is a valid
    (K2, F, Z2, |s_k|) placement delivery array.  B3: every id in ``s_m``
    occurs in exactly one block and only at rows the owning mirror caches.
    B4: ids shared across blocks imply mirror stars wherever the same id's
    column re-enters another block's rows.
    """
    from .grids import hpda_violations

    violations = hpda_violations(h)
    return VerificationReport(valid=not violations, violations=tuple(violations))


def build_grouping(k1: int, k2: int, t: int) -> Hpda:
    """Group the columns of a k1*k2-user MN array into k1 mirror blocks.

    A block's all-star rows become that mirror's cached rows.  The stars of
    those rows are then re-labelled with fresh multicast ids so the mirrors,
    not the server, deliver them: blocks in ascending order, star rows top to
    bottom, columns left to right, ids running S+1, S+2, ...  Requires
    k2 < t < k1*k2.
    """
    mn_rows = _mn_rows(_grouping_k(k1, k2, t), t)  # no MN Pda; budget before closed forms
    _, z1, z2 = grouping_params(k1, k2, t)
    s = math.comb(k1 * k2, t + 1)
    next_id = s + 1
    cached, grids = [], []
    for g in range(k1):
        column, rows = [], []
        for row in mn_rows:
            cells = row[g * k2 : (g + 1) * k2]
            column.append(STAR if cells.count(STAR) == k2 else None)
            if column[-1] == STAR:  # an all-star row, which mirror g caches
                cells = range(next_id, next_id + k2)
                next_id += k2
            rows.append(cells)
        cached.append(column)
        grids.append(rows)
    return _assemble(k2, z1, z2, zip(*cached), grids, frozenset(range(s + 1, next_id)))


def _grouping_k(k1: int, k2: int, t: int) -> int:
    """K = K1·K2 of a grouping construction, once K1, K2 and t are checked."""
    if k1 < 1 or k2 < 1:
        raise ValueError("K1 and K2 must be positive")
    k = k1 * k2
    if not k2 < t < k:
        raise ValueError(f"t must satisfy {k2} < t < {k}, got {t}")
    return k


def grouping_params(k1: int, k2: int, t: int) -> tuple[SchemeLoads, int, int]:
    """Closed-form (loads, Z1, Z2) of the grouping construction at (k1, k2, t);
    an F = C(K, t) of more than 1,000 digits is refused before any is computed."""
    k = _grouping_k(k1, k2, t)
    _refuse_huge_f("F", (k, t))
    f = math.comb(k, t)
    z1 = math.comb(k - k2, t - k2)
    z2 = math.comb(k - 1, t - 1) - z1
    r1 = Fraction(k - t, t + 1)
    r2 = r1 - Fraction(math.comb(k - k2, t + 1), f) + Fraction(k2 * z1, f)
    m1 = Fraction(z1, f)
    return SchemeLoads(r1=r1, r2=r2, f=f, m1_ratio=m1, m2_ratio=Fraction(t, k) - m1), z1, z2


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


def build_hybrid(outer: Pda, inner: Pda) -> Hpda:
    """Compose an outer array (mirror layer) with an inner array (user layer).

    The mirror placement is the outer star pattern with every row repeated F2
    times.  Block k1 stacks F1 shifted copies of the inner array, one per
    outer cell in column k1: copies replacing equal outer integers share ids
    (the server multicasts them), copies replacing outer stars get fresh id
    ranges (their packets sit in mirror k1's cache).  An output over the cell
    budget is refused first.  An input that fails verification (the error lists
    every violation) or lacks the alphabet [1..S] is an :class:`InvalidArrayError`.
    """
    cells = outer.f * inner.f * outer.k * (1 + inner.k)
    if cells > _MAX_MN_CELLS:
        raise ValueError(
            f"hybrid of a {outer.f}x{outer.k} outer and a {inner.f}x{inner.k} inner array"
            f" has {_size(cells)} cells, more than {_MAX_MN_CELLS}"
        )
    for name, p in (("outer", outer), ("inner", inner)):
        lines = [f"  {v}" for v in verify_pda(p).violations]
        if lines:
            raise InvalidArrayError("\n".join([f"{name} array fails verification:", *lines]))
    for name, p in (("outer", outer), ("inner", inner)):
        if p.integer_set() != frozenset(range(1, p.s + 1)):
            raise InvalidArrayError(f"{name} array must use the integer alphabet [1..{p.s}]")

    f1, z1, s1 = outer.f, outer.z, outer.s
    f2, z2, s2 = inner.f, inner.z, inner.s
    mirror_rows = [
        tuple(STAR if cell == STAR else None for cell in row) for row in outer.grid for _ in range(f2)
    ]
    grids = [
        [
            tuple(cell if cell == STAR else cell + slot * s2 for cell in row)
            for slot in column
            for row in inner.grid
        ]
        for column in _slots(outer)
    ]
    s_m = frozenset(range(s1 * s2 + 1, (s1 + z1 * outer.k) * s2 + 1))
    return _assemble(inner.k, z1 * f2, z2 * f1, mirror_rows, grids, s_m)


def hybrid_params(
    outer_params: tuple[int, int, int, int], inner_params: tuple[int, int, int, int]
) -> SchemeLoads:
    """Loads of the hybrid construction from the two (K, F, Z, S) tuples."""
    _, f1, z1, s1 = outer_params
    _, f2, z2, s2 = inner_params
    return SchemeLoads(
        r1=Fraction(s1 * s2, f1 * f2),
        r2=Fraction(s2, f2),
        f=f1 * f2,
        m1_ratio=Fraction(z1, f1),
        m2_ratio=Fraction(z2, f2),
    )


def loads_from_hpda(h: Hpda) -> SchemeLoads:
    """Loads measured from the id sets of a verified array (not closed forms)."""
    report = verify_hpda(h)
    if not report.valid:
        first = report.violations[0]
        raise ValueError(f"invalid HPDA: {first.condition}: {first.message}")
    union = h.union_integers()
    return SchemeLoads(
        r1=Fraction(len(union) - len(h.s_m), h.f),
        r2=max(Fraction(len(sk), h.f) for sk in h.s_k),
        f=h.f,
        m1_ratio=Fraction(h.z1, h.f),
        m2_ratio=Fraction(h.z2, h.f),
    )


def derive_s_m(
    mirror: MirrorPlacement, blocks: tuple[Pda, ...]
) -> frozenset[int]:
    """Largest valid mirror-only id set for the given grids.

    An id qualifies when it occurs in exactly one block and every occurrence
    sits on a row that block's mirror caches; serving it from the mirror
    instead of the server is then always legal and never raises either load.
    """
    from .grids import build_index, mirror_only_ids

    k2 = blocks[0].k if blocks else 1
    _check_blocks(mirror, blocks, k2)
    occ = build_index([b.grid for b in blocks], mirror.f, k2, mirror.grid)
    return mirror_only_ids(occ, mirror.f, k2)


def format_hpda(h: Hpda) -> str:
    """Render as ``HPDA K1 K2 F Z1 Z2`` + F rows of mirror then block tokens."""
    lines = [f"HPDA {h.k1} {h.k2} {h.f} {h.z1} {h.z2}"]
    for mirror_row, *cells in zip(h.mirror.grid, *(block.grid for block in h.blocks)):
        tokens = [STAR if cell == STAR else "-" for cell in mirror_row]
        tokens.extend(map(str, chain.from_iterable(cells)))
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def parse_hpda(text: str) -> Hpda:
    """Parse the text format; id sets are derived from the grids, never stored."""
    from .grids import parse_grid

    (k1, k2, _, z1, z2), grid_lines = _parse_header(text, "HPDA", "K1 K2 F Z1 Z2")
    if k1 < 1 or k2 < 1:
        raise PdaFormatError("K1 and K2 must be positive", 1)
    # Every line is checked against K1 + K1*K2 tokens before anything is sized by K1.
    mirror_rows, cell_rows = parse_grid(grid_lines, k1, k1 + k1 * k2, k2)
    try:
        # A generator: with no grid lines, the empty mirror grid is rejected
        # before K1 blocks are made.
        grids = (tuple(cell_rows[g::k1]) for g in range(k1))
        return _assemble(k2, z1, z2, mirror_rows, grids, None)
    except ValueError as exc:
        raise PdaFormatError(str(exc)) from None


def save_hpda(h: Hpda, sink: str | Path | IO[str]) -> None:
    _write_text(format_hpda(h), sink)


def load_hpda(source: str | Path | IO[str]) -> Hpda:
    return parse_hpda(_read_text(source))
