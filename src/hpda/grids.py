"""Flat grids: the bulk text parser, the occurrence index, and checks C1-C3, B1-B4.

Every cell of an array's user blocks has a term number, as in the delivery
plan (:mod:`hpda.plan`): the cell of block g, row j, user column c (all
1-based) is term ``((g - 1) * K2 + c - 1) * F + j - 1``.  A single-layer
array is one block of K2 = K columns.  The occurrence index lists, for every
id, the terms of the cells that carry it, in flat ``array('i')`` buffers; the
checks read it, and the star layout of the grids, by term arithmetic.

Imported on first use, so that commands which never parse or verify an array
(``compare``) do not load and compile it.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import accumulate, chain, combinations, compress, repeat
from operator import eq, itemgetter, ne
from typing import TYPE_CHECKING, NamedTuple, NoReturn, Sequence

from .pda import STAR, Cell, PdaFormatError, Violation

if TYPE_CHECKING:
    from .hierarchy import Hpda
    from .pda import Pda

_MIRROR_TOKENS = {STAR: STAR, "-": None}
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class Occurrences(NamedTuple):
    """Where every id of an array's user blocks occurs, by term.

    ``ids`` are in first-occurrence order of the scan that runs block by
    block, each block row by row; the run of ``ids[i]`` is
    ``terms[offsets[i]:offsets[i + 1]]``, in that scan's order.
    The placement: ``stars[t]`` is 1 where the cell of term t is a star, and
    ``cached[t]`` 1 where its block's mirror caches its row, else 0 (no
    ``cached`` bytes for a single-layer array).
    """

    ids: tuple[int, ...]
    offsets: array
    terms: array
    stars: bytes
    cached: bytes

    def runs(self) -> zip:
        """(id, first, end) of every run, in ``ids`` order."""
        return zip(self.ids, self.offsets, self.offsets[1:])


def build_index(
    grids: Sequence[Sequence[Sequence[Cell]]], f: int, k2: int, mirror: Sequence[Sequence]
) -> Occurrences:
    """The occurrence index of blocks with ``f`` rows of ``k2`` cells each,
    block g cached by column g of the F x K1 ``mirror`` grid (empty for a
    single-layer array)."""
    runs: defaultdict[Cell, list[int]] = defaultdict(list)
    stars, cached = [], []
    for g, grid in enumerate(grids):
        first, end = g * k2 * f, (g + 1) * k2 * f
        terms = chain.from_iterable(map(range, range(first, first + f), repeat(end), repeat(f)))
        cells = list(chain.from_iterable(grid))
        ints = bytes(map(ne, cells, repeat(STAR)))
        for term, cell in compress(zip(terms, cells), ints):
            runs[cell].append(term)
        stars.extend(ints.translate(_FLIP)[c::k2] for c in range(k2))
        if mirror:
            cached.append(bytes(map(eq, map(itemgetter(g), mirror), repeat(STAR))) * k2)
    return Occurrences(
        ids=tuple(runs),
        offsets=array("i", accumulate(map(len, runs.values()), initial=0)),
        terms=array("i", chain.from_iterable(runs.values())),
        stars=b"".join(stars),
        cached=b"".join(cached),
    )


def _cell_lookup(tokens: list[str]) -> dict[str, Cell] | None:
    """Token -> cell for every distinct token, or None if any token is not
    ``*`` or a positive integer in ASCII digits."""
    distinct = dict.fromkeys(tokens)
    distinct.pop(STAR, None)
    digits = "".join(distinct)
    if digits and not (digits.isascii() and digits.isdigit()):
        return None
    try:
        values = list(map(int, distinct))
    except ValueError:  # more digits than int() converts
        return None
    if min(values, default=1) < 1:  # a literal 0, 00, ...
        return None
    lookup: dict[str, Cell] = dict(zip(distinct, values))
    lookup[STAR] = STAR
    return lookup


def parse_grid(
    lines: list[str], lead: int, width: int, chunk: int
) -> tuple[list[tuple], list[tuple[Cell, ...]]]:
    """Mirror rows and cell rows of the grid lines of an array text.

    Every line holds ``width`` tokens: ``lead`` mirror tokens (``*`` or
    ``-``), then cells.  Returns the mirror rows (STAR or None) and the cells
    of all lines in reading order, cut into tuples of ``chunk``.  The check
    runs on all lines at once; only when it fails does :func:`_locate_error`
    rescan token by token to name the first offending line and token.
    With no lines there is nothing to check, and nothing is sized by the
    header's ``lead`` or ``chunk``.
    """
    if not lines:
        return [], []
    rows = list(map(str.split, lines))
    if set(map(len, rows)) <= {width}:
        mirror = list(chain.from_iterable(map(itemgetter(slice(lead)), rows)))
        tokens = list(chain.from_iterable(map(itemgetter(slice(lead, None)), rows)))
        lookup = _cell_lookup(tokens)
        if lookup is not None and mirror.count(STAR) + mirror.count("-") == len(mirror):
            mirror_cells = map(_MIRROR_TOKENS.__getitem__, mirror)
            mirror_rows = list(zip(*[mirror_cells] * lead)) if lead else []
            return mirror_rows, list(zip(*[map(lookup.__getitem__, tokens)] * chunk))
    _locate_error(lines, lead, width)


def _locate_error(lines: list[str], lead: int, width: int) -> NoReturn:
    """Raise the :class:`PdaFormatError` of the first offending line or token."""
    for lineno, line in enumerate(lines, start=2):
        tokens = line.split()
        if len(tokens) != width:
            raise PdaFormatError(f"expected {width} tokens, found {len(tokens)}", lineno)
        for col, tok in enumerate(tokens[:lead], start=1):
            if tok not in _MIRROR_TOKENS:
                raise PdaFormatError(f"invalid mirror token {tok!r}", lineno, col)
        for col, tok in enumerate(tokens[lead:], start=lead + 1):
            if _cell_lookup([tok]) is None:
                raise PdaFormatError(f"invalid cell token {tok!r}", lineno, col)
    raise AssertionError("the grid failed the bulk check but no token is invalid")


def mirror_only_ids(occ: Occurrences, f: int, k2: int) -> frozenset[int]:
    """Ids that occur in exactly one block and only on rows its mirror caches."""
    kf, terms, cached = k2 * f, occ.terms, occ.cached
    return frozenset(
        s
        for s, lo, hi in occ.runs()
        if terms[lo] // kf == terms[hi - 1] // kf and all(map(cached.__getitem__, terms[lo:hi]))
    )


def _pair_violations(
    occ: Occurrences, f: int, k2: int, blocks: int, cover: bytes | None
) -> tuple[list[list[Violation]], list[Violation]]:
    """C3 of every block and B4, each in the order of its own scan.

    Each id's pairs of cells are taken in ``combinations`` order.  Two cells
    in one block must lie in distinct rows and columns (C3a) with stars at
    the crossed cells (C3b).  For cells in two blocks, each crossed cell must
    be a star or sit on a row the block's mirror caches (B4): ``cover[t]`` is
    1 where term t is one or the other.  Two cells of one row or column
    cross at themselves, which are not stars, so C3a fails the star test too.
    """
    kf, terms, stars = k2 * f, occ.terms, occ.stars
    c3: list[list[tuple[int, Violation]]] = [[] for _ in range(blocks)]
    b4: list[Violation] = []
    for s, lo, hi in occ.runs():
        if hi - lo < 2:
            continue
        run, first = terms[lo:hi], None
        for a, b in combinations(run, 2):
            ra, rb = a % f, b % f
            ca, cb = a - ra + rb, b - rb + ra  # a's column at b's row, and back
            if a // kf == b // kf:
                if not (stars[ca] and stars[cb]):
                    if first is None:  # the id's first cell in each block, by term
                        first = {t // kf: t for t in reversed(run)}
                    c3[a // kf].append(_c3(s, a, b, first[a // kf], f, k2))
                continue
            if not cover[ca]:
                b4.append(_b4(s, ca, f, k2))
            if not cover[cb]:
                b4.append(_b4(s, cb, f, k2))
    # A block's own scan meets its ids in the order of their first cell there.
    return [[v for _, v in sorted(block, key=itemgetter(0))] for block in c3], b4


def _cell(t: int, f: int, k2: int) -> tuple[int, int, int]:
    """1-based (block, row, user column) of term t."""
    return t // f // k2 + 1, t % f + 1, t // f % k2 + 1


def _c3(s: int, a: int, b: int, first: int, f: int, k2: int) -> tuple[int, Violation]:
    """C3 violation of the pair (a, b) of one block, keyed by the scan
    position of term ``first``, the id's first cell in that block."""
    _, j1, c1 = _cell(a, f, k2)
    _, j2, c2 = _cell(b, f, k2)
    _, j0, c0 = _cell(first, f, k2)
    if j1 == j2 or c1 == c2:
        axis = "row" if j1 == j2 else "column"
        v = Violation("C3a", (j1, c1, j2, c2), f"integer {s} repeats in the same {axis}")
    else:
        v = Violation(
            "C3b", (j1, c1, j2, c2), f"occurrences of {s} lack the star-complement 2x2 pattern"
        )
    return j0 * k2 + c0, v


def _b4(s: int, t: int, f: int, k2: int) -> Violation:
    g, j, c = _cell(t, f, k2)
    return Violation(
        "B4", (g, j, c), f"id {s}: block {g} row {j} is an integer but mirror {g} misses row {j}"
    )


def _block_violations(
    occ: Occurrences, g: int, f: int, k2: int, z: int, s: int, distinct: int, c3: list
) -> list[Violation]:
    """C1-C3 of block g (0-based) against its declared Z and S."""
    violations = []
    for c in range(k2):
        first = (g * k2 + c) * f
        stars = occ.stars.count(1, first, first + f)
        if stars != z:
            violations.append(
                Violation("C1", (c + 1,), f"column {c + 1} has {stars} stars, expected {z}")
            )
    if distinct != s:
        violations.append(Violation("C2", (), f"{distinct} distinct integers, declared S={s}"))
    return violations + c3


def pda_violations(p: Pda) -> list[Violation]:
    """C1-C3 of a single-layer array, from a transient index of its grid."""
    occ = build_index((p.grid,), p.f, p.k, ())
    (c3,), _ = _pair_violations(occ, p.f, p.k, 1, None)
    return _block_violations(occ, 0, p.f, p.k, p.z, p.s, len(p.integer_set()), c3)


def hpda_violations(h: Hpda) -> list[Violation]:
    """B1-B4 of an HPDA, from its occurrence index."""
    f, k2, occ = h.f, h.k2, h.occurrences
    kf, cached = k2 * f, occ.cached
    violations = []
    for g in range(h.k1):
        stars = cached.count(1, g * kf, g * kf + f)  # mirror g's column, as its block's first
        if stars != h.z1:
            violations.append(
                Violation("B1", (g + 1,), f"mirror column {g + 1} has {stars} stars, expected {h.z1}")
            )
    # Per term: the star bit ORed with the mirror bit byte by byte (both are 0
    # or 1, so one big-integer OR does it).
    cover = int.from_bytes(occ.stars, "big") | int.from_bytes(cached, "big")
    c3, b4 = _pair_violations(occ, f, k2, h.k1, cover.to_bytes(len(cached), "big"))
    for g, block in enumerate(h.blocks):
        if block.z != h.z2:
            violations.append(
                Violation("B2", (g + 1,), f"block {g + 1} declares Z={block.z}, expected {h.z2}")
            )
        for v in _block_violations(occ, g, f, k2, block.z, block.s, len(h.s_k[g]), c3[g]):
            violations.append(
                Violation("B2", (g + 1, *v.coords), f"block {g + 1}: {v.condition}: {v.message}")
            )
    spans = dict(zip(occ.ids, zip(occ.offsets, occ.offsets[1:])))
    for s in sorted(h.s_m - mirror_only_ids(occ, f, k2)):  # ids it holds break no B3 rule
        lo, hi = spans.get(s, (0, 0))
        run = occ.terms[lo:hi]
        owners = {t // kf for t in run}
        if len(owners) != 1:
            violations.append(
                Violation(
                    "B3",
                    (s,),
                    f"mirror-only id {s} occurs in {len(owners)} blocks, expected exactly 1",
                )
            )
        for g, j, c in (_cell(t, f, k2) for t in run if not cached[t]):
            violations.append(
                Violation(
                    "B3", (g, j, c), f"mirror-only id {s} at block {g} row {j} lacks a mirror star"
                )
            )
    return violations + b4
