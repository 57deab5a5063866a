"""Single-layer placement delivery arrays: construction, verification, text format.

A placement delivery array is an F x K grid whose cells are either the star
marker (a cached packet) or a positive integer (a multicast id shared by every
cell carrying that id).  All row/column indices reported by this module are
1-based, matching the usual presentation of these arrays; the raw ``grid``
tuples are plain Python sequences indexed ``grid[j - 1][k - 1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from pathlib import Path
from typing import IO, Union

STAR = "*"

Cell = Union[int, str]


class PdaFormatError(ValueError):
    """Array text that cannot be parsed; carries the offending line/column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}" + (f", token {column}" if column is not None else "")
            where = f" ({where})"
        super().__init__(f"{message}{where}")


class InvalidArrayError(ValueError):
    """An input array that fails verification or lacks the alphabet [1..S]."""


@dataclass(frozen=True)
class Violation:
    """One failed condition with 1-based witness coordinates."""

    condition: str
    coords: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.condition} at {self.coords}: {self.message}"


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class Pda:
    """F x K array over {STAR} and positive integers with declared (K, F, Z, S).

    ``z`` declares the star count of every column and ``s`` the number of
    distinct multicast ids; both are checked against the grid by
    :func:`verify_pda`, not at construction time.
    """

    k: int
    f: int
    z: int
    s: int
    grid: tuple[tuple[Cell, ...], ...]
    _ids: frozenset[int] | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1 or self.f < 1:
            raise ValueError(f"array dimensions must be positive, got F={self.f} K={self.k}")
        if not 0 <= self.z <= self.f:
            raise ValueError(f"star count Z={self.z} outside [0, {self.f}]")
        if self.s < 0:
            raise ValueError(f"integer count S={self.s} must be nonnegative")
        grid = tuple(tuple(row) for row in self.grid)
        if len(grid) != self.f:
            raise ValueError(f"grid has {len(grid)} rows, declared F={self.f}")
        for j, row in enumerate(grid, start=1):
            if len(row) != self.k:
                raise ValueError(f"row {j} has {len(row)} entries, declared K={self.k}")
            for cell in row:  # not isinstance: a bool is an int that parse_pda cannot read back
                if cell != STAR and not (type(cell) is int and cell >= 1):
                    raise ValueError(f"row {j} holds invalid cell {cell!r}")
        object.__setattr__(self, "grid", grid)

    def integer_set(self) -> frozenset[int]:
        """Distinct multicast ids present in the grid, scanned once and kept
        (the HPDA builders fill them from the scan that sets a block's ``s``)."""
        if self._ids is None:
            object.__setattr__(self, "_ids", _distinct_ids(self.grid))
        return self._ids


def _distinct_ids(rows) -> frozenset[int]:
    """Distinct multicast ids of a grid given as rows of cells."""
    return frozenset(chain.from_iterable(rows)) - {STAR}


# Cells of the largest MN array :func:`_mn_rows` builds, about 80 MB of tuple
# slots, and of the largest hybrid ``hierarchy.build_hybrid`` builds;
# grouping(4,4,8) has 205,920.
_MAX_MN_CELLS = 10**7


def _mn_params(k: int, t: int) -> tuple[int, int, int, int]:
    """(K, F, Z, S) of :func:`mn_pda`: (k, C(k,t), C(k-1,t-1), C(k,t+1))."""
    return k, math.comb(k, t), math.comb(k - 1, t - 1), math.comb(k, t + 1)


def _size(n: int) -> int | str:
    """``n`` as a refusal names it: exactly below 10^100, else by its magnitude
    (``str()`` refuses ints of more than 4,300 digits)."""
    return n if n < 10**100 else f"about 10^{math.log10(n):.0f}"


def _log10_comb(k: int, t: int) -> Fraction:
    """log10 C(k, t), unrounded, from Stirling's series.

    With m = min(t, k - t), n = k - m and r = m/n, ln C(k, t) is
    m·(ln(1+r)/r + ln(k/m)) + (ln(1+r) - ln(2πm))/2 + (1/k - 1/n - 1/m)/12,
    up to 1/(360·m³).  No factorial is computed, and ``m`` multiplies an exact
    rational, so no float overflows however large k is.
    """
    m, ln = min(t, k - t), Fraction(0)
    if m:
        n, r = k - m, m / (k - m)
        head = math.log1p(r) / r if r else 1.0  # n·ln(1+r)/m, which tends to 1
        tail = (math.log1p(r) - math.log(2 * math.pi) - math.log(m)) / 2
        tail += (1 / k - 1 / n - 1 / m) / 12
        ln = m * Fraction(head + math.log(k) - math.log(m)) + Fraction(tail)
    return ln / Fraction(math.log(10))


def _refuse_huge_f(name: str, *combs: tuple[int, int]) -> None:
    """Refuse an F = C(k, t)·... of more than 1,000 digits from its magnitude
    alone, before any is computed; never below a total k of 3,322, where
    F < 2^k < 10^1000."""
    if sum(k for k, _ in combs) >= 3322:
        magnitude = round(sum(_log10_comb(k, t) for k, t in combs))
        if magnitude >= 1000:
            terms = "*".join(f"C({k}, {t})" for k, t in combs)
            raise ValueError(f"{name} = {terms} is about 10^{magnitude}, more than 1000 digits")


def _mn_rows(k: int, t: int) -> list[tuple[Cell, ...]]:
    """Rows of :func:`mn_pda`: the (t+1)-subset of rank r writes r at
    (subset - {c}, c) for each member c, and every other cell is a star.
    Tuples, so that a block's slices of them are kept as they are, not copied.
    An array of more than ``_MAX_MN_CELLS`` cells is refused before any is made.
    """
    magnitude = round(_log10_comb(k, t) + Fraction(math.log10(k)))  # log10 of the cells
    cells = math.comb(k, t) * k if magnitude < 1000 else None  # far below str()'s 4,300 digits
    if cells is None or cells > _MAX_MN_CELLS:
        size = f"about 10^{magnitude}" if cells is None else _size(cells)
        raise ValueError(f"MN array for k={k}, t={t} has {size} cells, more than {_MAX_MN_CELLS}")
    rows = {sub: [STAR] * k for sub in combinations(range(1, k + 1), t)}  # in lexicographic order
    for r, sub in enumerate(combinations(range(1, k + 1), t + 1), start=1):
        for i, c in enumerate(sub):
            rows[sub[:i] + sub[i + 1 :]][c - 1] = r
    return list(map(tuple, rows.values()))


def mn_pda(k: int, t: int) -> Pda:
    """Canonical single-layer array on k users at memory point t/k.

    Rows are the t-subsets of [1..k] in lexicographic order.  The entry at
    (T, c) is a star when c is in T, otherwise the lexicographic rank of
    T | {c} among the (t+1)-subsets.  The result is a
    (k, C(k,t), C(k-1,t-1), C(k,t+1)) array.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not 1 <= t <= k:
        raise ValueError(f"t must be in [1, {k}], got {t}")
    rows = _mn_rows(k, t)  # the budget check comes before any closed form
    return Pda(*_mn_params(k, t), grid=rows)


def verify_pda(p: Pda) -> VerificationReport:
    """Check the declared (K, F, Z, S) against the grid.

    C1: every column holds exactly Z stars.  C2: the grid holds exactly S
    distinct integers.  C3: equal integers lie in distinct rows and columns
    (C3a) and the complementary corners of their 2x2 subarray are stars (C3b).
    Malformed declarations yield violations, never exceptions.
    """
    from .grids import pda_violations  # imported on first use, see hpda.grids

    violations = pda_violations(p)
    return VerificationReport(valid=not violations, violations=tuple(violations))


def format_pda(p: Pda) -> str:
    """Render in the text format ``PDA K F Z S`` + F rows of K tokens."""
    lines = [f"PDA {p.k} {p.f} {p.z} {p.s}"]
    lines.extend(" ".join(map(str, row)) for row in p.grid)
    return "\n".join(lines) + "\n"


def _parse_header(text: str, magic: str, fields: str) -> tuple[list[int], list[str]]:
    """Integer header values and the grid lines of a ``magic`` text.

    ``fields`` names the header values, e.g. ``"K F Z S"``; the one named F
    fixes how many grid lines must follow.  Trailing blank lines are ignored.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise PdaFormatError("empty input", 1)
    header = lines[0].split()
    names = fields.split()
    if len(header) != len(names) + 1 or header[0] != magic:
        raise PdaFormatError(f"expected header '{magic} {fields}'", 1)
    try:
        values = [int(v) for v in header[1:]]
    except ValueError:
        raise PdaFormatError("non-integer value in header", 1) from None
    f = values[names.index("F")]
    if len(lines) - 1 != f:
        raise PdaFormatError(f"expected {f} grid rows, found {len(lines) - 1}", len(lines))
    return values, lines[1:]


def parse_pda(text: str) -> Pda:
    from .grids import parse_grid

    (k, f, z, s), grid_lines = _parse_header(text, "PDA", "K F Z S")
    _, rows = parse_grid(grid_lines, 0, k, k)
    try:
        return Pda(k=k, f=f, z=z, s=s, grid=rows)
    except ValueError as exc:
        raise PdaFormatError(str(exc)) from None


def _write_text(text: str, sink: str | Path | IO[str]) -> None:
    """Write ``text`` to a path or text stream."""
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text)


def _read_text(source: str | Path | IO[str]) -> str:
    """Read all text from a path or text stream."""
    try:
        return source.read() if hasattr(source, "read") else Path(source).read_text()
    except UnicodeDecodeError as exc:
        raise PdaFormatError(f"input is not text: {exc}") from None


def save_pda(p: Pda, sink: str | Path | IO[str]) -> None:
    """Write the text format to a path or text stream."""
    _write_text(format_pda(p), sink)


def load_pda(source: str | Path | IO[str]) -> Pda:
    """Parse the text format from a path or text stream."""
    return parse_pda(_read_text(source))
