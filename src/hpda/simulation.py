"""Bit-exact cache placement, XOR delivery, and decoding driven by an HPDA.

Every signal is a byte-wise XOR of library packets.  The grids alone fix which
packets each signal combines; the demand only picks the files.  So each array
is compiled once, on its first delivery, into a delivery plan of packet terms
(:mod:`hpda.plan`), which executes each stage on ints.  This module owns the
wire format: the stages below check their inputs, convert packets and signals
between ``bytes`` and ints, and call the plan's stage methods;
:func:`simulate` chains them.

Caches are honest: a receiver may only combine packets at rows its placement
grid starred.  The plan checks every term once, when it is built, and the
plan method that would need a forbidden packet raises ``DecodingError``,
which flags an invalid array or transcript rather than silently producing
garbage.  Payloads are ``bytes`` in the library and on the wire, and ints in
a delivery; :func:`simulate` converts each packet as it is drawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator, Mapping, Sequence

from .hierarchy import Hpda
from .pda import _size, _write_text

if TYPE_CHECKING:
    from .plan import DeliveryPlan


# Bytes of the largest library FileLibrary.random draws: 20 times the 13 MB
# of a simulate of grouping(4,4,8) with 16 files of 64-byte packets.
_MAX_LIBRARY_BYTES = 2**28
# Named explicitly: int.from_bytes has no default byte order before Python 3.11.
BYTEORDER = "big"


class DecodingError(RuntimeError):
    """A receiver needed a packet it neither cached nor could cancel."""


def _check_dimensions(n_files: int, f: int, packet_bytes: int) -> None:
    if min(n_files, f, packet_bytes) < 1:
        raise ValueError("library dimensions must be positive")
    size = n_files * f * packet_bytes
    if size > _MAX_LIBRARY_BYTES:
        raise ValueError(
            f"library of {n_files} files x {f} packets x {packet_bytes} bytes"
            f" has {_size(size)} bytes, more than {_MAX_LIBRARY_BYTES}"
        )


def _draw(n_files: int, f: int, packet_bytes: int, seed: int) -> Iterator[Iterator[bytes]]:
    """The packets of each seeded file, sliced from the drawn bytes; consume
    each file before the next.  The dimensions are checked before any draw."""
    _check_dimensions(n_files, f, packet_bytes)
    rng = random.Random(seed)
    # Drawn four files at a time, which bounds the transient blob.  The bytes
    # equal one draw of the whole library: randbytes consumes whole 32-bit
    # words, and four files always span a whole number of them.
    for first in range(0, n_files, 4):
        drawn = min(4, n_files - first)
        blob = rng.randbytes(drawn * f * packet_bytes)
        cuts = range(0, len(blob) + packet_bytes, packet_bytes)
        packets = map(blob.__getitem__, map(slice, cuts, cuts[1:]))
        yield from (islice(packets, f) for _ in range(drawn))
        del blob, packets  # before the next draw, which briefly takes twice its bytes


@dataclass(frozen=True)
class FileLibrary:
    """N files, each split into F equal packets of ``packet_bytes`` bytes."""

    n_files: int
    f: int
    packet_bytes: int
    packets: tuple[tuple[bytes, ...], ...]

    def __post_init__(self) -> None:
        if self.n_files < 1 or self.f < 1 or self.packet_bytes < 1:
            raise ValueError("library dimensions must be positive")
        if len(self.packets) != self.n_files:
            raise ValueError(f"expected {self.n_files} files, got {len(self.packets)}")
        for n, rows in enumerate(self.packets, start=1):
            if len(rows) != self.f:
                raise ValueError(f"file {n} has {len(rows)} packets, expected {self.f}")
            if set(map(len, rows)) != {self.packet_bytes}:
                raise ValueError(f"file {n} holds packets of uneven size")

    @classmethod
    def random(cls, n_files: int, f: int, packet_bytes: int, seed: int) -> FileLibrary:
        """Seeded pseudo-random payloads; identical seeds give identical bytes."""
        files = tuple(map(tuple, _draw(n_files, f, packet_bytes, seed)))
        return cls(n_files=n_files, f=f, packet_bytes=packet_bytes, packets=files)

    def packet(self, n: int, j: int) -> bytes:
        """Packet j of file n, both 1-based."""
        return self.packets[n - 1][j - 1]

    def file(self, n: int) -> bytes:
        """Whole file n as the concatenation of its F packets."""
        return b"".join(self.packets[n - 1])


@dataclass(frozen=True)
class DemandVector:
    """File index requested by each user, stored in (mirror, user) lex order."""

    k1: int
    k2: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.k1 * self.k2:
            raise ValueError(
                f"expected {self.k1 * self.k2} demands, got {len(self.entries)}"
            )
        if any(type(d) is not int or d < 1 for d in self.entries):
            raise ValueError("demands must be positive file indices")

    def demand(self, k1: int, k2: int) -> int:
        if not 1 <= k1 <= self.k1:
            raise ValueError(f"mirror index {k1} outside [1, {self.k1}]")
        if not 1 <= k2 <= self.k2:
            raise ValueError(f"user index {k2} outside [1, {self.k2}]")
        return self.entries[(k1 - 1) * self.k2 + (k2 - 1)]


def worst_case_demand(k1: int, k2: int, n_files: int) -> DemandVector:
    """Every user requests a distinct file: user (a, b) asks for (a-1)*k2 + b."""
    if n_files < k1 * k2:
        raise ValueError(f"need at least {k1 * k2} files for distinct demands, got {n_files}")
    return DemandVector(k1=k1, k2=k2, entries=tuple(range(1, k1 * k2 + 1)))


@dataclass(frozen=True)
class CacheState:
    """Per-mirror and per-user cached packet rows (shared across all files),
    and the library they were filled from."""

    library: FileLibrary
    mirror_rows: Mapping[int, frozenset[int]]
    user_rows: Mapping[tuple[int, int], frozenset[int]]


def place(h: Hpda, lib: FileLibrary) -> CacheState:
    """Fill caches from the array's star and mirror bytes (``h.occurrences``):
    starred rows are cached for every file."""
    _check_library(h, lib.f)
    occ, f, rows = h.occurrences, h.f, range(1, h.f + 1)

    def cut(flags: bytes, slot: int) -> frozenset[int]:
        return frozenset(compress(rows, flags[slot * f : (slot + 1) * f]))

    mirror_rows = {g + 1: cut(occ.cached, g * h.k2) for g in range(h.k1)}
    user_rows = {
        (g + 1, c + 1): cut(occ.stars, g * h.k2 + c) for g in range(h.k1) for c in range(h.k2)
    }
    return CacheState(library=lib, mirror_rows=mirror_rows, user_rows=user_rows)


def delivery_plan(h: Hpda) -> DeliveryPlan:
    """The array's :class:`hpda.plan.DeliveryPlan`, compiled on its first
    delivery and kept on the array."""
    if h._delivery_plan is None:
        # Imported here, so that commands which never deliver (verify,
        # compare) do not load and compile the plan module.
        from .plan import compile_plan

        object.__setattr__(h, "_delivery_plan", compile_plan(h))
    return h._delivery_plan


def _check_library(h: Hpda, f: int) -> None:
    if f != h.f:
        raise ValueError(f"library splits files into {f} packets, array expects {h.f}")


def _check_inputs(h: Hpda, d: DemandVector, n_files: int, f: int) -> None:
    _check_library(h, f)
    if (d.k1, d.k2) != (h.k1, h.k2):
        raise ValueError(f"demand shape ({d.k1},{d.k2}) != array shape ({h.k1},{h.k2})")
    if max(d.entries) > n_files:
        raise ValueError(f"demand index {max(d.entries)} exceeds library size {n_files}")


class _Ints(dict):
    """``packets[key]`` as an int, converted when first read, so a public stage
    converts only what its runs read; a packet not ``size`` bytes is refused."""

    def __init__(self, packets: Mapping[int, bytes] | Sequence[bytes], size: int) -> None:
        self.packets, self.size = packets, size

    def __missing__(self, key: int) -> int:
        packet = self.packets[key]
        if len(packet) != self.size:
            raise ValueError(f"signal for id {key} has {len(packet)} bytes, expected {self.size}")
        value = self[key] = int.from_bytes(packet, BYTEORDER)
        return value


def _demanded(lib: FileLibrary, d: DemandVector) -> _Ints:
    """The int packet of every term, converted when first read."""
    return _Ints(list(chain.from_iterable(lib.packets[n - 1] for n in d.entries)), lib.packet_bytes)


def _wire(signals: Mapping[int, int], size: int) -> list[tuple[int, bytes]]:
    return [(s, payload.to_bytes(size, BYTEORDER)) for s, payload in signals.items()]


def server_delivery(h: Hpda, lib: FileLibrary, d: DemandVector) -> list[tuple[int, bytes]]:
    """One multicast per id the mirrors cannot serve alone, ascending by id.

    The signal for id s is the XOR over every cell carrying s of the packet
    (demanded file of that cell's user, cell's row).
    """
    _check_inputs(h, d, lib.n_files, lib.f)
    return _wire(delivery_plan(h).server_signals(_demanded(lib, d)), lib.packet_bytes)


def mirror_delivery(
    h: Hpda,
    lib: FileLibrary,
    d: DemandVector,
    k1: int,
    server_signals: list[tuple[int, bytes]],
) -> list[tuple[int, bytes]]:
    """Signals broadcast by one mirror, in transmission order.

    First, every received id of this mirror's block: the server signal with
    all packets cached by this mirror XORed out.  Then every mirror-only id of
    the block, built from the mirror cache alone.  Ids ascend within each
    part.
    """
    _check_inputs(h, d, lib.n_files, lib.f)
    if not 1 <= k1 <= h.k1:
        raise ValueError(f"mirror index {k1} outside [1, {h.k1}]")
    received = _Ints(dict(server_signals), lib.packet_bytes)
    return _wire(delivery_plan(h).mirror_signals(k1, received, _demanded(lib, d)), lib.packet_bytes)


def decode_user(
    h: Hpda,
    cache: CacheState,
    mirror_signals: list[tuple[int, bytes]],
    k1: int,
    k2: int,
    d: DemandVector,
) -> bytes:
    """Reconstruct the full file requested by user (k1, k2).

    Cached rows are read directly from ``cache``'s library, at the rows the
    user's grid stars.  For every other row, the mirror signal for that row's
    id is XORed with the user's cached packets still present in it; what
    remains is the requested packet.
    """
    lib = cache.library
    _check_inputs(h, d, lib.n_files, lib.f)
    wanted = lib.packets[d.demand(k1, k2) - 1]  # d has the array's shape, so this checks k1, k2
    # The plan checked every row the user reads against its grid; the cache
    # handed in must hold those rows too.
    held = cache.user_rows.get((k1, k2), frozenset())
    signals, wanted = _Ints(dict(mirror_signals), lib.packet_bytes), _Ints(wanted, lib.packet_bytes)
    rows = delivery_plan(h).decode(k1, k2, signals, _demanded(lib, d), wanted, held)
    return b"".join(row.to_bytes(lib.packet_bytes, BYTEORDER) for row in rows)


@dataclass(frozen=True)
class Transcript:
    """Everything sent on the wire, with measured per-link packet counts."""

    f: int
    server_signals: tuple[tuple[int, bytes], ...]
    mirror_signals: dict[int, tuple[tuple[int, bytes], ...]]

    @property
    def server_packets(self) -> int:
        return len(self.server_signals)

    def mirror_packets(self, k1: int) -> int:
        return len(self.mirror_signals[k1])

    @property
    def r1(self) -> Fraction:
        return Fraction(len(self.server_signals), self.f)

    @property
    def r2(self) -> Fraction:
        return max(Fraction(len(v), self.f) for v in self.mirror_signals.values())

    def dump_lines(self) -> list[str]:
        """``S <s> <hex>`` then ``M <k1> <s> <hex>`` lines, transmission order."""
        lines = [f"S {s} {payload.hex()}" for s, payload in self.server_signals]
        for k1 in sorted(self.mirror_signals):
            lines.extend(
                f"M {k1} {s} {payload.hex()}" for s, payload in self.mirror_signals[k1]
            )
        return lines

    def dump(self, sink: str | Path | IO[str]) -> None:
        _write_text("\n".join(self.dump_lines()) + "\n", sink)


@dataclass(frozen=True)
class SimulationResult:
    transcript: Transcript
    r1: Fraction
    r2: Fraction
    success: bool


def simulate(
    h: Hpda,
    n_files: int,
    packet_bytes: int,
    d: DemandVector | None = None,
    seed: int = 0,
) -> SimulationResult:
    """Run both delivery rounds from the array's plan, then decode every user.

    The library is seeded pseudo-random; ``success`` means every user
    reconstructed its requested file byte for byte.  The plan's stage methods
    run mirror by mirror, on int packets, and only the transcript's signals
    become ``bytes``.  Failures raise as the public stages would, run in
    order: every mirror's failure before any user's.
    """
    if d is None:
        d = worst_case_demand(h.k1, h.k2, n_files)
    _check_dimensions(n_files, h.f, packet_bytes)
    _check_inputs(h, d, n_files, h.f)  # before a library that a bad demand would waste is drawn
    # Each packet becomes an int as it is drawn; no bytes of it are kept.
    drawn = _draw(n_files, h.f, packet_bytes, seed)
    files = [list(map(int.from_bytes, rows, repeat(BYTEORDER))) for rows in drawn]
    plan = delivery_plan(h)
    wanted = [files[n - 1] for n in d.entries]
    values = list(chain.from_iterable(wanted))
    received = plan.server_signals(values)
    sent = dict(_wire(received, packet_bytes))
    if plan.mirror_failure:
        raise DecodingError(plan.mirror_failure)
    # Mirror by mirror, so that only one mirror's int signals are held.
    success, mirrors = True, {}
    for k1 in range(1, h.k1 + 1):
        signals = plan.mirror_signals(k1, received, values)
        users = enumerate(wanted[(k1 - 1) * h.k2 : k1 * h.k2], start=1)
        success = success and all(plan.decode(k1, c, signals, values, f) == f for c, f in users)
        # A signal equal to the server's (its strip run is 0) reuses the server's bytes.
        mirrors[k1] = tuple(
            (s, sent[s] if received.get(s) == payload else payload.to_bytes(packet_bytes, BYTEORDER))
            for s, payload in signals.items()
        )
    transcript = Transcript(f=h.f, server_signals=tuple(sent.items()), mirror_signals=mirrors)
    return SimulationResult(transcript=transcript, r1=transcript.r1, r2=transcript.r2, success=success)
