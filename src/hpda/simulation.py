"""Bit-exact cache placement, XOR delivery, and decoding driven by an HPDA.

Packets are byte strings; every signal is a byte-wise XOR of library packets.
Caches are honest: a receiver may only touch packets at rows its placement
grid starred, and decoding fails loudly (``DecodingError``) whenever a packet
can be neither read from cache nor cancelled, which flags an invalid array or
transcript rather than silently producing garbage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Mapping

from .hierarchy import Hpda
from .pda import STAR, _write_text


class DecodingError(RuntimeError):
    """A receiver needed a packet it neither cached nor could cancel."""


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


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
            if any(len(p) != self.packet_bytes for p in rows):
                raise ValueError(f"file {n} holds packets of uneven size")

    @classmethod
    def random(cls, n_files: int, f: int, packet_bytes: int, seed: int) -> FileLibrary:
        """Seeded pseudo-random payloads; identical seeds give identical bytes."""
        rng = random.Random(seed)
        blob = rng.randbytes(n_files * f * packet_bytes)
        packets = tuple(
            tuple(
                blob[(n * f + j) * packet_bytes : (n * f + j + 1) * packet_bytes]
                for j in range(f)
            )
            for n in range(n_files)
        )
        return cls(n_files=n_files, f=f, packet_bytes=packet_bytes, packets=packets)

    @classmethod
    def zeros(cls, n_files: int, f: int, packet_bytes: int) -> FileLibrary:
        zero = bytes(packet_bytes)
        packets = tuple(tuple(zero for _ in range(f)) for _ in range(n_files))
        return cls(n_files=n_files, f=f, packet_bytes=packet_bytes, packets=packets)

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
        if any(not isinstance(d, int) or d < 1 for d in self.entries):
            raise ValueError("demands must be positive file indices")

    def demand(self, k1: int, k2: int) -> int:
        return self.entries[(k1 - 1) * self.k2 + (k2 - 1)]


def worst_case_demand(k1: int, k2: int, n_files: int) -> DemandVector:
    """Every user requests a distinct file: user (a, b) asks for (a-1)*k2 + b."""
    if n_files < k1 * k2:
        raise ValueError(f"need at least {k1 * k2} files for distinct demands, got {n_files}")
    return DemandVector(k1=k1, k2=k2, entries=tuple(range(1, k1 * k2 + 1)))


@dataclass(frozen=True)
class CacheState:
    """Per-mirror and per-user cached packet rows (shared across all files).

    Payload access goes through the guarded accessors so that no consumer can
    read a packet its placement did not cache.
    """

    library: FileLibrary
    mirror_rows: Mapping[int, frozenset[int]]
    user_rows: Mapping[tuple[int, int], frozenset[int]]

    def mirror_packet(self, k1: int, n: int, j: int) -> bytes:
        if j not in self.mirror_rows[k1]:
            raise DecodingError(f"mirror {k1} does not cache packet row {j}")
        return self.library.packet(n, j)

    def user_packet(self, k1: int, k2: int, n: int, j: int) -> bytes:
        if j not in self.user_rows[(k1, k2)]:
            raise DecodingError(f"user ({k1},{k2}) does not cache packet row {j}")
        return self.library.packet(n, j)


def place(h: Hpda, lib: FileLibrary) -> CacheState:
    """Fill caches from the grids: starred rows are cached for every file."""
    if lib.f != h.f:
        raise ValueError(f"library splits files into {lib.f} packets, array expects {h.f}")
    mirror_rows = {
        k1: frozenset(j for j in range(1, h.f + 1) if h.mirror.is_star(j, k1))
        for k1 in range(1, h.k1 + 1)
    }
    user_rows = {}
    for k1, block in enumerate(h.blocks, start=1):
        for k2 in range(1, h.k2 + 1):
            user_rows[(k1, k2)] = frozenset(
                j for j in range(1, h.f + 1) if block.grid[j - 1][k2 - 1] == STAR
            )
    return CacheState(library=lib, mirror_rows=mirror_rows, user_rows=user_rows)


def _check_inputs(h: Hpda, lib: FileLibrary, d: DemandVector) -> None:
    if lib.f != h.f:
        raise ValueError(f"library subpacketization {lib.f} != array F {h.f}")
    if (d.k1, d.k2) != (h.k1, h.k2):
        raise ValueError(f"demand shape ({d.k1},{d.k2}) != array shape ({h.k1},{h.k2})")
    if max(d.entries) > lib.n_files:
        raise ValueError(f"demand index {max(d.entries)} exceeds library size {lib.n_files}")


def server_delivery(h: Hpda, lib: FileLibrary, d: DemandVector) -> list[tuple[int, bytes]]:
    """One multicast per id the mirrors cannot serve alone, ascending by id.

    The signal for id s is the XOR over every cell carrying s of the packet
    (demanded file of that cell's user, cell's row).
    """
    _check_inputs(h, lib, d)
    occ = h.occurrences
    signals = []
    for s in sorted(h.union_integers() - h.s_m):
        payload = bytes(lib.packet_bytes)
        for g, j, c in occ[s]:
            payload = _xor(payload, lib.packet(d.demand(g, c), j))
        signals.append((s, payload))
    return signals


def _mirror_signals(h, lib, d, k1, server_signals, cache) -> list[tuple[int, bytes]]:
    occ = h.occurrences
    received = dict(server_signals)
    own = h.s_k[k1 - 1]
    signals = []
    for s in sorted(own - h.s_m):
        if s not in received:
            raise ValueError(f"missing server signal for id {s}")
        payload = received[s]
        for g, j, c in occ[s]:
            # Strip packets this mirror cached so its users face at most
            # what their own caches cover.
            if g != k1 and h.mirror.is_star(j, k1):
                payload = _xor(payload, cache.mirror_packet(k1, d.demand(g, c), j))
        signals.append((s, payload))
    for s in sorted(own & h.s_m):
        payload = bytes(lib.packet_bytes)
        for g, j, c in occ[s]:
            if g != k1:
                continue
            payload = _xor(payload, cache.mirror_packet(k1, d.demand(g, c), j))
        signals.append((s, payload))
    return signals


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
    _check_inputs(h, lib, d)
    if not 1 <= k1 <= h.k1:
        raise ValueError(f"mirror index {k1} outside [1, {h.k1}]")
    cache = place(h, lib)
    return _mirror_signals(h, lib, d, k1, server_signals, cache)


def decode_user(
    h: Hpda,
    cache: CacheState,
    mirror_signals: list[tuple[int, bytes]],
    k1: int,
    k2: int,
    d: DemandVector,
) -> bytes:
    """Reconstruct the full file requested by user (k1, k2).

    Cached rows are read directly.  For every other row, the mirror signal for
    that row's id is XORed with the user's cached packets still present in it;
    what remains is the requested packet.
    """
    occ = h.occurrences
    n = d.demand(k1, k2)
    received = dict(mirror_signals)
    block = h.blocks[k1 - 1]
    pieces = []
    for j in range(1, h.f + 1):
        cell = block.grid[j - 1][k2 - 1]
        if cell == STAR:
            pieces.append(cache.user_packet(k1, k2, n, j))
            continue
        if cell not in received:
            raise DecodingError(f"no signal from mirror {k1} for id {cell}")
        payload = received[cell]
        for g, jj, cc in occ[cell]:
            if (g, jj, cc) == (k1, j, k2):
                continue
            if g != k1 and h.mirror.is_star(jj, k1):
                continue  # already cancelled by the mirror
            payload = _xor(payload, cache.user_packet(k1, k2, d.demand(g, cc), jj))
        pieces.append(payload)
    return b"".join(pieces)


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
    """Run placement and both delivery rounds, then decode every user.

    The library is seeded pseudo-random; ``success`` means every user
    reconstructed its requested file byte for byte.
    """
    if d is None:
        d = worst_case_demand(h.k1, h.k2, n_files)
    lib = FileLibrary.random(n_files, h.f, packet_bytes, seed)
    server = server_delivery(h, lib, d)
    cache = place(h, lib)
    mirrors = {
        k1: tuple(_mirror_signals(h, lib, d, k1, server, cache))
        for k1 in range(1, h.k1 + 1)
    }
    transcript = Transcript(f=h.f, server_signals=tuple(server), mirror_signals=mirrors)
    success = all(
        decode_user(h, cache, list(mirrors[k1]), k1, k2, d) == lib.file(d.demand(k1, k2))
        for k1 in range(1, h.k1 + 1)
        for k2 in range(1, h.k2 + 1)
    )
    return SimulationResult(
        transcript=transcript, r1=transcript.r1, r2=transcript.r2, success=success
    )
