"""Delivery plans: which packets every signal of an HPDA combines.

The grids alone fix which packets go into each server signal, which of them
each mirror strips and which each user cancels; the demand only picks the
files.  :func:`compile_plan` turns an array into that plan once.  One method
per stage executes it for any demand, on int packets: ``server_signals``,
``mirror_signals`` and ``decode``.  Packets and signals are ints here alone;
:mod:`hpda.simulation` converts them from and to ``bytes`` and chains the
stages.

A term names one packet of a delivery: term ``((k1 - 1) * K2 + k2 - 1) * F +
j - 1`` is packet row j of the file that user (k1, k2) demands.  The plan holds
runs of terms in flat ``array('i')`` buffers, one run per signal or per row a
user decodes.  Packets are ints while they are XORed: each set of runs takes
its payloads from one running XOR over all its terms.

Caches are honest: the compile checks every term a mirror or a user would
combine against that receiver's grid, and records the failure of a receiver
that would need a packet it neither caches nor can cancel.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter, sub, xor
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .grids import _FLIP
from .simulation import DecodingError

if TYPE_CHECKING:
    from .hierarchy import Hpda

_CODES = bytes.maketrans(b"\x00\x01", b"\x02\x01")


class Runs(NamedTuple):
    """One run of terms per id: the run of ``ids[i]`` is
    ``terms[offsets[i]:offsets[i + 1]]``."""

    ids: tuple[int, ...]
    offsets: array
    terms: array

    def payloads(self, values: Sequence[int]) -> list[int]:
        """The XOR of each run's packets; ``values[t]`` is term t's packet.

        One running XOR over all terms gives every run as ``pre[hi] ^
        pre[lo]`` at its bounds, and only the prefixes at bounds are kept.
        """
        marks = bytearray(len(self.terms) + 1)
        for bound in self.offsets:
            marks[bound] = 1
        packets = map(values.__getitem__, self.terms)
        pre = list(compress(accumulate(packets, xor, initial=0), marks))
        if len(pre) < len(self.offsets):  # an empty run shares its bound with the next run
            pre = list(map(dict(zip(dict.fromkeys(self.offsets), pre)).__getitem__, self.offsets))
        return list(map(xor, pre[1:], pre))


def _fold(starts: Iterable[int], runs: Iterable[int]) -> list[int]:
    """Each run's XOR added to its start payload; a run that adds nothing,
    such as an empty one, passes its start on."""
    return [start ^ run if run else start for start, run in zip(starts, runs)]


def _gather(seq: Sequence[int], indices: Sequence[int]) -> tuple[int, ...]:
    """``seq[i]`` for every i in ``indices``, in one C-level call."""
    if len(indices) > 1:
        return itemgetter(*indices)(seq)
    return tuple(seq[i] for i in indices)


def _runs(ids: list[int], terms: dict[int, array], keep: bytes) -> Runs:
    """The runs of ``ids``, holding only the terms t with ``keep[t]`` set."""
    flat = list(chain.from_iterable(map(terms.__getitem__, ids)))
    flags = bytes(_gather(keep, flat))
    bounds = list(accumulate(map(len, map(terms.__getitem__, ids)), initial=0))
    counts = map(bytes.count, map(flags.__getitem__, map(slice, bounds, bounds[1:])), repeat(1))
    return Runs(
        ids=tuple(ids),
        offsets=array("i", accumulate(counts, initial=0)),
        terms=array("i", compress(flat, flags)),
    )


class UserPlan(NamedTuple):
    """How one user rebuilds its file.

    ``cancel`` has one run per uncached row, rows ascending: the packets the
    user XORs out of the mirror's signal for that row's id.  Cached rows are
    read directly.  Row j of the file is ``(cached + decoded)[order[j]]``.
    """

    cancel: Runs
    cached_rows: array
    order: array
    failure: str | None


class MirrorPlan(NamedTuple):
    """One mirror's delivery, and its users'.

    ``strip`` holds, for each id received from the server, the packets of other
    blocks this mirror caches and XORs out; ``local`` holds, for each
    mirror-only id, the packets it sends from its own cache.
    """

    strip: Runs
    local: Runs
    users: tuple[UserPlan, ...]
    failure: str | None


class DeliveryPlan(NamedTuple):
    """The delivery an HPDA fixes, as runs of packet terms, for any demand.

    Built once per array by :func:`hpda.simulation.delivery_plan`.  Every
    term was checked against the grid of the receiver that combines it, and a
    mirror or user that would need a packet it cannot get carries, as
    ``failure``, the message of the ``DecodingError`` its method raises.  The
    plan's counts give the loads without building any payload.

    Each stage has one executor, its method here.  It takes term t's packet
    as the int ``values[t]``, signals as ints by id, and 1-based ``k1``,
    ``k2`` that the caller has checked.
    """

    f: int
    server: Runs
    mirrors: tuple[MirrorPlan, ...]

    @property
    def r1(self) -> Fraction:
        return Fraction(len(self.server.ids), self.f)

    @property
    def r2(self) -> Fraction:
        return max(Fraction(len(m.strip.ids) + len(m.local.ids), self.f) for m in self.mirrors)

    @property
    def terms(self) -> int:
        """Packets XORed into payloads by the server, the mirrors and the users."""
        return len(self.server.terms) + sum(
            len(m.strip.terms) + len(m.local.terms) + sum(len(u.cancel.terms) for u in m.users)
            for m in self.mirrors
        )

    @property
    def mirror_failure(self) -> str | None:
        """The failure of the first mirror that cannot deliver, if any."""
        return next(filter(None, (m.failure for m in self.mirrors)), None)

    def server_signals(self, values: Sequence[int]) -> dict[int, int]:
        return dict(zip(self.server.ids, self.server.payloads(values)))

    def mirror_signals(
        self, k1: int, received: Mapping[int, int], values: Sequence[int]
    ) -> dict[int, int]:
        """Mirror k1's signals by id, in transmission order, from the server's."""
        mirror = self.mirrors[k1 - 1]
        try:
            starts = list(map(received.__getitem__, mirror.strip.ids))
        except KeyError as exc:
            raise ValueError(f"missing server signal for id {exc.args[0]}") from None
        if mirror.failure:
            raise DecodingError(mirror.failure)
        payloads = _fold(starts, mirror.strip.payloads(values)) + mirror.local.payloads(values)
        return dict(zip(mirror.strip.ids + mirror.local.ids, payloads))

    def decode(
        self,
        k1: int,
        k2: int,
        signals: Mapping[int, int],
        values: Sequence[int],
        wanted: Sequence[int],
        held: frozenset[int] | None = None,
    ) -> list[int]:
        """The rows of user (k1, k2)'s file, from its mirror's ``signals`` by
        id; ``wanted`` are its own file's packets.

        ``held``, if given, are the 1-based rows the user's cache holds; every
        row the plan reads from the cache must be among them.
        """
        user = self.mirrors[k1 - 1].users[k2 - 1]
        if held is not None and (missing := [j + 1 for j in user.cached_rows if j + 1 not in held]):
            raise DecodingError(f"user ({k1},{k2}) does not cache packet row {missing[0]}")
        if user.failure:
            raise DecodingError(user.failure)
        try:
            starts = list(map(signals.__getitem__, user.cancel.ids))
        except KeyError as exc:
            raise DecodingError(f"no signal from mirror {k1} for id {exc.args[0]}") from None
        decoded = _fold(starts, user.cancel.payloads(values))
        pieces = list(map(wanted.__getitem__, user.cached_rows)) + decoded
        return list(map(pieces.__getitem__, user.order))


def compile_plan(h: Hpda) -> DeliveryPlan:
    """Runs and honesty checks of every stage, from the grids alone."""
    f, k2, occ = h.f, h.k2, h.occurrences
    spans = map(slice, occ.offsets, occ.offsets[1:])
    terms = dict(zip(occ.ids, map(occ.terms.__getitem__, spans)))
    server = _runs(sorted(h.union_integers() - h.s_m), terms, b"\x01" * (h.k1 * k2 * f))
    mirrors = tuple(_compile_mirror(h, g, occ.stars, occ.cached, terms) for g in range(h.k1))
    return DeliveryPlan(f=f, server=server, mirrors=mirrors)


def _compile_mirror(
    h: Hpda, g: int, stars: bytes, cached: bytes, terms: dict[int, array]
) -> MirrorPlan:
    """Plan of mirror g + 1 (0-based g); ``stars`` and ``cached`` are the
    star and mirror bytes of every term, and masks are indexed by term."""
    f, k2 = h.f, h.k2
    none, every = bytes(k2 * f), b"\x01" * (k2 * f)
    star = cached[g * k2 * f : g * k2 * f + f]  # the rows mirror g caches

    def by_block(own: bytes, other: bytes) -> bytes:
        return b"".join(own if b == g else other for b in range(h.k1))

    ids = h.s_k[g]
    strip = _runs(sorted(ids - h.s_m), terms, by_block(none, star * k2))
    local = _runs(sorted(ids & h.s_m), terms, by_block(every, none))
    # What is left of each signal of this mirror, which its users cancel.
    kept = _runs(sorted(ids), terms, by_block(every, star.translate(_FLIP) * k2))
    failure = None
    if sum(_gather(cached, local.terms)) != len(local.terms):
        bad = next(t for t in local.terms if not cached[t])
        failure = f"mirror {g + 1} does not cache packet row {bad % f + 1}"
    run_of = dict(zip(kept.ids, map(slice, kept.offsets, kept.offsets[1:])))
    cut_of = dict(zip(kept.ids, map(sub, map(sub, kept.offsets[1:], kept.offsets), repeat(1))))
    plans = tuple(
        _compile_user(h, slot, column, stars[slot * f : (slot + 1) * f], kept.terms, run_of, cut_of)
        for slot, column in enumerate(zip(*h.blocks[g].grid), start=g * k2)
    )
    return MirrorPlan(strip=strip, local=local, users=plans, failure=failure)


def _compile_user(
    h: Hpda,
    slot: int,
    column: tuple,
    starred: bytes,
    kept: array,
    run_of: dict[int, slice],
    cut_of: dict[int, int],
) -> UserPlan:
    """Plan of the user in term slot ``slot``, whose grid column is ``column``
    and whose star bytes are ``starred``.

    The signal for id s leaves ``kept[run_of[s]]`` to cancel: the user's own
    wanted packet and ``cut_of[s]`` others.
    """
    f, k2, users = h.f, h.k2, h.k1 * h.k2
    uncached = starred.translate(_FLIP)
    ids = tuple(compress(column, uncached))
    runs = list(chain.from_iterable(map(kept.__getitem__, map(run_of.__getitem__, ids))))
    # Per term: 0 for a packet of the user's own file, 1 on a row it caches,
    # 2 on a row it does not.  It decodes when every run holds exactly one 0,
    # its own wanted packet, and no 2.
    row_codes = starred.translate(_CODES)
    codes = _gather(row_codes * slot + bytes(f) + row_codes * (users - slot - 1), runs)
    failure = None
    if codes.count(0) != len(ids) or 2 in codes:
        rows = compress(range(f), uncached)
        failure = next(
            f"user ({slot // k2 + 1},{slot % k2 + 1}) does not cache packet row {t % f + 1}"
            for j, s in zip(rows, ids)
            for t in kept[run_of[s]]
            if t != slot * f + j and not starred[t % f]
        )
    cached_rows = array("i", compress(range(f), starred))
    rows = cached_rows.tolist() + list(compress(range(f), uncached))
    return UserPlan(
        cancel=Runs(
            ids=ids,
            offsets=array("i", accumulate(map(cut_of.__getitem__, ids), initial=0)),
            terms=array("i", compress(runs, codes)),
        ),
        cached_rows=cached_rows,
        order=array("i", sorted(range(f), key=rows.__getitem__)),
        failure=failure,
    )
