"""Finite integer domains.

A domain is a contiguous interval [lo, hi] or, when it has holes, an
interval plus a bit vector of the surviving elements.  ``FiniteDomain``
is an immutable value: models are parsed into it, the store seeds its
variables from it and hands out snapshots of them as it, and the oracle
and tests compare against it.  The store narrows a variable's four
fields in place and classifies each change itself.

``exclude_value`` and ``intersect_range`` return a fresh domain and a
``DomainDelta`` that classifies what changed.  The engine no longer
calls them: they are kept as the reference classification for tests
and because perfbench's tracer still patches the store's binding of
them by name.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional

DEFAULT_MAX_WIDTH = 1 << 20


class DomainError(ValueError):
    """Invalid domain construction (distinct from search-time failure)."""


class DeltaKind(enum.IntEnum):
    UNCHANGED = 0
    INSTANTIATED = 1
    BOUND_CHANGED = 2
    INNER_EXCLUDED = 3
    EMPTIED = 4


class DomainDelta:
    """Classification of a single narrowing step.  One shared instance
    per kind: the new domain carries the survivor of an instantiation,
    and the caller knows the value it excluded."""

    __slots__ = ("kind",)

    def __init__(self, kind):
        self.kind = kind

    def __repr__(self):
        return f"DomainDelta({DeltaKind(self.kind).name})"


UNCHANGED = DomainDelta(DeltaKind.UNCHANGED)
INSTANTIATED = DomainDelta(DeltaKind.INSTANTIATED)
BOUND_CHANGED = DomainDelta(DeltaKind.BOUND_CHANGED)
INNER_EXCLUDED = DomainDelta(DeltaKind.INNER_EXCLUDED)
EMPTIED = DomainDelta(DeltaKind.EMPTIED)


class FiniteDomain:
    """Integer domain with cached bounds and cardinality.

    ``bits`` is None for a contiguous interval; otherwise bit i of
    ``bits`` is set iff ``lo + i`` is a member, so bit 0 is set and the
    vector is hi - lo + 1 bits long, and count < hi - lo + 1 (a hole
    exists).  Instances must not be mutated after construction.
    """

    __slots__ = ("lo", "hi", "count", "bits")

    def __init__(self, lo: int, hi: int, count: int,
                 bits: Optional[int] = None):
        self.lo = lo
        self.hi = hi
        self.count = count
        self.bits = bits

    # -- queries ----------------------------------------------------------

    def contains(self, v: int) -> bool:
        if v < self.lo or v > self.hi:
            return False
        if self.bits is None:
            return True
        return (self.bits >> (v - self.lo)) & 1 == 1

    __contains__ = contains

    def is_interval(self) -> bool:
        return self.bits is None

    def values(self) -> Iterator[int]:
        """Iterate members in ascending order."""
        return members(self.lo, self.hi, self.bits)

    def __repr__(self):
        if self.count == 0:
            return "FiniteDomain(empty)"
        if self.bits is None:
            return f"FiniteDomain({self.lo}..{self.hi})"
        return "FiniteDomain({%s})" % ",".join(str(v) for v in self.values())


EMPTY_DOMAIN = FiniteDomain(0, -1, 0)


def members(lo: int, hi: int, bits: Optional[int]) -> Iterator[int]:
    """Iterate, in ascending order, the members of the domain with these
    fields.  The fields are read at the call, so the caller may narrow
    the variable they came from while it iterates."""
    if bits is None:
        return iter(range(lo, hi + 1))
    return _iter_bits(lo, bits)


def _iter_bits(lo: int, bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield lo + low.bit_length() - 1
        bits ^= low


def make_interval(lo: int, hi: int) -> FiniteDomain:
    """Contiguous domain lo..hi.  lo > hi or an over-wide span is a
    construction error, not a runtime failure."""
    if lo > hi:
        raise DomainError(f"empty interval {lo}..{hi}")
    if hi - lo + 1 > DEFAULT_MAX_WIDTH:
        raise DomainError(f"interval {lo}..{hi} wider than cap {DEFAULT_MAX_WIDTH}")
    return FiniteDomain(lo, hi, hi - lo + 1)


def make_set(values) -> FiniteDomain:
    """Domain holding exactly the given values (duplicates collapse).
    Contiguous value sets normalize to interval form."""
    vals = sorted(set(values))
    if not vals:
        raise DomainError("empty value list")
    lo, hi = vals[0], vals[-1]
    if hi - lo + 1 > DEFAULT_MAX_WIDTH:
        raise DomainError(f"value span {lo}..{hi} wider than cap {DEFAULT_MAX_WIDTH}")
    count = len(vals)
    if count == hi - lo + 1:
        return FiniteDomain(lo, hi, count)
    bits = 0
    for v in vals:
        bits |= 1 << (v - lo)
    return FiniteDomain(lo, hi, count, bits)


def _from_bits(bits: int, base: int) -> FiniteDomain:
    """Normalize a bit vector whose bit i stands for ``base + i``: shift
    it down to its lowest member, recompute the bounds, and drop the
    vector when the survivors are contiguous."""
    count = bits.bit_count()
    if count == 0:
        return EMPTY_DOMAIN
    shift = (bits & -bits).bit_length() - 1
    bits >>= shift
    lo = base + shift
    hi = lo + bits.bit_length() - 1
    if count == hi - lo + 1:
        return FiniteDomain(lo, hi, count)
    return FiniteDomain(lo, hi, count, bits)


def exclude_value(d: FiniteDomain, v: int) -> tuple[FiniteDomain, DomainDelta]:
    """Remove v from d.

    Delta classification: non-member -> UNCHANGED; last element ->
    EMPTIED; survivor count 1 -> INSTANTIATED; v at a bound ->
    BOUND_CHANGED (bounds re-tightened past holes); strictly interior
    v -> INNER_EXCLUDED.
    """
    if v < d.lo or v > d.hi:
        return d, UNCHANGED
    bits = d.bits
    if bits is not None and not (bits >> (v - d.lo)) & 1:
        return d, UNCHANGED
    if d.count == 1:
        return EMPTY_DOMAIN, EMPTIED
    if d.count == 2:
        other = d.hi if v == d.lo else d.lo
        return FiniteDomain(other, other, 1), INSTANTIATED
    if bits is None:
        if v == d.lo:
            return FiniteDomain(v + 1, d.hi, d.count - 1), BOUND_CHANGED
        if v == d.hi:
            return FiniteDomain(d.lo, v - 1, d.count - 1), BOUND_CHANGED
        width = d.hi - d.lo + 1
        bits = ((1 << width) - 1) & ~(1 << (v - d.lo))
        return FiniteDomain(d.lo, d.hi, d.count - 1, bits), INNER_EXCLUDED
    bits &= ~(1 << (v - d.lo))
    if v == d.lo or v == d.hi:
        return _from_bits(bits, d.lo), BOUND_CHANGED
    return FiniteDomain(d.lo, d.hi, d.count - 1, bits), INNER_EXCLUDED


def intersect_range(d: FiniteDomain, lo: int, hi: int) -> tuple[FiniteDomain, DomainDelta]:
    """Intersect d with [lo, hi].

    A range intersection only trims at the edges, so the delta is never
    INNER_EXCLUDED: it is UNCHANGED, BOUND_CHANGED, INSTANTIATED, or
    EMPTIED.
    """
    nlo = d.lo if lo < d.lo else lo
    nhi = d.hi if hi > d.hi else hi
    if nlo > nhi:
        return EMPTY_DOMAIN, EMPTIED
    if nlo == d.lo and nhi == d.hi:
        return d, UNCHANGED
    if d.bits is None:
        count = nhi - nlo + 1
        if count == 1:
            return FiniteDomain(nlo, nlo, 1), INSTANTIATED
        return FiniteDomain(nlo, nhi, count), BOUND_CHANGED
    width = nhi - nlo + 1
    nd = _from_bits((d.bits >> (nlo - d.lo)) & ((1 << width) - 1), nlo)
    if nd.count == 0:
        return EMPTY_DOMAIN, EMPTIED
    if nd.count == 1:
        return nd, INSTANTIATED
    return nd, BOUND_CHANGED


def is_subset_of(d1, d2) -> bool:
    """True iff every element of d1 is in d2.  Each is anything with
    ``FiniteDomain``'s four fields: a domain or a store variable.

    Cheap rejections run before the bit test: a larger size or a wider
    interval rules d1 out, and a hole-free d2 needs no test.
    """
    if d1.count > d2.count:
        return False
    if d1.lo < d2.lo or d1.hi > d2.hi:
        return False
    if d2.bits is None:
        # every d1 element lies within d2's hole-free bounds
        return True
    # d1 lies within d2's bounds, so the shift to d2's base is >= 0
    a = (1 << (d1.hi - d1.lo + 1)) - 1 if d1.bits is None else d1.bits
    return (a << (d1.lo - d2.lo)) & ~d2.bits == 0
