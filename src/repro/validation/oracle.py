"""A deliberately naive reference model of :class:`~repro.core.cache.DnsCache`.

The production cache earns its speed with incremental occupancy
counters, a lazy expiry heap, packed int keys and method rebinding.
Every one of those optimisations is a place where a bug can hide.
:class:`OracleCache` reimplements the *semantics* with none of the
machinery:

* storage is a plain dict keyed by ``(Name, RRType)`` tuples;
* recency is the dict's insertion order (the first key is coldest),
  and a touch or overwrite deletes the key and re-inserts it at the end;
* every occupancy figure is recomputed from scratch, every time, by a
  linear scan of the whole store;
* there is no observer fast path, no counting switch, no heap.

The code is meant to be checkable by eye against the documented cache
contract.  :class:`~repro.validation.differential.DifferentialCache`
drives this model in lockstep with the real one and flags the first
disagreement.

The oracle intentionally shares the public *types* of the real cache
(:class:`PutResult`, ranks, RRsets) — only the logic is independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cache import PutResult
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.records import RRset
from repro.dns.rrtypes import RRType

Key = tuple[Name, RRType]


@dataclass(slots=True)
class OracleEntry:
    """One cached RRset; field-compatible with ``CacheEntry``."""

    rrset: RRset
    rank: Rank
    stored_at: float
    expires_at: float
    published_ttl: float
    tainted: bool = False

    def is_live(self, now: float) -> bool:
        return now < self.expires_at


class OracleCache:
    """Naive dict-ordered reference implementation of the DnsCache contract."""

    def __init__(
        self,
        max_effective_ttl: float | None = None,
        max_entries: int | None = None,
        harden_ranking: bool = False,
        protect_irrs: bool = False,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_effective_ttl = max_effective_ttl
        self.max_entries = max_entries
        self.harden_ranking = harden_ranking
        self.protect_irrs = protect_irrs
        self.evictions = 0
        # Recency-ordered store: the first key is the least recently used.
        self._store: dict[Key, OracleEntry] = {}
        # Negative entries' expiries, insertion-ordered.
        self._negatives: dict[Key, float] = {}

    def _append(self, key: Key, entry: OracleEntry) -> None:
        """Store ``entry`` at the most-recently-used end.

        Assigning to an existing dict key keeps its old position, so the
        key is deleted first.
        """
        self._store.pop(key, None)
        self._store[key] = entry

    def _make_room(self, now: float) -> None:
        store = self._store
        if self.max_entries is None or len(store) < self.max_entries:
            return
        # Pass 1: drop expired tombstones, coldest first.
        doomed = [key for key, entry in store.items() if not entry.is_live(now)]
        for key in doomed:
            if len(store) < self.max_entries:
                break
            del store[key]
            self.evictions += 1
        # Pass 2: evict live entries, LRU (first key) first.  Under
        # ``protect_irrs``, NS entries are spared while any non-NS entry
        # remains (the flash-crowd admission defense).
        while len(store) >= self.max_entries:
            victim = next(iter(store))
            if self.protect_irrs and victim[1] == RRType.NS:
                victim = next((key for key in store if key[1] != RRType.NS),
                              victim)
            del store[victim]
            self.evictions += 1

    # -- positive entries -----------------------------------------------------

    def put(
        self,
        rrset: RRset,
        rank: Rank,
        now: float,
        refresh: bool = False,
        taint: bool = False,
    ) -> PutResult:
        key = rrset.key()
        ttl = rrset.ttl
        if self.max_effective_ttl is not None:
            ttl = min(ttl, self.max_effective_ttl)
        new_expiry = now + ttl
        existing = self._store.get(key)
        replaced_expired = existing is not None and not existing.is_live(now)
        same_data = False
        if existing is None:
            self._make_room(now)
        elif not replaced_expired:
            same_data = existing.rrset.same_data(rrset)
            if (
                not rank.may_replace(existing.rank)
                # Hardened ingestion: equal rank may not replace different
                # live data (mirrors the real cache's poisoning defense).
                or (self.harden_ranking and not same_data
                    and rank == existing.rank)
                # Vanilla cache: an identical copy does not restart the TTL.
                or (same_data and rank == existing.rank and not refresh)
            ):
                return PutResult(False, False, False, existing.expires_at,
                                 existing.published_ttl, existing.expires_at)

        # Every store (new key, tombstone overwrite or live replace) lands
        # at the most-recently-used end.
        self._append(key, OracleEntry(
            rrset=rrset,
            rank=rank,
            stored_at=now,
            expires_at=new_expiry,
            published_ttl=rrset.ttl,
            tainted=taint,
        ))
        return PutResult(
            stored=True,
            refreshed=same_data,
            replaced_expired=replaced_expired,
            previous_expiry=existing.expires_at if existing else None,
            previous_published_ttl=existing.published_ttl if existing else None,
            expires_at=new_expiry,
        )

    def get(self, name: Name, rrtype: RRType, now: float) -> RRset | None:
        key = (name, rrtype)
        entry = self._store.get(key)
        if entry is None or not entry.is_live(now):
            return None
        if self.max_entries is not None:
            # A hit refreshes recency on bounded caches only, exactly as
            # the real cache only `_touch`es when eviction exists.
            self._append(key, entry)
        return entry.rrset

    def get_stale(
        self,
        name: Name,
        rrtype: RRType,
        now: float,
        max_stale: float | None = None,
    ) -> RRset | None:
        entry = self._store.get((name, rrtype))
        if entry is None:
            return None
        if max_stale is not None and now - entry.expires_at > max_stale:
            return None
        return entry.rrset

    def entry(self, name: Name, rrtype: RRType) -> OracleEntry | None:
        return self._store.get((name, rrtype))

    def expires_at(self, name: Name, rrtype: RRType, now: float) -> float | None:
        entry = self._store.get((name, rrtype))
        if entry is None or not entry.is_live(now):
            return None
        return entry.expires_at

    def remove(self, name: Name, rrtype: RRType) -> bool:
        key = (name, rrtype)
        removed_negative = self._negatives.pop(key, None) is not None
        return self._store.pop(key, None) is not None or removed_negative

    # -- negative entries -----------------------------------------------------

    def put_negative(self, name: Name, rrtype: RRType, now: float, ttl: float) -> None:
        # An existing key keeps its position; only the expiry moves.
        self._negatives[(name, rrtype)] = now + ttl

    def get_negative(self, name: Name, rrtype: RRType, now: float) -> bool:
        expiry = self._negatives.get((name, rrtype))
        return expiry is not None and now < expiry

    # -- zone-oriented views --------------------------------------------------

    def zone_ns_expiry(self, zone: Name, now: float) -> float | None:
        return self.expires_at(zone, RRType.NS, now)

    def best_zone_for(
        self,
        qname: Name,
        now: float,
        exclude: frozenset[Name] | set[Name] = frozenset(),
        allow_stale: bool = False,
    ) -> Name | None:
        for ancestor in qname.ancestors():
            if ancestor.is_root:
                return None
            if ancestor in exclude:
                continue
            entry = self._store.get((ancestor, RRType.NS))
            if entry is None:
                continue
            if entry.is_live(now) or allow_stale:
                return ancestor
        return None

    # -- occupancy ------------------------------------------------------------

    def census(self, now: float) -> tuple[int, int, int]:
        """Live ``(entries, records, zones)``, recounted in one full pass."""
        entries = records = zones = 0
        ns = RRType.NS
        for (_, rrtype), entry in self._store.items():
            if entry.is_live(now):
                entries += 1
                records += len(entry.rrset.records)
                if rrtype == ns:
                    zones += 1
        return entries, records, zones

    def live_entry_count(self, now: float) -> int:
        return self.census(now)[0]

    def live_record_count(self, now: float) -> int:
        return self.census(now)[1]

    def live_zone_count(self, now: float) -> int:
        return self.census(now)[2]

    def total_entry_count(self) -> int:
        return len(self._store) + len(self._negatives)

    def purge_expired(self, now: float, older_than: float = 0.0) -> int:
        doomed = [
            key
            for key, entry in self._store.items()
            if entry.expires_at + older_than <= now
        ]
        for key in doomed:
            del self._store[key]
        doomed_negative = [
            key
            for key, expiry in self._negatives.items()
            if expiry + older_than <= now
        ]
        for key in doomed_negative:
            del self._negatives[key]
        return len(doomed) + len(doomed_negative)

    # -- full-state census (for audits) ---------------------------------------

    def snapshot_keys(self) -> list[Key]:
        """Every positive key (live and tombstone), unsorted."""
        return list(self._store)

    def snapshot_negatives(self) -> dict[Key, float]:
        """Every negative entry's expiry, keyed."""
        return dict(self._negatives)
