"""Lockstep differential driver: optimised cache vs naive oracle.

:class:`DifferentialCache` *is* a :class:`~repro.core.cache.DnsCache`
(it subclasses it, so the production hot paths and state are the ones
actually exercised) that additionally owns an
:class:`~repro.validation.oracle.OracleCache` and mirrors every public
operation into it.  After each call the two results — and, on mutating
operations, the occupancy figures — are compared; the first
disagreement raises :class:`~repro.validation.errors.DivergenceError`
naming the operation.

Plugging it into a real replay is a one-line swap (the
``validation=True`` knob on :class:`~repro.core.caching_server
.CachingServer` and on :class:`~repro.experiments.parallel.ReplaySpec`),
which turns a whole simulated week of traffic into a differential test.

Implementation notes:

* Overridden methods call ``DnsCache.method(self, ...)`` explicitly, so
  a test can monkeypatch a method on ``DnsCache`` to re-inject a fixed
  bug and prove the differential layer catches it.
* ``attach_observer`` deliberately does **not** rebind ``self.get`` the
  way the base class does — the rebound method would bypass the
  comparison.  The differential ``get`` dispatches to the observed
  variant itself when a bus is attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.cache import CacheEntry, DnsCache, PutResult, cache_key, split_key
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.records import RRset
from repro.dns.rrtypes import RRType
from repro.validation.errors import DivergenceError
from repro.validation.oracle import OracleCache, OracleEntry

if TYPE_CHECKING:
    from repro.obs.events import EventBus


def _entry_fields(
    entry: "CacheEntry | OracleEntry | None",
) -> tuple[RRset, Rank, float, float, float, bool] | None:
    if entry is None:
        return None
    return (
        entry.rrset,
        entry.rank,
        entry.stored_at,
        entry.expires_at,
        entry.published_ttl,
        entry.tainted,
    )


class DifferentialCache(DnsCache):
    """A DnsCache that shadows every operation into an OracleCache."""

    def __init__(
        self,
        max_effective_ttl: float | None = None,
        max_entries: int | None = None,
        harden_ranking: bool = False,
        protect_irrs: bool = False,
    ) -> None:
        super().__init__(
            max_effective_ttl, max_entries,
            harden_ranking=harden_ranking, protect_irrs=protect_irrs,
        )
        self._oracle = OracleCache(
            max_effective_ttl=max_effective_ttl, max_entries=max_entries,
            harden_ranking=harden_ranking, protect_irrs=protect_irrs,
        )
        self.op_index = 0
        self.ops_checked = 0

    @property
    def oracle(self) -> OracleCache:
        return self._oracle

    # -- comparison plumbing --------------------------------------------------

    def _diverged(self, op: str, primary: object, oracle: object) -> None:
        raise DivergenceError(
            f"op #{self.op_index} {op}: primary={primary!r} oracle={oracle!r}",
            op=op,
            op_index=self.op_index,
            primary=primary,
            oracle=oracle,
        )

    def _compare(
        self, primary: object, oracle: object, op: str, *args: object
    ) -> None:
        """Count one check; on disagreement raise, naming the operation.

        ``op`` is a ``str.format`` template over ``args``.  It is only
        rendered on a divergence, so agreeing operations never pay for
        formatting names and times.
        """
        self.ops_checked += 1
        if primary != oracle:
            self._diverged(op.format(*args), primary, oracle)

    def _compare_occupancy(
        self, now: float | None, op: str, *args: object
    ) -> None:
        oracle = self._oracle
        self._compare(DnsCache.total_entry_count(self),
                      oracle.total_entry_count(),
                      op + " [total_entry_count]", *args)
        self._compare(self.evictions, oracle.evictions,
                      op + " [evictions]", *args)
        if now is None:
            return
        entries, records, zones = oracle.census(now)
        self._compare(DnsCache.live_entry_count(self, now), entries,
                      op + " [live_entry_count]", *args)
        self._compare(DnsCache.live_record_count(self, now), records,
                      op + " [live_record_count]", *args)
        self._compare(DnsCache.live_zone_count(self, now), zones,
                      op + " [live_zone_count]", *args)

    # -- observer handling ----------------------------------------------------

    def attach_observer(self, bus: "EventBus") -> None:
        # No method rebinding here (unlike the base class): the rebound
        # fast path would skip the oracle comparison entirely.
        self._obs = bus

    # -- shadowed operations --------------------------------------------------

    def put(
        self,
        rrset: RRset,
        rank: Rank,
        now: float,
        refresh: bool = False,
        taint: bool = False,
    ) -> PutResult:
        self.op_index += 1
        primary = DnsCache.put(self, rrset, rank, now, refresh, taint)
        oracle = self._oracle.put(rrset, rank, now, refresh=refresh,
                                  taint=taint)
        op = "put({}/{.name}, rank={.name}, now={:g}, refresh={}, taint={})"
        args = (rrset.name, rrset.rrtype, rank, now, refresh, taint)
        self._compare(primary, oracle, op, *args)
        self._compare_occupancy(now, op, *args)
        return primary

    def get(self, name: Name, rrtype: RRType, now: float) -> RRset | None:
        self.op_index += 1
        if self._obs is not None:
            primary = DnsCache._observed_get(self, name, rrtype, now)
        else:
            primary = DnsCache.get(self, name, rrtype, now)
        oracle = self._oracle.get(name, rrtype, now)
        self._compare(primary, oracle, "get({}/{.name}, now={:g})",
                      name, rrtype, now)
        return primary

    def get_stale(
        self,
        name: Name,
        rrtype: RRType,
        now: float,
        max_stale: float | None = None,
    ) -> RRset | None:
        self.op_index += 1
        primary = DnsCache.get_stale(self, name, rrtype, now, max_stale)
        oracle = self._oracle.get_stale(name, rrtype, now, max_stale)
        self._compare(primary, oracle,
                      "get_stale({}/{.name}, now={:g}, max_stale={})",
                      name, rrtype, now, max_stale)
        return primary

    def entry(self, name: Name, rrtype: RRType) -> CacheEntry | None:
        self.op_index += 1
        primary = DnsCache.entry(self, name, rrtype)
        oracle = self._oracle.entry(name, rrtype)
        self._compare(_entry_fields(primary), _entry_fields(oracle),
                      "entry({}/{.name})", name, rrtype)
        return primary

    def expires_at(self, name: Name, rrtype: RRType, now: float) -> float | None:
        self.op_index += 1
        primary = DnsCache.expires_at(self, name, rrtype, now)
        oracle = self._oracle.expires_at(name, rrtype, now)
        self._compare(primary, oracle, "expires_at({}/{.name}, now={:g})",
                      name, rrtype, now)
        return primary

    def remove(self, name: Name, rrtype: RRType) -> bool:
        self.op_index += 1
        primary = DnsCache.remove(self, name, rrtype)
        oracle = self._oracle.remove(name, rrtype)
        op = "remove({}/{.name})"
        self._compare(primary, oracle, op, name, rrtype)
        self._compare_occupancy(None, op, name, rrtype)
        return primary

    def put_negative(self, name: Name, rrtype: RRType, now: float, ttl: float) -> None:
        self.op_index += 1
        DnsCache.put_negative(self, name, rrtype, now, ttl)
        self._oracle.put_negative(name, rrtype, now, ttl)
        self._compare_occupancy(
            now, "put_negative({}/{.name}, now={:g}, ttl={:g})",
            name, rrtype, now, ttl,
        )

    def get_negative(self, name: Name, rrtype: RRType, now: float) -> bool:
        self.op_index += 1
        primary = DnsCache.get_negative(self, name, rrtype, now)
        oracle = self._oracle.get_negative(name, rrtype, now)
        self._compare(primary, oracle, "get_negative({}/{.name}, now={:g})",
                      name, rrtype, now)
        return primary

    def best_zone_for(
        self,
        qname: Name,
        now: float,
        exclude: frozenset[Name] | set[Name] = frozenset(),
        allow_stale: bool = False,
    ) -> Name | None:
        self.op_index += 1
        primary = DnsCache.best_zone_for(self, qname, now, exclude, allow_stale)
        oracle = self._oracle.best_zone_for(qname, now, exclude, allow_stale)
        self._compare(primary, oracle,
                      "best_zone_for({}, now={:g}, allow_stale={})",
                      qname, now, allow_stale)
        return primary

    def live_entry_count(self, now: float) -> int:
        self.op_index += 1
        primary = DnsCache.live_entry_count(self, now)
        self._compare(primary, self._oracle.live_entry_count(now),
                      "live_entry_count(now={:g})", now)
        return primary

    def live_record_count(self, now: float) -> int:
        self.op_index += 1
        primary = DnsCache.live_record_count(self, now)
        self._compare(primary, self._oracle.live_record_count(now),
                      "live_record_count(now={:g})", now)
        return primary

    def live_zone_count(self, now: float) -> int:
        self.op_index += 1
        primary = DnsCache.live_zone_count(self, now)
        self._compare(primary, self._oracle.live_zone_count(now),
                      "live_zone_count(now={:g})", now)
        return primary

    def total_entry_count(self) -> int:
        self.op_index += 1
        primary = DnsCache.total_entry_count(self)
        self._compare(primary, self._oracle.total_entry_count(),
                      "total_entry_count()")
        return primary

    def purge_expired(self, now: float, older_than: float = 0.0) -> int:
        self.op_index += 1
        primary = DnsCache.purge_expired(self, now, older_than)
        oracle = self._oracle.purge_expired(now, older_than)
        op = "purge_expired(now={:g}, older_than={:g})"
        self._compare(primary, oracle, op, now, older_than)
        self._compare_occupancy(now, op, now, older_than)
        return primary

    # -- full-state audit -----------------------------------------------------

    def audit(self, now: float) -> None:
        """Census both models completely; raise on *any* state mismatch.

        Called at the end of a fuzz round or replay; unlike the per-op
        comparisons this also checks keys that no operation touched
        recently.
        """
        oracle = self._oracle
        # The primary stores packed int keys (see `cache_key`); decode to
        # (Name, RRType) pairs so the comparison speaks the oracle's
        # vocabulary — a packing bug then shows up as a key mismatch.
        primary_keys = sorted(split_key(k) for k in self._entries)
        oracle_keys = sorted(oracle.snapshot_keys())
        if primary_keys != oracle_keys:
            only_primary = [k for k in primary_keys if k not in oracle_keys]
            only_oracle = [k for k in oracle_keys if k not in primary_keys]
            self._diverged(
                "audit [stored keys]",
                f"extra={only_primary}", f"extra={only_oracle}",
            )
        for key in primary_keys:
            self._compare(
                _entry_fields(self._entries[cache_key(*key)]),
                _entry_fields(oracle.entry(*key)),
                "audit [entry {}/{.name}]", *key,
            )
        self._compare(
            {split_key(k): expiry for k, expiry in self._negative.items()},
            oracle.snapshot_negatives(),
            "audit [negative entries]",
        )
        self._compare_occupancy(now, "audit")
