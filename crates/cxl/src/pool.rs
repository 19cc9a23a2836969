//! The shared switch-attached KV pool of a disaggregated fleet.
//!
//! In a prefill/decode-disaggregated deployment the KV pages of a finished
//! prompt do not live in any replica group's private pool: the prefill
//! group *publishes* them over its fabric link into a bounded pool hanging
//! off the PBR switch, and a decode group later *claims* them and streams
//! tokens. [`SharedKvPool`] is the deterministic bookkeeping core of that
//! tier:
//!
//! * **bounded** — capacity is reserved when a publish is *scheduled*, so
//!   the pool can never be overcommitted by transfers still in flight;
//!   a publish that does not fit is refused (the caller defers it and
//!   retries — fabric-level backpressure);
//! * **per-link serialized** — each prefill group owns one egress link to
//!   the switch, and its publishes stream through it back to back, like
//!   the per-replica swap engines of the serving layer;
//! * **exactly-once** — an entry is keyed by request id, becomes claimable
//!   when its publish transfer completes, and leaves the pool on claim.
//!
//! Transfer *durations* are supplied by the caller (the cost model lives
//! above this crate); the pool owns capacity, link serialization and the
//! exact integer occupancy integral (token·ps) the fleet report turns into
//! a time-weighted occupancy fraction.
//!
//! # Durability: parked copies
//!
//! A claim normally hands the KV pages to the decode group and the pool
//! forgets them. A *durable* deployment instead **parks** a copy at claim
//! time ([`park`](SharedKvPool::park)): the copy holds no capacity
//! reservation — it can never refuse a publish, and it contributes nothing
//! to the peak or the occupancy integral, so a fault-free run with
//! durability on is bit-identical to one without — but it keeps the
//! context [`rescue`](SharedKvPool::rescue)-able should the claiming group
//! crash. Parked copies are a best-effort cache of the physical slack:
//! when a publish needs the room they are evicted oldest-first, and an
//! evicted context must fall back to re-prefill.

use cent_types::Time;
use std::collections::{BTreeMap, BTreeSet};

/// One published-but-unclaimed KV context resident in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolEntry {
    /// KV tokens the entry holds (its capacity reservation).
    pub tokens: u64,
    /// Instant the publish transfer started on the egress link.
    pub started: Time,
    /// Instant the publish transfer completed — the entry is claimable
    /// from here on.
    pub visible: Time,
}

/// Bounded, per-link-serialized shared KV pool (see the module docs).
#[derive(Debug, Clone)]
pub struct SharedKvPool {
    capacity_tokens: u64,
    /// Egress-link free instants, one per publishing group.
    link_free: Vec<Time>,
    /// Live entries by raw request id.
    entries: BTreeMap<u64, PoolEntry>,
    used_tokens: u64,
    peak_tokens: u64,
    /// Exact occupancy integral in token·ps, charged per entry over
    /// `[visible, claim)` at claim time.
    occupancy_token_ps: u128,
    publishes: u64,
    claims: u64,
    refusals: u64,
    /// Durable copies parked at claim time, by raw request id:
    /// `(parked_at, tokens)`. Hold no capacity reservation.
    parked: BTreeMap<u64, (Time, u64)>,
    /// The keys of `parked` in eviction order, `(parked_at, id)`.
    parked_order: BTreeSet<(Time, u64)>,
    parked_tokens: u64,
    evictions: u64,
}

impl SharedKvPool {
    /// An empty pool of `capacity_tokens` KV tokens with `links` egress
    /// links.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_tokens` is zero or `links` is zero.
    pub fn new(capacity_tokens: u64, links: usize) -> Self {
        assert!(capacity_tokens > 0, "a shared pool needs capacity");
        assert!(links > 0, "a shared pool needs at least one egress link");
        SharedKvPool {
            capacity_tokens,
            link_free: vec![Time::ZERO; links],
            entries: BTreeMap::new(),
            used_tokens: 0,
            peak_tokens: 0,
            occupancy_token_ps: 0,
            publishes: 0,
            claims: 0,
            refusals: 0,
            parked: BTreeMap::new(),
            parked_order: BTreeSet::new(),
            parked_tokens: 0,
            evictions: 0,
        }
    }

    /// The pool's capacity bound in KV tokens.
    pub fn capacity_tokens(&self) -> u64 {
        self.capacity_tokens
    }

    /// KV tokens currently reserved (published or publish-in-flight).
    pub fn used_tokens(&self) -> u64 {
        self.used_tokens
    }

    /// Largest reservation level ever observed — never exceeds
    /// [`capacity_tokens`](Self::capacity_tokens) by construction.
    pub fn peak_tokens(&self) -> u64 {
        self.peak_tokens
    }

    /// Number of live (unclaimed) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Publishes completed so far.
    pub fn publishes(&self) -> u64 {
        self.publishes
    }

    /// Claims completed so far.
    pub fn claims(&self) -> u64 {
        self.claims
    }

    /// Publish attempts refused for capacity (each refused *attempt*
    /// counts — a deferred publish retried and refused again counts
    /// twice).
    pub fn refusals(&self) -> u64 {
        self.refusals
    }

    /// Schedules a publish of `tokens` KV tokens onto egress `link`: the
    /// transfer starts no earlier than `ready` (the prompt's completion
    /// instant) and no earlier than the link frees, takes `transfer` on
    /// the wire, and the entry becomes claimable when it completes.
    /// Capacity is reserved immediately. Returns the completion instant,
    /// or `None` — with no state change beyond the refusal counter — when
    /// the reservation would exceed the bound.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range, `tokens` is zero, or `id` is
    /// already resident.
    pub fn try_publish(
        &mut self,
        id: u64,
        tokens: u64,
        ready: Time,
        link: usize,
        transfer: Time,
    ) -> Option<Time> {
        assert!(link < self.link_free.len(), "pool has no egress link {link}");
        assert!(tokens > 0, "a publish needs at least one KV token");
        if self.used_tokens + tokens > self.capacity_tokens {
            self.refusals += 1;
            return None;
        }
        let started = ready.max(self.link_free[link]);
        let visible = started + transfer;
        self.link_free[link] = visible;
        self.used_tokens += tokens;
        self.peak_tokens = self.peak_tokens.max(self.used_tokens);
        // Parked copies only borrow the physical slack: evict the oldest
        // ones until the live reservations fit alongside what remains.
        while self.used_tokens + self.parked_tokens > self.capacity_tokens {
            let (_, oldest) = self
                .parked_order
                .pop_first()
                .expect("parked copies cannot outgrow capacity without entries");
            let (_, evicted) = self.parked.remove(&oldest).expect("oldest parked copy resident");
            self.parked_tokens -= evicted;
            self.evictions += 1;
        }
        let prev = self.entries.insert(id, PoolEntry { tokens, started, visible });
        assert!(prev.is_none(), "request {id} published twice");
        self.publishes += 1;
        Some(visible)
    }

    /// Claims entry `id` at instant `at`, releasing its reservation and
    /// charging its occupancy (`tokens × (at − visible)`) to the
    /// integral. Returns the released entry.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not resident or `at` precedes the entry's
    /// visibility instant.
    pub fn claim(&mut self, id: u64, at: Time) -> PoolEntry {
        let entry = self.entries.remove(&id).expect("claimed entry is resident");
        assert!(at >= entry.visible, "claim at {at} precedes publish completion {}", entry.visible);
        self.occupancy_token_ps +=
            u128::from(entry.tokens) * u128::from(at.saturating_sub(entry.visible).as_ps());
        self.used_tokens = self
            .used_tokens
            .checked_sub(entry.tokens)
            .expect("pool released more tokens than it held");
        self.claims += 1;
        entry
    }

    /// Parks a durable copy of `tokens` KV tokens for request `id` at
    /// instant `at` — called right after [`claim`](Self::claim) in a
    /// durable deployment. The copy holds no capacity reservation (see the
    /// module docs) and stays rescueable until evicted by a publish that
    /// needs the room, [`rescue`](Self::rescue)d, or
    /// [`discard_parked`](Self::discard_parked)ed.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is zero or `id` already has a parked copy.
    pub fn park(&mut self, id: u64, tokens: u64, at: Time) {
        assert!(tokens > 0, "a parked copy needs at least one KV token");
        let prev = self.parked.insert(id, (at, tokens));
        assert!(prev.is_none(), "request {id} parked twice");
        self.parked_order.insert((at, id));
        self.parked_tokens += tokens;
    }

    /// Takes the parked copy for `id` out of the pool, returning its token
    /// count — the failover path when the claiming decode group crashed.
    /// `None` means the copy was never parked or has been evicted, and the
    /// context must re-prefill.
    pub fn rescue(&mut self, id: u64) -> Option<u64> {
        let (at, tokens) = self.parked.remove(&id)?;
        self.parked_order.remove(&(at, id));
        self.parked_tokens -= tokens;
        Some(tokens)
    }

    /// Discards the parked copy for `id` — the context completed normally
    /// and no longer needs a recovery copy. Returns whether a copy was
    /// still resident.
    pub fn discard_parked(&mut self, id: u64) -> bool {
        self.rescue(id).is_some()
    }

    /// KV tokens held by parked durable copies (outside the capacity
    /// reservation — see the module docs).
    pub fn parked_tokens(&self) -> u64 {
        self.parked_tokens
    }

    /// Number of parked durable copies resident.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Parked copies evicted to make physical room for later publishes.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The pool-resident entry for `id`, if any.
    pub fn entry(&self, id: u64) -> Option<&PoolEntry> {
        self.entries.get(&id)
    }

    /// Accumulated occupancy in token-seconds: each claimed entry
    /// contributed `tokens × (claim − visible)`. Divide by
    /// `capacity × makespan` for a time-weighted occupancy fraction.
    pub fn occupancy_token_seconds(&self) -> f64 {
        self.occupancy_token_ps as f64 * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Time {
        Time::from_us(us)
    }

    #[test]
    fn capacity_is_reserved_at_schedule_time() {
        let mut pool = SharedKvPool::new(100, 1);
        let done = pool.try_publish(1, 60, t(0), 0, t(10)).expect("fits");
        assert_eq!(done, t(10));
        assert_eq!(pool.used_tokens(), 60);
        // A second publish that would overcommit is refused with no state
        // change — even though the first transfer is still in flight.
        assert_eq!(pool.try_publish(2, 50, t(0), 0, t(10)), None);
        assert_eq!(pool.refusals(), 1);
        assert_eq!(pool.used_tokens(), 60);
        assert_eq!(pool.len(), 1);
        // A fitting one is accepted and serialized behind the first.
        let done2 = pool.try_publish(3, 40, t(0), 0, t(10)).expect("fits");
        assert_eq!(done2, t(20), "same link serializes transfers");
        assert_eq!(pool.peak_tokens(), 100);
    }

    #[test]
    fn links_serialize_independently() {
        let mut pool = SharedKvPool::new(1000, 2);
        let a = pool.try_publish(1, 10, t(5), 0, t(10)).expect("fits");
        let b = pool.try_publish(2, 10, t(5), 1, t(10)).expect("fits");
        assert_eq!(a, t(15));
        assert_eq!(b, t(15), "distinct links do not contend");
        let c = pool.try_publish(3, 10, t(0), 0, t(10)).expect("fits");
        assert_eq!(c, t(25), "link 0 backs up behind its first transfer");
    }

    #[test]
    fn claim_releases_and_charges_occupancy() {
        let mut pool = SharedKvPool::new(100, 1);
        pool.try_publish(7, 40, t(0), 0, t(10)).expect("fits");
        let entry = pool.claim(7, t(35));
        assert_eq!(entry.tokens, 40);
        assert_eq!(entry.visible, t(10));
        assert_eq!(pool.used_tokens(), 0);
        assert!(pool.is_empty());
        // 40 tokens over 25 µs.
        let expect = 40.0 * 25e-6;
        assert!((pool.occupancy_token_seconds() - expect).abs() < 1e-12);
        // Freed capacity is reusable.
        assert!(pool.try_publish(8, 100, t(40), 0, t(10)).is_some());
        assert_eq!(pool.peak_tokens(), 100);
    }

    #[test]
    fn parked_copies_never_refuse_publishes_and_evict_oldest_first() {
        let mut pool = SharedKvPool::new(100, 1);
        pool.try_publish(1, 60, t(0), 0, t(10)).expect("fits");
        pool.claim(1, t(20));
        pool.park(1, 60, t(20));
        pool.try_publish(2, 30, t(20), 0, t(10)).expect("fits");
        pool.claim(2, t(40));
        pool.park(2, 30, t(40));
        assert_eq!(pool.parked_tokens(), 90);
        // 90 parked + 40 live would overflow the 100-token physical pool;
        // the publish is accepted (parked copies reserve nothing) and the
        // oldest copy is evicted to make the room.
        pool.try_publish(3, 40, t(50), 0, t(10)).expect("parked copies cannot refuse a publish");
        assert_eq!(pool.evictions(), 1);
        assert_eq!(pool.rescue(1), None, "evicted copy is gone");
        assert_eq!(pool.rescue(2), Some(30), "younger copy survived");
        assert_eq!(pool.parked_tokens(), 0);
        // Parked copies never move the reservation-side statistics.
        assert_eq!(pool.peak_tokens(), 60);
        assert_eq!(pool.refusals(), 0);
    }

    #[test]
    fn rescue_and_discard_are_exactly_once() {
        let mut pool = SharedKvPool::new(100, 1);
        pool.try_publish(9, 25, t(0), 0, t(5)).expect("fits");
        pool.claim(9, t(10));
        pool.park(9, 25, t(10));
        assert_eq!(pool.parked_len(), 1);
        assert_eq!(pool.rescue(9), Some(25));
        assert_eq!(pool.rescue(9), None, "a rescued copy cannot be rescued again");
        assert!(!pool.discard_parked(9));
        pool.park(9, 25, t(30));
        assert!(pool.discard_parked(9), "completing the context releases its copy");
        assert_eq!(pool.parked_tokens(), 0);
    }

    /// The pool's parked-copy bookkeeping, as a plain scan: every copy in
    /// a list, eviction picks the smallest `(parked_at, id)`.
    #[derive(Default)]
    struct ScanOracle {
        used: u64,
        parked: Vec<(u64, Time, u64)>,
        evictions: u64,
    }

    impl ScanOracle {
        fn parked_tokens(&self) -> u64 {
            self.parked.iter().map(|&(_, _, tokens)| tokens).sum()
        }

        fn unpark(&mut self, id: u64) -> Option<u64> {
            let pos = self.parked.iter().position(|&(p, _, _)| p == id)?;
            Some(self.parked.remove(pos).2)
        }

        fn publish(&mut self, tokens: u64, capacity: u64) -> bool {
            if self.used + tokens > capacity {
                return false;
            }
            self.used += tokens;
            while self.used + self.parked_tokens() > capacity {
                let oldest = (0..self.parked.len())
                    .min_by_key(|&i| (self.parked[i].1, self.parked[i].0))
                    .expect("a parked copy to evict");
                self.parked.remove(oldest);
                self.evictions += 1;
            }
            true
        }
    }

    #[test]
    fn eviction_order_matches_a_scan_over_random_sequences() {
        use cent_types::Rng64;
        let mut evictions = 0;
        for seed in 0..40 {
            let mut rng = Rng64::seed(seed);
            let capacity = 50 + rng.next_below(200);
            let mut pool = SharedKvPool::new(capacity, 2);
            let mut oracle = ScanOracle::default();
            // Published-but-unclaimed and claimed-not-parked ids, by value.
            let mut live: Vec<(u64, u64)> = Vec::new();
            let mut claimed: Vec<(u64, u64)> = Vec::new();
            let mut now = 0u64;
            for id in 0..400u64 {
                // Coarse instants, so parked copies often tie on `at` and
                // the id decides.
                now += rng.next_below(3);
                match rng.next_below(5) {
                    0 | 1 => {
                        let tokens = 1 + rng.next_below(capacity / 3);
                        let link = rng.next_below(2) as usize;
                        let got = pool.try_publish(id, tokens, t(now), link, t(1));
                        assert_eq!(got.is_some(), oracle.publish(tokens, capacity), "seed {seed}");
                        if got.is_some() {
                            live.push((id, tokens));
                        }
                    }
                    2 if !live.is_empty() => {
                        let (id, tokens) = live.remove(rng.next_below(live.len() as u64) as usize);
                        let at = pool.entry(id).expect("live entry").visible.max(t(now));
                        pool.claim(id, at);
                        oracle.used -= tokens;
                        claimed.push((id, tokens));
                    }
                    3 if !claimed.is_empty() => {
                        let (id, tokens) =
                            claimed.remove(rng.next_below(claimed.len() as u64) as usize);
                        pool.park(id, tokens, t(now));
                        oracle.parked.push((id, t(now), tokens));
                    }
                    _ if !oracle.parked.is_empty() => {
                        let (id, _, _) =
                            oracle.parked[rng.next_below(oracle.parked.len() as u64) as usize];
                        if rng.next_below(2) == 0 {
                            assert_eq!(pool.rescue(id), oracle.unpark(id), "seed {seed}");
                        } else {
                            let expect = oracle.unpark(id).is_some();
                            assert_eq!(pool.discard_parked(id), expect, "seed {seed}");
                        }
                    }
                    _ => {}
                }
                assert_eq!(pool.evictions(), oracle.evictions, "seed {seed} op {id}");
                assert_eq!(pool.parked_tokens(), oracle.parked_tokens(), "seed {seed} op {id}");
                assert_eq!(pool.parked_len(), oracle.parked.len(), "seed {seed} op {id}");
                assert_eq!(pool.used_tokens(), oracle.used, "seed {seed} op {id}");
            }
            // Survivors are exactly the oracle's, and evicted ids are gone.
            for &(id, _, tokens) in &oracle.parked {
                assert_eq!(pool.rescue(id), Some(tokens), "seed {seed}");
            }
            assert_eq!(pool.parked_len(), 0, "seed {seed}");
            evictions += oracle.evictions;
        }
        assert!(evictions > 100, "the sequences must evict, got {evictions}");
    }

    #[test]
    #[should_panic(expected = "parked twice")]
    fn double_park_panics() {
        let mut pool = SharedKvPool::new(100, 1);
        pool.park(4, 10, t(0));
        pool.park(4, 10, t(1));
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn double_publish_panics() {
        let mut pool = SharedKvPool::new(100, 1);
        let _ = pool.try_publish(1, 10, t(0), 0, t(1));
        let _ = pool.try_publish(1, 10, t(0), 0, t(1));
    }

    #[test]
    #[should_panic(expected = "claimed entry is resident")]
    fn claiming_absent_entry_panics() {
        let mut pool = SharedKvPool::new(100, 1);
        pool.claim(1, t(0));
    }
}
