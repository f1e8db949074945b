//! Protocol selection: one fixed ladder decides, per message, which wire
//! protocol a two-sided send uses.
//!
//! Real PAMI picks eager or rendezvous inside the send call from a fixed
//! eager limit, and the Charm++ BG/Q machine layer shipped on the real
//! machine with two build-time constants (`SHORT_CUTOFF 128`,
//! `EAGER_CUTOFF 4096`). [`StaticPolicy`] is the same thing: three
//! thresholds, four comparisons, no state. The machine owns one by value
//! ([`crate::Machine::policy`]) and every context carries a copy, so
//! [`StaticPolicy::select`] inlines into [`crate::Context::send`]. Why
//! there is no feedback-driven policy beside it: DESIGN.md §17.

use bgq_torus::packet::MAX_PAYLOAD_BYTES;

/// Default short/eager crossover in bytes — the Charm++ PAMI machine
/// layer's `SHORT_CUTOFF 128`: payloads at or below it inline into a single
/// packet envelope with no region setup and no completion counter.
pub const SHORT_CUTOFF: usize = 128;

/// Which wire protocol a send uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The send is appended into a per-destination coalescing bucket
    /// (`pami::aggr`) and travels later as one record of a multi-message
    /// packet — the TRAM-style amortization of per-message software
    /// overhead. Only ever selected for payloads at or below the
    /// aggregation cutoff.
    Aggregated,
    /// Metadata and payload inline into one packet envelope — no region
    /// registration, no completion counter, no fragment loop; the receive
    /// side dispatches straight from the packet.
    Short,
    /// Payload travels with the message (memory-FIFO packets off-node,
    /// inline mailbox copy on-node).
    Eager,
    /// An RTS travels; the target pulls the payload (remote get off-node,
    /// global-VA single-copy read on-node).
    Rendezvous,
}

/// Fixed-threshold ladder: `len <= aggr` (when enabled) aggregates,
/// `len <= short` goes short (inline single packet), `len <= limit` goes
/// eager, everything larger is rendezvous, for every destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticPolicy {
    aggr: usize,
    short: usize,
    limit: usize,
}

impl StaticPolicy {
    /// A ladder with the given eager limit in bytes and the default
    /// [`SHORT_CUTOFF`] short tier.
    pub fn new(limit: usize) -> StaticPolicy {
        StaticPolicy::with_short(SHORT_CUTOFF.min(limit), limit)
    }

    /// A ladder with an explicit short cutoff (`0` disables the short
    /// tier — every small send takes the eager path, the pre-ladder
    /// behaviour the count tests baseline against).
    ///
    /// # Panics
    /// If `short` exceeds `limit` or one torus packet.
    pub fn with_short(short: usize, limit: usize) -> StaticPolicy {
        StaticPolicy::with_aggr(0, short, limit)
    }

    /// A ladder with an aggregation tier: payloads at or below `aggr`
    /// bytes coalesce unconditionally (`0` disables the tier). The machine
    /// installs this when [`crate::MachineBuilder::aggregation`] is set.
    ///
    /// # Panics
    /// If `short` or `aggr` exceeds `limit` or one torus packet.
    pub fn with_aggr(aggr: usize, short: usize, limit: usize) -> StaticPolicy {
        assert!(short <= limit, "short cutoff must not exceed the eager limit");
        assert!(aggr <= limit, "aggregation cutoff must not exceed the eager limit");
        assert!(
            short.max(aggr) <= MAX_PAYLOAD_BYTES,
            "cutoff {} exceeds one {MAX_PAYLOAD_BYTES}-byte packet: a short send, and an \
             aggregated record that falls back to one, is one packet",
            short.max(aggr)
        );
        StaticPolicy { aggr, short, limit }
    }

    /// Whether the ladder has an aggregation rung (and so needs the
    /// machine's `pami::aggr` layer).
    pub(crate) fn aggregates(&self) -> bool {
        self.aggr > 0
    }

    /// Pick the protocol for a `len`-byte send. The ladder is the same for
    /// every destination; `dest` is part of the signature so callers name
    /// the send they are asking about.
    #[inline]
    pub fn select(&self, _dest: u32, len: usize) -> Protocol {
        if self.aggr > 0 && len <= self.aggr {
            Protocol::Aggregated
        } else if self.short > 0 && len <= self.short {
            Protocol::Short
        } else if len <= self.limit {
            Protocol::Eager
        } else {
            Protocol::Rendezvous
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_matches_fixed_threshold() {
        let p = StaticPolicy::new(4096);
        assert_eq!(p.select(0, 0), Protocol::Short);
        assert_eq!(p.select(0, SHORT_CUTOFF), Protocol::Short);
        assert_eq!(p.select(0, SHORT_CUTOFF + 1), Protocol::Eager);
        assert_eq!(p.select(0, 4096), Protocol::Eager);
        assert_eq!(p.select(0, 4097), Protocol::Rendezvous);
        assert_eq!(p, StaticPolicy::with_aggr(0, SHORT_CUTOFF, 4096));
        // A limit below the default short cutoff pulls the short rung down
        // with it.
        assert_eq!(StaticPolicy::new(64), StaticPolicy::with_short(64, 64));
    }

    #[test]
    fn static_policy_short_tier_can_be_disabled() {
        let p = StaticPolicy::with_short(0, 4096);
        assert_eq!(p.select(0, 0), Protocol::Eager);
        assert_eq!(p.select(0, 8), Protocol::Eager);
        assert_eq!(p.select(0, 4097), Protocol::Rendezvous);
    }

    #[test]
    fn static_policy_aggregation_tier() {
        let p = StaticPolicy::with_aggr(64, 128, 4096);
        assert_eq!(p.select(0, 1), Protocol::Aggregated);
        assert_eq!(p.select(0, 64), Protocol::Aggregated);
        assert_eq!(p.select(0, 65), Protocol::Short);
        assert_eq!(p.select(0, 128), Protocol::Short);
        assert_eq!(p.select(0, 129), Protocol::Eager);
        assert_eq!(p.select(0, 4097), Protocol::Rendezvous);
        // Zero cutoff disables the tier outright.
        let p = StaticPolicy::with_aggr(0, 128, 4096);
        assert_eq!(p.select(0, 1), Protocol::Short);
    }

    #[test]
    #[should_panic(expected = "one packet")]
    fn short_rung_above_one_packet_is_rejected() {
        // `select` must never answer `Short` for a send the short arm
        // cannot carry: 600 B under a 1024 B cutoff would be two packets.
        StaticPolicy::with_short(1024, 4096);
    }
}
