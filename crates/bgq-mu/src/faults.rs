//! Deterministic fault injection for the simulated torus fabric.
//!
//! Real BG/Q links see bit flips and (rarely) outright failures; the
//! network hardware answers with link-level CRC + retransmit and a RAS
//! event stream. To exercise that machinery here, a [`FaultPlan`] describes
//! *what* goes wrong — machine-wide drop/corrupt probabilities and
//! per-link kill-at-packet-N schedules — and a [`FaultInjector`] compiled
//! from the plan decides the fate of every frame crossing a link.
//!
//! Determinism is the whole point: the injector's verdict is a pure hash of
//! `(seed, link, frame sequence number, attempt)`, so a chaos run replays
//! identically for the same seed regardless of thread interleaving, and a
//! retransmitted frame (higher `attempt`) re-rolls the dice instead of
//! being doomed forever. A plan is built in code with the fluent methods
//! and installed through [`crate::fabric::MuFabricBuilder::fault_plan`] —
//! the one door.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use bgq_torus::{Dir, TorusShape};

/// Directed-link identifier: `node_index * 10 + Dir::index()`.
pub type LinkId = u64;

/// Compute a [`LinkId`] from a node index and outgoing direction.
pub fn link_id(node: u32, dir: Dir) -> LinkId {
    node as u64 * 10 + dir.index() as u64
}

/// Split a [`LinkId`] back into (node index, direction).
pub fn link_parts(id: LinkId) -> (u32, Dir) {
    ((id / 10) as u32, Dir::all()[(id % 10) as usize])
}

/// Fault probabilities, the same on every link. All rates are in `[0, 1]`
/// and are applied in priority order drop → corrupt on a single uniform
/// draw.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct FaultRates {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame arrives with a failing CRC.
    pub corrupt: f64,
}

impl FaultRates {
    fn is_clean(&self) -> bool {
        self.drop == 0.0 && self.corrupt == 0.0
    }
}

/// Link-level retry protocol constants (the BG/Q link-retry analogue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryConfig {
    /// Sliding-window size in frames per (source, destination) channel.
    pub window: usize,
    /// Initial retransmit timeout, in link-pump ticks.
    pub rto_ticks: u64,
    /// Ceiling for the exponentially backed-off timeout.
    pub rto_max_ticks: u64,
    /// Retransmit attempts per frame before the channel is declared dead
    /// and outstanding transfers fail with a timeout.
    pub retry_budget: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig { window: 64, rto_ticks: 4, rto_max_ticks: 64, retry_budget: 10 }
    }
}

/// Largest receiver reorder-buffer capacity, in frames, a plan may ask for
/// (explicitly or through `retry.window`): each channel's receiver keeps
/// one bit per frame of it.
const MAX_REORDER_CAPACITY: usize = 1 << 16;

/// A per-link kill schedule in a [`FaultPlan`].
#[derive(Clone, Debug, PartialEq)]
pub struct LinkFault {
    /// Node index of the link's source endpoint.
    pub node: u32,
    /// Outgoing direction.
    pub dir: Dir,
    /// Kill the physical link when the N-th frame crosses it (1-based).
    /// The frame itself is lost; both directions go down.
    pub kill_at: u64,
}

/// Declarative description of everything that goes wrong in a chaos run:
/// a seed, machine-wide rates, per-link kill schedules, and the
/// retry-protocol constants. Build one with the fluent methods.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the deterministic fate hash.
    pub seed: u64,
    /// Rates on every link.
    pub default_rates: FaultRates,
    /// Per-link kill schedules.
    pub links: Vec<LinkFault>,
    /// Retry-protocol constants.
    pub retry: RetryConfig,
    /// Receiver reorder-buffer capacity in frames per channel. `None`
    /// defaults to the retry window — out-of-order frames beyond this
    /// high-water mark are refused (drop-newest) and retransmitted later.
    pub reorder_capacity: Option<usize>,
}

impl FaultPlan {
    /// An empty plan: no faults, default retry constants. Installing an
    /// empty plan still routes traffic through the reliable channel path
    /// (useful for measuring protocol overhead).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the determinism seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Machine-wide drop probability.
    pub fn drop_rate(mut self, rate: f64) -> Self {
        self.default_rates.drop = rate;
        self
    }

    /// Machine-wide corruption probability.
    pub fn corrupt_rate(mut self, rate: f64) -> Self {
        self.default_rates.corrupt = rate;
        self
    }

    /// Kill the physical link out of `node` in `dir` when its `nth` frame
    /// crosses (1-based; the frame is lost).
    pub fn kill_link_at(mut self, node: u32, dir: Dir, nth: u64) -> Self {
        assert!(nth > 0, "kill_at is 1-based");
        match self.links.iter_mut().find(|l| l.node == node && l.dir == dir) {
            Some(l) => l.kill_at = nth,
            None => self.links.push(LinkFault { node, dir, kill_at: nth }),
        }
        self
    }

    /// Set the retry-protocol constants.
    pub fn retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }

    /// Cap the receiver reorder buffer at `frames` per channel (defaults
    /// to the retry window).
    pub fn reorder_capacity(mut self, frames: usize) -> Self {
        self.reorder_capacity = Some(frames);
        self
    }

    /// Whether the plan injects any fault at all (an all-clean plan still
    /// exercises the reliable-channel protocol, just without retries).
    pub fn is_clean(&self) -> bool {
        self.default_rates.is_clean() && self.links.is_empty()
    }

    /// Sanity-check rates and retry constants.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let r = &self.default_rates;
        if [r.drop, r.corrupt].iter().any(|v| !(0.0..=1.0).contains(v)) {
            return Err(FaultPlanError::Shape("rates must be within [0, 1]"));
        }
        if self.retry.window == 0 {
            return Err(FaultPlanError::Shape("retry.window must be positive"));
        }
        if self.retry.rto_ticks == 0 || self.retry.rto_max_ticks < self.retry.rto_ticks {
            return Err(FaultPlanError::Shape(
                "retry timeouts must satisfy 0 < rto_ticks <= rto_max_ticks",
            ));
        }
        if self.reorder_capacity == Some(0) {
            return Err(FaultPlanError::Shape("reorder_capacity must be positive"));
        }
        if self.effective_reorder_capacity() > MAX_REORDER_CAPACITY {
            return Err(FaultPlanError::Shape("reorder capacity must be at most 65 536 frames"));
        }
        Ok(())
    }

    /// Effective receiver reorder-buffer capacity (explicit or the retry
    /// window).
    pub fn effective_reorder_capacity(&self) -> usize {
        self.reorder_capacity.unwrap_or(self.retry.window).max(1)
    }
}

/// Why a [`FaultPlan`] is rejected by [`FaultPlan::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A field is outside the range the retry protocol can run with.
    Shape(&'static str),
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::Shape(s) => write!(f, "fault plan: {s}"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The fate of one frame crossing one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Delivered intact.
    Pass,
    /// Silently lost.
    Drop,
    /// Delivered with a failing CRC (receiver discards it).
    Corrupt,
}

/// Runtime form of a [`FaultPlan`]: kill-schedule crossing counters and
/// the deterministic fate hash.
pub struct FaultInjector {
    plan: FaultPlan,
    /// Links with a kill schedule: kill threshold and crossing counter.
    kills: HashMap<LinkId, (u64, AtomicU64)>,
    /// Fate threshold, precomputed: a draw at or above it is `Pass`.
    pass_threshold: f64,
}

impl FaultInjector {
    /// Compile a plan. `shape` bounds-checks link node indices.
    pub fn new(plan: FaultPlan, shape: TorusShape) -> Self {
        let mut kills = HashMap::new();
        for l in &plan.links {
            assert!(
                (l.node as usize) < shape.num_nodes(),
                "fault plan names node {} outside the {}-node machine",
                l.node,
                shape.num_nodes()
            );
            kills.insert(link_id(l.node, l.dir), (l.kill_at, AtomicU64::new(0)));
        }
        let pass_threshold = plan.default_rates.drop + plan.default_rates.corrupt;
        FaultInjector { plan, kills, pass_threshold }
    }

    /// The plan this injector was compiled from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Retry-protocol constants.
    pub fn retry(&self) -> RetryConfig {
        self.plan.retry
    }

    /// Receiver reorder-buffer capacity in frames.
    pub fn reorder_capacity(&self) -> usize {
        self.plan.effective_reorder_capacity()
    }

    /// Per-link half of the dice key. `link_salt(l) + seq_salt(s, a)`
    /// (wrapping) reproduces `decide`'s hash input exactly — addition
    /// commutes — so route plans precompute this once per link and the
    /// per-frame fate peek pays a single finalizer per die.
    #[inline]
    pub fn link_salt(&self, link: LinkId) -> u64 {
        self.plan.seed.wrapping_add(mix(link ^ 0x9E37_79B9_7F4A_7C15))
    }

    /// Per-(seq, attempt) half of the dice key; see [`Self::link_salt`].
    #[inline]
    pub fn seq_salt(seq: u64, attempt: u32) -> u64 {
        mix(seq ^ 0xBF58_476D_1CE4_E5B9)
            .wrapping_add(mix(attempt as u64 ^ 0x94D0_49BB_1331_11EB))
    }

    /// The uniform draw in [0, 1) behind `decide`, from precomputed keys.
    #[inline]
    pub fn draw(link_salt: u64, seq_salt: u64) -> f64 {
        (splitmix64(link_salt.wrapping_add(seq_salt)) >> 11) as f64
            * (1.0 / (1u64 << 53) as f64)
    }

    /// The plan's fate threshold: `draw >= pass_threshold()` ⇔ `Fate::Pass`.
    #[inline]
    pub fn pass_threshold(&self) -> f64 {
        self.pass_threshold
    }

    /// Decide the fate of frame `seq` crossing `link` on transmission
    /// `attempt` (0 = first try). Pure in its arguments and the seed.
    pub fn decide(&self, link: LinkId, seq: u64, attempt: u32) -> Fate {
        let rates = self.plan.default_rates;
        if rates.is_clean() {
            return Fate::Pass;
        }
        let draw = Self::draw(self.link_salt(link), Self::seq_salt(seq, attempt));
        if draw < rates.drop {
            Fate::Drop
        } else if draw < rates.drop + rates.corrupt {
            Fate::Corrupt
        } else {
            Fate::Pass
        }
    }

    /// Record a frame crossing `link`; returns `true` exactly once, when
    /// the crossing count reaches the link's kill threshold.
    pub fn note_crossing(&self, link: LinkId) -> bool {
        match self.kills.get(&link) {
            None => false,
            Some((kill_at, count)) => {
                count.fetch_add(1, Ordering::Relaxed) + 1 == *kill_at
            }
        }
    }

    /// Whether any link carries a kill schedule (cheap pre-check).
    pub fn has_kills(&self) -> bool {
        !self.kills.is_empty()
    }
}

#[inline]
fn mix(x: u64) -> u64 {
    splitmix64(x)
}

/// SplitMix64 finalizer — the standard 64-bit avalanche.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> TorusShape {
        TorusShape::new([2, 2, 2, 1, 1])
    }

    #[test]
    fn empty_plan_passes_everything() {
        let inj = FaultInjector::new(FaultPlan::new(), shape());
        for link in 0..80 {
            for seq in 0..100 {
                assert_eq!(inj.decide(link, seq, 0), Fate::Pass);
            }
        }
        assert!(inj.plan().is_clean());
    }

    #[test]
    fn fate_is_deterministic_and_seed_sensitive() {
        let a = FaultInjector::new(FaultPlan::new().seed(7).drop_rate(0.3), shape());
        let b = FaultInjector::new(FaultPlan::new().seed(7).drop_rate(0.3), shape());
        let c = FaultInjector::new(FaultPlan::new().seed(8).drop_rate(0.3), shape());
        let fates_a: Vec<Fate> = (0..400).map(|s| a.decide(3, s, 0)).collect();
        let fates_b: Vec<Fate> = (0..400).map(|s| b.decide(3, s, 0)).collect();
        let fates_c: Vec<Fate> = (0..400).map(|s| c.decide(3, s, 0)).collect();
        assert_eq!(fates_a, fates_b, "same seed ⇒ same fates");
        assert_ne!(fates_a, fates_c, "different seed ⇒ different fates");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let inj = FaultInjector::new(
            FaultPlan::new().seed(42).drop_rate(0.2).corrupt_rate(0.1),
            shape(),
        );
        let n = 20_000;
        let mut drops = 0;
        let mut corrupts = 0;
        for seq in 0..n {
            match inj.decide(11, seq, 0) {
                Fate::Drop => drops += 1,
                Fate::Corrupt => corrupts += 1,
                _ => {}
            }
        }
        let drop_rate = drops as f64 / n as f64;
        let corrupt_rate = corrupts as f64 / n as f64;
        assert!((0.18..0.22).contains(&drop_rate), "drop rate {drop_rate}");
        assert!((0.085..0.115).contains(&corrupt_rate), "corrupt rate {corrupt_rate}");
    }

    #[test]
    fn attempt_rerolls_the_dice() {
        let inj = FaultInjector::new(FaultPlan::new().seed(1).drop_rate(0.5), shape());
        // Any dropped frame must eventually pass on a retransmit attempt.
        for seq in 0..50 {
            if inj.decide(5, seq, 0) != Fate::Drop {
                continue;
            }
            let passed = (1..64).any(|a| inj.decide(5, seq, a) == Fate::Pass);
            assert!(passed, "seq {seq} never passed across 64 attempts");
        }
    }

    #[test]
    fn kill_schedule_fires_exactly_once() {
        let dir = Dir::all()[2];
        let plan = FaultPlan::new().kill_link_at(0, dir, 3);
        let inj = FaultInjector::new(plan, shape());
        let id = link_id(0, dir);
        assert!(inj.has_kills());
        assert!(!inj.note_crossing(id));
        assert!(!inj.note_crossing(id));
        assert!(inj.note_crossing(id), "third crossing kills");
        assert!(!inj.note_crossing(id), "fires once");
        assert!(!inj.note_crossing(link_id(1, dir)), "other links unaffected");
    }

    #[test]
    fn validate_rejects_out_of_range_plans() {
        let retry = |window, rto_ticks, rto_max_ticks| {
            FaultPlan::new().retry(RetryConfig { window, rto_ticks, rto_max_ticks, retry_budget: 3 })
        };
        assert_eq!(FaultPlan::new().validate(), Ok(()), "the empty plan is valid");
        assert!(FaultPlan::new().drop_rate(1.5).validate().is_err(), "rate > 1 rejected");
        assert!(FaultPlan::new().corrupt_rate(-0.1).validate().is_err(), "rate < 0 rejected");
        assert!(retry(0, 4, 64).validate().is_err(), "zero window rejected");
        assert!(retry(8, 4, 2).validate().is_err(), "rto_max < rto rejected");
        assert!(retry(8, 0, 2).validate().is_err(), "zero rto rejected");
        assert!(FaultPlan::new().reorder_capacity(0).validate().is_err());
        assert!(FaultPlan::new().reorder_capacity(1 << 17).validate().is_err());
        assert!(retry(1 << 17, 4, 64).validate().is_err(), "window bounds the default capacity");
        assert!(retry(1 << 17, 4, 64).reorder_capacity(64).validate().is_ok());
    }

    #[test]
    fn reorder_capacity_defaults_to_the_retry_window() {
        let plan = FaultPlan::new();
        assert_eq!(plan.reorder_capacity, None);
        assert_eq!(plan.effective_reorder_capacity(), plan.retry.window);
        assert_eq!(plan.reorder_capacity(4).effective_reorder_capacity(), 4);
    }

    #[test]
    fn link_id_round_trips() {
        for node in 0..8u32 {
            for dir in Dir::all() {
                let id = link_id(node, dir);
                assert_eq!(link_parts(id), (node, dir));
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn injector_rejects_out_of_shape_links() {
        let plan = FaultPlan::new().kill_link_at(999, Dir::all()[0], 1);
        FaultInjector::new(plan, shape());
    }
}
