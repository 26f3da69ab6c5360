//! Composable network models: the pre-GST delay/fault layer of the
//! simulator, and its only network description (set with
//! [`SimBuilder::net`](crate::SimBuilder::net)).
//!
//! [`NetModel`] is a sink-style trait: the simulation asks the model for
//! one [`Delivery`] plan per pre-GST point-to-point send, and the model
//! answers from the link coordinates ([`LinkCtx`]) plus the simulation's
//! seeded RNG. The base models are [`SyncModel`], [`UniformModel`],
//! [`FixedModel`] and [`PerLinkModel`]; adversarial behaviours compose as
//! wrappers: [`Loss`], [`Duplicate`], [`Jitter`], [`Partition`],
//! [`Churn`].
//!
//! # Determinism contract
//!
//! A model is a pure function of `(link, rng)`: it may draw from the
//! simulation's RNG (in a **fixed** number of draws per call, independent
//! of the outcome) and from its own immutable configuration, but it holds
//! no mutable state and never observes protocol state. Composition order
//! fixes draw order — a wrapper always runs its inner model first, then
//! makes its own draws — so a seeded execution over any model tree is
//! replayable, byte-for-byte, across thread counts and process shards.
//!
//! The base models' draw counts are part of that contract — every
//! committed golden fingerprint depends on them: [`SyncModel`],
//! [`FixedModel`] and [`PerLinkModel`] draw nothing, and [`UniformModel`]
//! makes exactly one `[1, max]` draw through `CachedUniform`'s
//! cached-zone rejection sampling.
//!
//! # The DLS bound is not negotiable
//!
//! Models *propose*; the simulation *caps*. Whatever a model returns, the
//! engine clamps the arrival into `[sent_at + 1, gst + post_gst_jitter]`
//! — the partially-synchronous reliability guarantee (§3.1) that every
//! message sent before GST is delivered by `GST + δ`. A [`Loss`] model
//! therefore models an adversary *withholding* a message to the deadline
//! (the drop is counted in [`NetStats::dropped`](crate::NetStats), and
//! the message arrives at the cap), not a truly lossy channel — the DLS
//! model has none.

use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngCore;
use validity_core::ProcessId;

use crate::time::Time;

/// A uniform integer distribution over `[low, low + span)` with its
/// rejection zone precomputed.
///
/// This mirrors the vendored `rand` crate's `sample_inclusive` *exactly* —
/// same zone, same modulo, same rejection loop — so a draw here consumes
/// the same generator words and yields the same value as
/// `rng.gen_range(low..=high)`. Precomputing the zone once per simulation
/// (the jitter bounds are fixed by the config) removes two integer
/// divisions from every arrival-time draw, which the profile showed
/// dominating the per-event cost.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CachedUniform {
    low: u64,
    span: u64,
    zone: u64,
}

impl CachedUniform {
    pub(crate) fn new_inclusive(low: u64, high: u64) -> Self {
        debug_assert!(low <= high);
        let span = high - low + 1; // callers never pass a full-width range
        let zone = u64::MAX - (u64::MAX % span + 1) % span;
        CachedUniform { low, span, zone }
    }

    #[inline]
    pub(crate) fn sample(&self, rng: &mut StdRng) -> u64 {
        loop {
            let x = rng.next_u64();
            if x <= self.zone {
                return self.low + x % self.span;
            }
        }
    }
}

/// The coordinates of one pre-GST point-to-point send, as seen by a
/// [`NetModel`]. Self-sends and post-GST sends never reach a model.
#[derive(Clone, Copy, Debug)]
pub struct LinkCtx {
    /// The sender.
    pub from: ProcessId,
    /// The recipient.
    pub to: ProcessId,
    /// When the message was sent (strictly before `gst`).
    pub sent_at: Time,
    /// The run's Global Stabilization Time.
    pub gst: Time,
    /// The post-GST delay bound `δ`.
    pub delta: Time,
    /// The already-drawn post-GST jitter for this send (`1..=δ`). This is
    /// the first draw of the two-draw invariant on `arrival_plan`; it also
    /// fixes this message's DLS deadline, `gst + post_gst_jitter`.
    pub post_gst_jitter: Time,
}

/// A model's plan for one delivery: how long the adversary holds the
/// message, whether it is withheld to the DLS deadline ("dropped"), and
/// how many duplicate copies arrive alongside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Proposed delay in ticks; the engine clamps the resulting arrival
    /// into `[sent_at + 1, gst + post_gst_jitter]`.
    pub raw_delay: Time,
    /// Withhold the message until the DLS deadline (`gst +
    /// post_gst_jitter`) and count it as dropped. `raw_delay` is ignored.
    pub dropped: bool,
    /// Extra copies delivered at the same arrival tick (0 = just the
    /// original). Duplicates are not counted in `messages_total`.
    pub duplicates: u32,
}

impl Delivery {
    /// A plain delivery after `raw_delay` ticks — no loss, no duplicates.
    pub fn after(raw_delay: Time) -> Delivery {
        Delivery {
            raw_delay,
            dropped: false,
            duplicates: 0,
        }
    }
}

/// A composable pre-GST network model (see the module docs for the
/// determinism contract). Implementations must be stateless: `deliver`
/// takes `&self` and may only read configuration and draw from `rng`.
pub trait NetModel: fmt::Debug + Send + Sync {
    /// The model's display name, used in reports and errors. Composed
    /// models conventionally render as `wrapper(inner)`.
    fn name(&self) -> &str;

    /// Plans one delivery. Must make a fixed number of RNG draws per call
    /// regardless of the outcome, or seeded replay breaks.
    fn deliver(&self, link: &LinkCtx, rng: &mut StdRng) -> Delivery;
}

// ---------------------------------------------------------------------------
// Base models

/// Synchrony from the start: the pre-GST delay *is* the already-drawn
/// post-GST jitter. Draws nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct SyncModel;

impl NetModel for SyncModel {
    fn name(&self) -> &str {
        "sync"
    }

    fn deliver(&self, link: &LinkCtx, _rng: &mut StdRng) -> Delivery {
        Delivery::after(link.post_gst_jitter)
    }
}

/// A uniformly random delay: one `[1, max]` draw per delivery.
#[derive(Clone, Copy, Debug)]
pub struct UniformModel {
    dist: CachedUniform,
}

impl UniformModel {
    /// A uniform delay in `[1, max.max(1)]`.
    pub fn new(max: Time) -> UniformModel {
        UniformModel {
            dist: CachedUniform::new_inclusive(1, max.max(1)),
        }
    }
}

impl NetModel for UniformModel {
    fn name(&self) -> &str {
        "uniform"
    }

    fn deliver(&self, _link: &LinkCtx, rng: &mut StdRng) -> Delivery {
        Delivery::after(self.dist.sample(rng))
    }
}

/// Every pre-GST message takes exactly `d.max(1)` ticks. Draws nothing.
#[derive(Clone, Copy, Debug)]
pub struct FixedModel(pub Time);

impl NetModel for FixedModel {
    fn name(&self) -> &str {
        "fixed"
    }

    fn deliver(&self, _link: &LinkCtx, _rng: &mut StdRng) -> Delivery {
        Delivery::after(self.0.max(1))
    }
}

/// Fully adversarial per-link delay `f(from, to, sent_at)` from a named
/// closure (the name is what reports and `Debug` print). Draws nothing.
pub struct PerLinkModel {
    name: String,
    f: Box<dyn Fn(ProcessId, ProcessId, Time) -> Time + Send + Sync>,
}

impl PerLinkModel {
    /// Wraps `f` under `name` (typically the schedule name).
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(ProcessId, ProcessId, Time) -> Time + Send + Sync + 'static,
    ) -> PerLinkModel {
        PerLinkModel {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl fmt::Debug for PerLinkModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PerLinkModel({})", self.name)
    }
}

impl NetModel for PerLinkModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn deliver(&self, link: &LinkCtx, _rng: &mut StdRng) -> Delivery {
        Delivery::after((self.f)(link.from, link.to, link.sent_at).max(1))
    }
}

// ---------------------------------------------------------------------------
// Combinators

fn composed_name(wrapper: &str, inner: &dyn NetModel) -> String {
    format!("{wrapper}({})", inner.name())
}

/// Bounded pre-GST message loss: after the inner model plans the delivery,
/// one `[0, 999]` draw decides (at `per_mille / 1000` probability) whether
/// the adversary withholds the message to its DLS deadline. The draw is
/// made on every delivery — hit or miss — so the draw count is
/// outcome-independent.
#[derive(Clone, Debug)]
pub struct Loss {
    inner: Arc<dyn NetModel>,
    per_mille: u64,
    dist: CachedUniform,
    name: String,
}

impl Loss {
    /// Drops each pre-GST delivery with probability `per_mille / 1000`
    /// (clamped to 1000).
    pub fn new(inner: Arc<dyn NetModel>, per_mille: u64) -> Loss {
        Loss {
            name: composed_name("loss", &*inner),
            inner,
            per_mille: per_mille.min(1000),
            dist: CachedUniform::new_inclusive(0, 999),
        }
    }
}

impl NetModel for Loss {
    fn name(&self) -> &str {
        &self.name
    }

    fn deliver(&self, link: &LinkCtx, rng: &mut StdRng) -> Delivery {
        let mut d = self.inner.deliver(link, rng);
        if self.dist.sample(rng) < self.per_mille {
            d.dropped = true;
        }
        d
    }
}

/// Message duplication: after the inner model plans the delivery, one
/// `[0, 999]` draw decides whether an extra copy arrives at the same tick.
/// Duplicates are counted in [`NetStats::duplicated`](crate::NetStats),
/// not in `messages_total` — the sender sent one message.
#[derive(Clone, Debug)]
pub struct Duplicate {
    inner: Arc<dyn NetModel>,
    per_mille: u64,
    dist: CachedUniform,
    name: String,
}

impl Duplicate {
    /// Duplicates each pre-GST delivery with probability `per_mille /
    /// 1000` (clamped to 1000).
    pub fn new(inner: Arc<dyn NetModel>, per_mille: u64) -> Duplicate {
        Duplicate {
            name: composed_name("dup", &*inner),
            inner,
            per_mille: per_mille.min(1000),
            dist: CachedUniform::new_inclusive(0, 999),
        }
    }
}

impl NetModel for Duplicate {
    fn name(&self) -> &str {
        &self.name
    }

    fn deliver(&self, link: &LinkCtx, rng: &mut StdRng) -> Delivery {
        let mut d = self.inner.deliver(link, rng);
        if self.dist.sample(rng) < self.per_mille {
            d.duplicates += 1;
        }
        d
    }
}

/// Additive delivery jitter: one `[1, max]` draw per delivery added on
/// top of the inner model's delay.
#[derive(Clone, Debug)]
pub struct Jitter {
    inner: Arc<dyn NetModel>,
    dist: CachedUniform,
    name: String,
}

impl Jitter {
    /// Adds a uniform `[1, max.max(1)]` delay to every inner delivery.
    pub fn new(inner: Arc<dyn NetModel>, max: Time) -> Jitter {
        Jitter {
            name: composed_name("jitter", &*inner),
            inner,
            dist: CachedUniform::new_inclusive(1, max.max(1)),
        }
    }
}

impl NetModel for Jitter {
    fn name(&self) -> &str {
        &self.name
    }

    fn deliver(&self, link: &LinkCtx, rng: &mut StdRng) -> Delivery {
        let mut d = self.inner.deliver(link, rng);
        d.raw_delay = d.raw_delay.saturating_add(self.dist.sample(rng));
        d
    }
}

/// A two-sided link partition healing at a scheduled time: processes with
/// index `< boundary` form one side, the rest the other, and every
/// message *crossing* the cut before `heal_at` is held until the heal (or
/// its DLS deadline, whichever comes first — the engine's cap applies as
/// always). Intra-side traffic passes through untouched. Draws nothing of
/// its own.
#[derive(Clone, Debug)]
pub struct Partition {
    inner: Arc<dyn NetModel>,
    boundary: usize,
    heal_at: Time,
    name: String,
}

impl Partition {
    /// Cuts `{0 .. boundary}` from `{boundary ..}` until `heal_at`.
    pub fn new(inner: Arc<dyn NetModel>, boundary: usize, heal_at: Time) -> Partition {
        Partition {
            name: composed_name("partition", &*inner),
            inner,
            boundary,
            heal_at,
        }
    }
}

impl NetModel for Partition {
    fn name(&self) -> &str {
        &self.name
    }

    fn deliver(&self, link: &LinkCtx, rng: &mut StdRng) -> Delivery {
        let mut d = self.inner.deliver(link, rng);
        let crosses = (link.from.index() < self.boundary) != (link.to.index() < self.boundary);
        if crosses && link.sent_at < self.heal_at {
            d.raw_delay = d.raw_delay.max(self.heal_at - link.sent_at);
        }
        d
    }
}

/// Crash-recovery churn: a node is unreachable over declared intervals —
/// any message that would arrive at `to` during one of `to`'s outages is
/// deferred to the interval's end (capped at the DLS deadline by the
/// engine, so an outage reaching past GST cannot break reliability).
/// Draws nothing of its own.
#[derive(Clone, Debug)]
pub struct Churn {
    inner: Arc<dyn NetModel>,
    /// `(node index, down_from, up_at)` outage intervals, `down_from`
    /// inclusive / `up_at` exclusive.
    outages: Vec<(usize, Time, Time)>,
    name: String,
}

impl Churn {
    /// Declares outage intervals `(node index, down_from, up_at)`.
    pub fn new(inner: Arc<dyn NetModel>, outages: Vec<(usize, Time, Time)>) -> Churn {
        Churn {
            name: composed_name("churn", &*inner),
            inner,
            outages,
        }
    }
}

impl NetModel for Churn {
    fn name(&self) -> &str {
        &self.name
    }

    fn deliver(&self, link: &LinkCtx, rng: &mut StdRng) -> Delivery {
        let mut d = self.inner.deliver(link, rng);
        let arrival = link.sent_at.saturating_add(d.raw_delay);
        for &(node, down, up) in &self.outages {
            if link.to.index() == node && arrival >= down && arrival < up {
                d.raw_delay = up - link.sent_at;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn link(from: usize, to: usize, sent_at: Time) -> LinkCtx {
        LinkCtx {
            from: ProcessId::from_index(from),
            to: ProcessId::from_index(to),
            sent_at,
            gst: 1000,
            delta: 100,
            post_gst_jitter: 7,
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn legacy_models_are_draw_free_except_uniform() {
        let mut a = rng();
        let mut b = rng();
        // Sync / Fixed / PerLink leave the RNG untouched.
        SyncModel.deliver(&link(0, 1, 5), &mut a);
        FixedModel(30).deliver(&link(0, 1, 5), &mut a);
        PerLinkModel::new("p", |_, _, _| 9).deliver(&link(0, 1, 5), &mut a);
        assert_eq!(a.next_u64(), b.next_u64());
        // Uniform makes exactly one draw.
        let mut c = rng();
        let mut d = rng();
        UniformModel::new(40).deliver(&link(0, 1, 5), &mut c);
        d.next_u64();
        assert_eq!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn uniform_model_matches_raw_cached_uniform() {
        let dist = CachedUniform::new_inclusive(1, 40);
        let mut a = rng();
        let mut b = rng();
        for _ in 0..64 {
            let want = dist.sample(&mut a);
            let got = UniformModel::new(40).deliver(&link(0, 1, 5), &mut b);
            assert_eq!(got, Delivery::after(want));
        }
    }

    #[test]
    fn per_link_model_clamps_to_one_tick_and_keeps_its_name() {
        let m = PerLinkModel::new("isolate-p1", |_, _, _| 0);
        assert_eq!(m.name(), "isolate-p1");
        assert_eq!(m.deliver(&link(0, 1, 5), &mut rng()).raw_delay, 1);
    }

    #[test]
    fn loss_always_draws_once_regardless_of_rate() {
        for per_mille in [0, 1000] {
            let m = Loss::new(Arc::new(FixedModel(3)), per_mille);
            let mut a = rng();
            let mut b = rng();
            let d = m.deliver(&link(0, 1, 5), &mut a);
            assert_eq!(d.dropped, per_mille == 1000);
            b.next_u64(); // the loss draw
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn duplicate_adds_copies_not_delay() {
        let m = Duplicate::new(Arc::new(FixedModel(3)), 1000);
        let d = m.deliver(&link(0, 1, 5), &mut rng());
        assert_eq!(d.duplicates, 1);
        assert_eq!(d.raw_delay, 3);
        assert!(!d.dropped);
    }

    #[test]
    fn jitter_extends_the_inner_delay() {
        let m = Jitter::new(Arc::new(FixedModel(10)), 5);
        let d = m.deliver(&link(0, 1, 5), &mut rng());
        assert!((11..=15).contains(&d.raw_delay), "got {}", d.raw_delay);
    }

    #[test]
    fn partition_holds_crossing_links_until_heal() {
        let m = Partition::new(Arc::new(FixedModel(2)), 2, 500);
        // Crossing link sent at 100: held ≥ 400 ticks.
        assert_eq!(m.deliver(&link(0, 2, 100), &mut rng()).raw_delay, 400);
        // Intra-side link: untouched.
        assert_eq!(m.deliver(&link(0, 1, 100), &mut rng()).raw_delay, 2);
        // After the heal: untouched.
        assert_eq!(m.deliver(&link(0, 2, 600), &mut rng()).raw_delay, 2);
    }

    #[test]
    fn churn_defers_arrivals_into_an_outage() {
        let m = Churn::new(Arc::new(FixedModel(10)), vec![(1, 100, 200)]);
        // Arrival at 110 falls into node 1's outage: deferred to 200.
        assert_eq!(m.deliver(&link(0, 1, 100), &mut rng()).raw_delay, 100);
        // Other nodes are unaffected.
        assert_eq!(m.deliver(&link(0, 2, 100), &mut rng()).raw_delay, 10);
        // Arrivals past the outage are unaffected.
        assert_eq!(m.deliver(&link(0, 1, 300), &mut rng()).raw_delay, 10);
    }

    #[test]
    fn composed_names_read_inside_out() {
        let m = Loss::new(
            Arc::new(Duplicate::new(Arc::new(UniformModel::new(40)), 100)),
            200,
        );
        assert_eq!(m.name(), "loss(dup(uniform))");
    }
}
