//! # validity-adversary
//!
//! Byzantine strategies and *executable impossibility arguments* for the
//! reproduction of *On the Validity of Consensus* (PODC 2023):
//!
//! * [`behaviors`] — the two-faced partitioning adversary of Lemma 2;
//! * [`adaptive`] — adversaries that pick their victims from the
//!   simulator's observed state: one two-faced host
//!   ([`adaptive::AdaptiveHost`]) under three routing policies
//!   (`target-leader`, `last-minute`, `split-brain`), plus
//!   `adaptive-flood`;
//! * [`strawman`] — deliberately cheap consensus attempts
//!   ([`strawman::LeaderEcho`], [`strawman::QuorumVote`]) that the paper's
//!   bounds doom;
//! * [`dolev_reischuk`] — Theorem 4 as a harness: builds `E_base`, does the
//!   pigeonhole step, reads `β_Q` (Lemma 5) and merges it with `E_v` into
//!   an Agreement violation for sub-quadratic protocols;
//! * [`partition`] — Theorem 1 as a harness: splits protocols at `n ≤ 3t`
//!   into disagreement.
//!
//! Both constructions take any machine factory `mk(p, face)` — face 0
//! proposes the regular input, face 1 the conflicting one, as
//! [`BehaviorId::populate`] has it — run every execution on the one
//! simulator, and return a [`Disagreement`] or a [`Refusal`] naming why
//! the construction does not apply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod behaviors;
pub mod dolev_reischuk;
pub mod factories;
pub mod partition;
mod proof;
pub mod strawman;

pub use adaptive::{
    AdaptiveFlood, AdaptiveHost, LastMinute, RoutePolicy, SplitBrain, TargetLeader,
};
pub use behaviors::TwoFaced;
pub use dolev_reischuk::{break_subquadratic, half_t, run_e_base, EBaseReport};
pub use factories::BehaviorId;
pub use partition::{break_partition, partition_layout, PartitionLayout};
pub use proof::{Decider, Disagreement, Refusal};
pub use strawman::{LeaderEcho, LeaderValue, QuorumVote, Vote};
