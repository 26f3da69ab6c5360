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
//! * [`isolation`] — the `β_Q` extraction of Lemma 5 (a machine run with no
//!   incoming messages);
//! * [`dolev_reischuk`] — Theorem 4 as a harness: builds `E_base`, does the
//!   pigeonhole step, and merges `β_Q` with `E_v` into an Agreement
//!   violation for sub-quadratic protocols;
//! * [`partition`] — Theorem 1 as a harness: splits `n ≤ 3t` quorum
//!   protocols into disagreement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod behaviors;
pub mod dolev_reischuk;
pub mod factories;
pub mod isolation;
pub mod partition;
pub mod strawman;

pub use adaptive::{
    AdaptiveFlood, AdaptiveHost, LastMinute, RoutePolicy, SplitBrain, TargetLeader,
};
pub use behaviors::TwoFaced;
pub use dolev_reischuk::{break_leader_echo, half_t, run_e_base, Disagreement, EBaseReport};
pub use factories::BehaviorId;
pub use isolation::{run_isolated, IsolatedRun};
pub use partition::{break_quorum_vote, partition_layout, PartitionExhibit, PartitionLayout};
pub use strawman::{LeaderEcho, LeaderValue, QuorumVote, Vote};
