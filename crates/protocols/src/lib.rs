//! # validity-protocols
//!
//! Every algorithm of *On the Validity of Consensus* (PODC 2023) and every
//! substrate those algorithms rely on, as composable deterministic state
//! machines over [`validity_simnet`]:
//!
//! | Module | Paper artifact | Cost (shape) |
//! |---|---|---|
//! | [`brb`] | Byzantine reliable broadcast \[20\] | `O(n²)`/broadcast |
//! | [`dbft`] | binary DBFT with weak coordinator \[35\] | `O(n²)`/round |
//! | [`quad`] | Quad \[28\] (leader-based, external validity) | `O(n²)` msgs after GST |
//! | [`vector_auth`] | **Algorithm 1** (authenticated vector consensus) | `O(n²)` msgs, `O(n³)` words |
//! | [`universal`] | **Algorithm 2** (`Universal` = vector consensus + Λ) | cost of the chosen VC |
//! | [`vector_nonauth`] | **Algorithm 3** (BRB + n × DBFT) | `O(n⁴)` msgs |
//! | [`slow_broadcast`] | **Algorithm 4** (staggered dissemination) | exponential latency |
//! | [`dissemination`] | **Algorithm 5** (vector dissemination) | `O(n²)` words after GST |
//! | [`add`] | ADD \[36\] over Reed–Solomon | `O(n² log n)` bits |
//! | [`vector_fast`] | **Algorithm 6** (subcubic vector consensus) | `O(n² log n)` words |
//!
//! The three vector-consensus machines are interchangeable inside
//! [`universal::Universal`], which realizes the paper's headline upper
//! bound: any validity property satisfying the similarity condition `C_S`
//! is solvable with `O(n²)` messages when Algorithm 1 is plugged in
//! (Theorem 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod add;
pub mod brb;
pub mod codec;
pub mod dbft;
pub mod dissemination;
pub mod quad;
pub mod registry;
pub mod service;
pub mod slow_broadcast;
pub mod universal;
pub mod vector_auth;
pub mod vector_fast;
pub mod vector_nonauth;

pub use add::{Add, AddMsg};
pub use brb::{BrbInstance, BrbMsg};
pub use codec::{bytes_to_words, Codec, Words, BYTES_PER_WORD};
pub use dbft::{DbftBinary, DbftMsg};
pub use dissemination::{vector_hash, Acquired, DissemMsg, VectorDissemination};
pub use quad::{
    PreparedCert, QuadConfig, QuadCore, QuadDecision, QuadMachine, QuadMsg, QuadSink, QuadVerify,
    Verify,
};
pub use registry::{
    find_vector, vector_registry, Applicability, ProtocolContext, ProtocolSpec, VectorMachine,
    VectorMsg, VectorSpec,
};
pub use service::{batch_proposal, Replicated, ServiceConfig};
pub use slow_broadcast::SlowBroadcast;
pub use universal::Universal;
pub use vector_auth::{
    proposal_sign_bytes, ProposalVerifier, SignedProposal, VectorAuth, VectorAuthMsg, VectorProof,
};
pub use vector_fast::{VectorFast, VectorFastMsg};
pub use vector_nonauth::{VectorNonAuth, VectorNonAuthMsg};
