//! # consensus-validity
//!
//! A comprehensive Rust reproduction of **"On the Validity of Consensus"**
//! (Civit, Gilbert, Guerraoui, Komatovic, Vidigueira — PODC 2023,
//! arXiv:2301.04920): the validity-property formalism, the solvability
//! classification (Theorems 1–3 & 5), the Ω(t²) lower-bound machinery
//! (Theorem 4), and the `Universal` consensus algorithm together with every
//! substrate it relies on.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`core`] — the formalism: input configurations, similarity,
//!   validity properties, `Λ`, the classifier ([`validity_core`]);
//! * [`crypto`] — SHA-256, simulated PKI, threshold signatures, GF(256),
//!   Reed–Solomon ([`validity_crypto`]);
//! * [`simnet`] — the deterministic partially synchronous simulator
//!   ([`validity_simnet`]);
//! * [`protocols`] — Algorithms 1–6, Quad, DBFT, BRB, ADD
//!   ([`validity_protocols`]);
//! * [`adversary`] — executable impossibility arguments
//!   ([`validity_adversary`]);
//! * [`lab`] — the parallel scenario-sweep engine over all of the above
//!   ([`validity_lab`]).
//!
//! ## Quickstart
//!
//! ```
//! use consensus_validity::prelude::*;
//!
//! // Is Strong Validity solvable with n = 4, t = 1? (Yes — n > 3t and C_S holds.)
//! let verdict = classify(&StrongValidity, SystemParams::new(4, 1)?, &Domain::binary());
//! assert!(verdict.is_solvable() && !verdict.is_trivial());
//! # Ok::<(), validity_core::ParamError>(())
//! ```
//!
//! Run `cargo run --example quickstart` for an end-to-end `Universal`
//! execution, and `lab run --suite <name>` for the paper's experiments
//! (README § *Reproducing the paper's tables*).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use validity_adversary as adversary;
pub use validity_core as core;
pub use validity_crypto as crypto;
pub use validity_lab as lab;
pub use validity_protocols as protocols;
pub use validity_simnet as simnet;

/// The most common imports in one place.
pub mod prelude {
    pub use validity_adversary::{break_leader_echo, break_quorum_vote, run_e_base};
    pub use validity_core::{
        admissible_intersection, check_canonical_decision, check_decision, classify,
        enumerate_similar, is_compatible, is_similar, BruteForceLambda, Classification,
        ConvexHullLambda, ConvexHullValidity, CorrectProposalLambda, CorrectProposalValidity,
        Domain, ExactMedianValidity, InputConfig, IntervalValidity, LambdaFn, MedianValidity,
        ParityValidity, ProcessId, ProcessSet, RankLambda, StrongLambda, StrongValidity,
        SystemParams, TrivialValidity, UnsolvableReason, ValidityProperty, VectorValidity,
        WeakLambda, WeakValidity,
    };
    pub use validity_crypto::{KeyStore, ThresholdScheme};
    pub use validity_lab::{ScenarioMatrix, ServiceMatrix, SweepEngine, SweepReport};
    pub use validity_protocols::{
        find_vector, vector_registry, ProtocolContext, ProtocolSpec, Replicated, ServiceConfig,
        Universal, VectorAuth, VectorFast, VectorNonAuth, VectorSpec,
    };
    pub use validity_simnet::{
        agreement_holds, Machine, Multiplex, NetModel, NodeKind, Silent, SimBuilder, Simulation,
    };
}
