//! # validity-core
//!
//! The mathematical formalism of *On the Validity of Consensus* (Civit,
//! Gilbert, Guerraoui, Komatovic, Vidigueira — PODC 2023), executable.
//!
//! A *validity property* maps each assignment of proposals to correct
//! processes (an [`InputConfig`]) to a non-empty set of admissible decisions.
//! This crate provides:
//!
//! * the formalism itself — [`ProcessId`], [`ProcessSet`], [`SystemParams`],
//!   [`InputConfig`], the similarity ([`is_similar`]) and compatibility
//!   ([`is_compatible`]) relations;
//! * the catalog of validity properties from the paper and its related work
//!   (module [`validity`]);
//! * the `Λ` function of the similarity condition `C_S`, with brute-force
//!   ground truth and per-property closed forms (module [`lambda`]);
//! * the solvability classifier implementing Theorems 1–3 & 5 with
//!   machine-checkable witnesses (module [`solvability`]);
//! * the canonical-similarity decision checker of Lemma 1 (module
//!   [`canonical`]);
//! * the Appendix C extended formalism for blockchain-style validity
//!   (module [`extended`]).
//!
//! ## Example: classifying a validity property
//!
//! ```
//! use validity_core::{classify, Classification, Domain, StrongValidity, SystemParams};
//!
//! let domain = Domain::binary();
//!
//! // n > 3t: Strong Validity is solvable (and non-trivial).
//! let c = classify(&StrongValidity, SystemParams::new(4, 1)?, &domain);
//! assert!(matches!(c, Classification::SolvableNonTrivial { .. }));
//!
//! // n ≤ 3t: it is unsolvable (Theorem 1 — only trivial properties survive).
//! let c = classify(&StrongValidity, SystemParams::new(3, 1)?, &domain);
//! assert!(!c.is_solvable());
//! # Ok::<(), validity_core::ParamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod config;
pub mod extended;
pub mod hierarchy;
pub mod lambda;
pub mod process;
pub mod relations;
pub mod solvability;
mod space;
pub mod validity;
pub mod value;

pub use canonical::{check_canonical_decision, check_decision, CanonicalViolation};
pub use config::{
    enumerate_all_configs, enumerate_configs_of_size, subsets_of_size, ConfigError, InputConfig,
    RawConfig,
};
pub use hierarchy::{compare, Comparison};
pub use lambda::{
    admissible_intersection, BruteForceLambda, ConvexHullLambda, CorrectProposalLambda,
    FirstProposalLambda, LambdaError, LambdaFn, RankLambda, StrongLambda, WeakLambda,
};
pub use process::{ParamError, ProcessId, ProcessSet, SystemParams, MAX_PROCESSES};
pub use relations::{enumerate_similar, is_compatible, is_similar};
pub use solvability::{
    always_admissible, check_similarity_condition, classify, classify_with_cost,
    non_triviality_certificate, Classification, CountingValidity, UnsolvableReason,
};
pub use validity::{
    ConstantSetValidity, ConvexHullValidity, CorrectProposalValidity, DynValidity,
    ExactMedianValidity, IntervalValidity, MedianValidity, ParityValidity, StrongValidity,
    SupportValidity, TrivialValidity, ValidityProperty, VectorValidity, WeakValidity,
};
pub use value::{Domain, Value};
