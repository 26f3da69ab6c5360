//! # validity-crypto
//!
//! The simulated-authentication substrate for the reproduction of *On the
//! Validity of Consensus* (PODC 2023):
//!
//! * [`sha256`](mod@sha256) — a from-scratch FIPS 180-4 SHA-256 (the collision-resistant
//!   `hash(·)` of Appendix B.3). Its compression function is written in
//!   portable Rust, which is the definition; on x86-64 CPUs with the SHA
//!   extensions a runtime check sends each block to a SHA-NI kernel instead,
//!   through the crate's one `unsafe` call, with the same output;
//! * [`sig`] — a simulated PKI with structurally unforgeable per-process
//!   signatures (§3.1), each a SipHash-2-4-128 tag under a per-process key
//!   derived with SHA-256;
//! * [`threshold`] — simulated `(k, n)`-threshold signatures \[65, 87\] for
//!   Quad and vector dissemination;
//! * [`gf256`] / [`reed_solomon`] — GF(2⁸) arithmetic and a Reed–Solomon
//!   codec with Berlekamp–Welch error decoding, the coding layer of ADD
//!   \[36\].
//!
//! Cryptographic *hardness* is substituted by *structural* guarantees (a
//! Byzantine node simply has no API to sign for others), which is the only
//! property the paper's proofs rely on; hashing and coding are real.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod gf256;
pub mod reed_solomon;
pub mod sha256;
pub mod sig;
mod siphash;
pub mod threshold;

pub use gf256::Gf256;
pub use reed_solomon::{ReedSolomon, RsError, Share};
pub use sha256::{sha256, Digest, Sha256};
pub use sig::{KeyStore, Signature, Signer};
pub use threshold::{PartialSignature, ThresholdError, ThresholdScheme, ThresholdSignature};
