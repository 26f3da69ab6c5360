//! # validity-bench
//!
//! Experiment harnesses regenerating every figure and claim of *On the
//! Validity of Consensus* (PODC 2023). Each binary in `src/bin` prints the
//! rows recorded in `EXPERIMENTS.md`:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_classification` | Figure 1 (the solvability Venn diagram, as a table) |
//! | `thm1_triviality` | Theorem 1 / Figure 2 (n ≤ 3t ⇒ only trivial survives) |
//! | `thm4_lower_bound` | Theorem 4 (Ω(t²) messages; strawman broken) |
//! | `thm5_universal` | Theorem 5 (Universal: O(n²) messages, any C_S property) |
//! | `alg3_nonauth` | Appendix B.2 (Algorithm 3: O(n⁴) messages) |
//! | `alg6_subcubic` | Appendix B.3 (Algorithm 6: subcubic words, exponential latency) |
//! | `summary` | §1 headline: Θ(n²) sandwich |
//! | `lemma1_canonical` | Lemma 1 conformance sweep (protocol vs formalism) |
//! | `ablation_quad` | leader-wait rule ablation (DESIGN.md §5.3) |
//! | `ablation_schedules` | schedule-insensitivity of the measurements |
//!
//! The library half provides the shared machinery: protocol runners
//! ([`runs`]) and ASCII tables ([`table`]). Power-law fitting lives in
//! `validity_lab::fit` — sweep reports carry fit sections.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runs;
pub mod table;

pub use runs::{run, RunStats};
pub use table::Table;
