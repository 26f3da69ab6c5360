//! Interactive-style explorer for the solvability landscape (Figure 1):
//! classify any validity property of the catalog at any `(n, t, |domain|)`
//! from the command line.
//!
//! ```sh
//! cargo run --example validity_explorer -- 4 1 2          # all properties at n=4, t=1, binary
//! cargo run --example validity_explorer -- 7 2 3 strong   # one property
//! ```

use std::env;

use consensus_validity::prelude::*;
use validity_core::DynValidity;

fn catalog(t: usize) -> Vec<(&'static str, DynValidity<u64>)> {
    vec![
        ("strong", Box::new(StrongValidity)),
        ("weak", Box::new(WeakValidity)),
        ("correct-proposal", Box::new(CorrectProposalValidity)),
        ("median", Box::new(MedianValidity::with_slack(t))),
        ("interval", Box::new(IntervalValidity::new(1, t))),
        ("convex-hull", Box::new(ConvexHullValidity)),
        ("exact-median", Box::new(ExactMedianValidity)),
        ("parity", Box::new(ParityValidity)),
        ("trivial", Box::new(TrivialValidity::new(0u64))),
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = env::args().skip(1).collect();
    let n: usize = args.first().map_or(Ok(4), |s| s.parse())?;
    let t: usize = args.get(1).map_or(Ok(1), |s| s.parse())?;
    let d: u64 = args.get(2).map_or(Ok(2), |s| s.parse())?;
    let filter = args.get(3).cloned();

    let params = SystemParams::new(n, t)?;
    let domain = Domain::range(d);
    println!(
        "classifying at {params} ({}), domain {{0..{}}}\n",
        if params.supports_non_trivial() {
            "n > 3t"
        } else {
            "n ≤ 3t — Theorem 1 territory"
        },
        d - 1
    );

    for (key, prop) in catalog(t) {
        if let Some(f) = &filter {
            if !key.contains(f.as_str()) {
                continue;
            }
        }
        let verdict = classify(&prop, params, &domain);
        println!("{:<50} {}", prop.name(), verdict);
        assert!(
            params.supports_non_trivial() || !verdict.is_solvable() || verdict.is_trivial(),
            "Theorem 1: solvable at n ≤ 3t must be trivial"
        );
        match &verdict {
            Classification::Trivial { witness } => {
                println!(
                    "    → decide {witness:?} unconditionally (Theorem 2's always_admissible)"
                );
            }
            Classification::SolvableNonTrivial { lambda_table } => {
                println!(
                    "    → Universal solves it with O(n²) messages; Λ defined on all {} \
                     configurations of I_(n−t)",
                    lambda_table.len()
                );
                if let Some((c, v)) = lambda_table.first() {
                    println!("    → e.g. Λ({c:?}) = {v:?}");
                }
            }
            Classification::Unsolvable(UnsolvableReason::LowResilience { rejections }) => {
                println!("    → non-trivial with n ≤ 3t (Theorem 1); rejections:");
                for (v, c) in rejections.iter().take(2) {
                    println!("        {v:?} ∉ val({c:?})");
                }
            }
            Classification::Unsolvable(UnsolvableReason::SimilarityViolation { config }) => {
                println!("    → C_S fails (Theorem 3): ∩_(c′ ∼ c) val(c′) = ∅ at c = {config:?}");
            }
        }
    }
    println!("\nvalidity_explorer OK");
    Ok(())
}
