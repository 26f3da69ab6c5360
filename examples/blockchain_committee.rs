//! A committee-based blockchain — the paper's motivating scenario for
//! External Validity.
//!
//! Clients sign transactions; committee servers each pick up one pending
//! transaction and run **vector consensus** (Algorithm 1) to agree on the
//! block content: the decided vector of `n − t` transactions *is* the
//! block. External Validity ("every transaction in the block carries a
//! valid client signature") is the signature predicate applied to each
//! block transaction, and Vector Validity checks that every one of them is
//! a correct server's own proposal.
//!
//! ```sh
//! cargo run --example blockchain_committee
//! ```

use consensus_validity::prelude::*;

/// A signed transaction: `payload#tag` where the tag is issued by the
/// client wallet. (Tag = truncated SHA-256 of the wallet secret and
/// payload — the example's stand-in for a client signature.)
fn sign_tx(wallet: &str, payload: &str) -> String {
    let tag = validity_crypto::sha256(format!("wallet:{wallet}:{payload}"));
    format!("{payload}#{}", &tag.to_hex()[..12])
}

/// The External-Validity predicate: the transaction's tag verifies against
/// the claimed wallet.
fn tx_is_valid(tx: &str) -> bool {
    let Some((payload, tag)) = tx.rsplit_once('#') else {
        return false;
    };
    let Some((wallet, _)) = payload.split_once("->") else {
        return false;
    };
    let expect = validity_crypto::sha256(format!("wallet:{wallet}:{payload}"));
    tag == &expect.to_hex()[..12]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = SystemParams::new(4, 1)?;
    println!("committee blockchain: n = 4 servers, t = 1 Byzantine\n");

    // --- Clients issue signed transactions.
    let mempool: Vec<String> = vec![
        sign_tx("alice", "alice->bob:5"),
        sign_tx("carol", "carol->dan:2"),
        sign_tx("erin", "erin->frank:9"),
        sign_tx("gina", "gina->hal:1"),
    ];
    for tx in &mempool {
        assert!(tx_is_valid(tx), "client signatures verify");
        println!("client tx: {tx}");
    }
    // A forged transaction does not verify:
    assert!(!tx_is_valid("mallory->mallory:999#deadbeefdead"));

    // --- Servers run vector consensus on their picked-up transactions;
    // the decided vector is the block.
    let keystore = KeyStore::new(params.n(), 7);
    let scheme = ThresholdScheme::new(keystore.clone(), params.quorum());
    let nodes: Vec<NodeKind<_>> = (0..params.n())
        .map(|i| {
            if i < 3 {
                NodeKind::Correct(VectorAuth::new(
                    mempool[i].clone(),
                    keystore.clone(),
                    keystore.signer(ProcessId::from_index(i)),
                    scheme.clone(),
                    params,
                ))
            } else {
                NodeKind::Byzantine(Box::new(Silent)) // server 4 crashed
            }
        })
        .collect();
    let mut sim = SimBuilder::new(params)
        .seed(11)
        .build(nodes)
        .expect("valid configuration");
    sim.run_until_decided();
    assert!(sim.all_correct_decided() && agreement_holds(sim.decisions()));
    let block = sim.decisions()[0].as_ref().unwrap().1.clone();
    println!("\nagreed block ({} txs):", block.len());
    for (server, tx) in block.pairs() {
        println!("  from {server}: {tx}");
    }

    // --- External Validity over the block content: every transaction
    // carries a valid client signature.
    assert!(
        block.pairs().all(|(_, tx)| tx_is_valid(tx)),
        "block contains an unsigned transaction"
    );
    println!("\n✔ External Validity: every block transaction is client-signed");

    // --- Vector Validity against the formalism: every block transaction is
    // a correct server's own proposal, so the silent server's pool
    // transaction is not needed to build the block.
    let actual = InputConfig::from_pairs(params, (0..3).map(|i| (i, mempool[i].clone())))?;
    check_decision(&VectorValidity, &actual, &block)
        .map_err(|v| format!("vector validity violated: {v:?}"))?;
    println!("✔ Vector Validity: no correct server's transaction was altered");
    println!("\nblockchain_committee OK");
    Ok(())
}
