//! Repeated-consensus **service mode**: state-machine-replication style
//! pipelines of consensus slots over any registered protocol.
//!
//! A [`Replicated`] driver owns three things:
//!
//! * a [`ProtocolSpec`] naming the engine each slot runs;
//! * a [`ProtocolContext`] — the keystore / threshold-scheme substrate,
//!   built **once** per service and shared by every slot's machine (slot
//!   state is rebuilt per slot from this template; the expensive setup is
//!   not re-allocated per run);
//! * a [`ServiceConfig`] with the slot count and the two service knobs:
//!   `pipeline` (how many undecided slots may run concurrently — slot
//!   `k + 1` starts while slot `k`'s stragglers finish) and `batch` (how
//!   many client requests each slot commits).
//!
//! Per replica it hands out a [`Multiplex`] machine — the simnet-level
//! instance multiplexer — whose slot factory stamps out one engine machine
//! per slot from the shared context. The whole service therefore runs as
//! one deterministic [`Simulation`](validity_simnet::Simulation): one
//! event queue hosts the overlapping slots, and executions stay
//! byte-identical across thread counts.
//!
//! ## Client workload
//!
//! The built-in workload models a shared client pool: requests are
//! numbered `0, 1, 2, …`, slot `s` commits the batch
//! `[s·batch, (s+1)·batch)`, and every correct replica proposes the same
//! batch digest ([`batch_proposal`]) — as if clients broadcast requests to
//! all replicas. Custom workloads plug in through
//! [`Replicated::replica_with`].
//!
//! ```
//! use validity_core::SystemParams;
//! use validity_protocols::registry::{find_vector, ProtocolContext};
//! use validity_protocols::service::{Replicated, ServiceConfig};
//! use validity_simnet::{NodeKind, SimBuilder};
//!
//! let params = SystemParams::new(4, 1)?;
//! let service = Replicated::new(
//!     find_vector::<u64>("alg1-auth").expect("registered"),
//!     ProtocolContext::new(params, 7),
//!     ServiceConfig { slots: 3, pipeline: 2, batch: 4 },
//! );
//! let nodes = (0..4)
//!     .map(|i| NodeKind::Correct(service.replica(i.into())))
//!     .collect();
//! let mut sim = SimBuilder::new(params)
//!     .seed(7)
//!     .build(nodes)
//!     .expect("valid configuration");
//! sim.run_until_decided();
//! assert!(sim.all_correct_decided()); // all 3 slots decided everywhere
//! # Ok::<(), validity_core::ParamError>(())
//! ```

use validity_core::ProcessId;
use validity_simnet::{Env, InstanceId, Machine, Multiplex};

use crate::registry::{ProtocolContext, ProtocolSpec};

/// Service-mode knobs: how many slots to run and how aggressively.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ServiceConfig {
    /// Total number of consensus slots the service commits.
    pub slots: u32,
    /// Maximum number of undecided slots running concurrently (clamped to
    /// at least 1). `1` is sequential repeated consensus; larger values
    /// pipeline instance startup.
    pub pipeline: u32,
    /// Client requests committed per slot (clamped to at least 1).
    pub batch: u32,
}

impl ServiceConfig {
    /// A sequential, unbatched service of `slots` slots.
    pub fn sequential(slots: u32) -> Self {
        ServiceConfig {
            slots,
            pipeline: 1,
            batch: 1,
        }
    }

    /// Effective pipeline window (at least 1).
    pub fn pipeline_window(&self) -> u32 {
        self.pipeline.max(1)
    }

    /// Effective batch size (at least 1).
    pub fn batch_size(&self) -> u32 {
        self.batch.max(1)
    }

    /// Total client requests the service commits (`slots × batch`).
    pub fn total_requests(&self) -> u64 {
        self.slots as u64 * self.batch_size() as u64
    }
}

/// The digest a replica proposes for slot `slot` under batch size `batch`:
/// an FNV-1a fold over the request ids `[slot·batch, (slot+1)·batch)`.
///
/// Process-independent by design — the workload models clients that
/// broadcast each request to all replicas, so every correct replica sees
/// (and proposes) the same batch.
pub fn batch_proposal(slot: InstanceId, batch: u32) -> u64 {
    let batch = batch.max(1) as u64;
    let first = slot as u64 * batch;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for req in first..first + batch {
        for b in req.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

/// A repeated-consensus service: a protocol spec, a shared substrate
/// template, and the service knobs. Cheap to clone per replica; see the
/// [module docs](self) for the full picture.
#[derive(Clone, Debug)]
pub struct Replicated<M, V = u64> {
    spec: ProtocolSpec<M, V>,
    ctx: ProtocolContext,
    cfg: ServiceConfig,
}

impl<M, V> Replicated<M, V>
where
    M: Machine + 'static,
    V: Send + 'static,
{
    /// Builds a service running `cfg.slots` instances of `spec` over the
    /// shared substrate `ctx`.
    pub fn new(spec: ProtocolSpec<M, V>, ctx: ProtocolContext, cfg: ServiceConfig) -> Self {
        Replicated { spec, ctx, cfg }
    }

    /// The engine every slot runs.
    pub fn spec(&self) -> ProtocolSpec<M, V> {
        self.spec
    }

    /// The shared substrate template.
    pub fn context(&self) -> &ProtocolContext {
        &self.ctx
    }

    /// The service knobs.
    pub fn config(&self) -> ServiceConfig {
        self.cfg
    }

    /// The multiplexed machine for replica `p`, proposing `propose(slot)`
    /// in each slot. The factory clones the substrate once per replica and
    /// stamps per-slot machines out of it on demand.
    pub fn replica_with(
        &self,
        p: ProcessId,
        propose: impl Fn(InstanceId) -> V + Send + 'static,
    ) -> Multiplex<M> {
        let spec = self.spec;
        let ctx = self.ctx.clone();
        let factory = move |slot: InstanceId, _env: &Env| spec.machine(&ctx, p, propose(slot));
        Multiplex::new(
            self.cfg.slots,
            self.cfg.pipeline_window(),
            Box::new(factory),
        )
    }
}

impl<M> Replicated<M, u64>
where
    M: Machine + 'static,
{
    /// The multiplexed machine for replica `p` under the built-in batched
    /// client workload ([`batch_proposal`]).
    pub fn replica(&self, p: ProcessId) -> Multiplex<M> {
        let batch = self.cfg.batch_size();
        self.replica_with(p, move |slot| batch_proposal(slot, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{find_vector, VectorMachine};
    use validity_core::SystemParams;
    use validity_simnet::{agreement_holds, NodeKind, SimBuilder, Simulation};

    fn run_service(
        name: &str,
        cfg: ServiceConfig,
        seed: u64,
    ) -> Simulation<Multiplex<VectorMachine<u64>>> {
        let params = SystemParams::new(4, 1).unwrap();
        let service = Replicated::new(
            find_vector::<u64>(name).unwrap(),
            ProtocolContext::new(params, seed),
            cfg,
        );
        let nodes = (0..4)
            .map(|i| NodeKind::Correct(service.replica(ProcessId::from_index(i))))
            .collect();
        let mut sim = SimBuilder::new(params)
            .seed(seed)
            .build(nodes)
            .expect("valid configuration");
        sim.run_until_decided();
        sim
    }

    #[test]
    fn batch_proposal_is_slot_dependent_and_stable() {
        assert_eq!(batch_proposal(0, 4), batch_proposal(0, 4));
        assert_ne!(batch_proposal(0, 4), batch_proposal(1, 4));
        assert_ne!(batch_proposal(0, 1), batch_proposal(0, 2));
        // Zero batch clamps to one request.
        assert_eq!(batch_proposal(3, 0), batch_proposal(3, 1));
    }

    #[test]
    fn service_commits_every_slot_on_each_engine() {
        for name in ["alg1-auth", "alg3-nonauth", "alg6-fast"] {
            let cfg = ServiceConfig {
                slots: 3,
                pipeline: 2,
                batch: 4,
            };
            let sim = run_service(name, cfg, 9);
            assert!(sim.all_correct_decided(), "{name} service did not finish");
            assert!(agreement_holds(sim.decisions()), "{name} digests diverged");
            for i in 0..4 {
                match sim.node(ProcessId::from_index(i)) {
                    NodeKind::Correct(mux) => {
                        assert!(mux.all_decided());
                        assert_eq!(mux.decisions().len(), 3);
                    }
                    NodeKind::Byzantine(_) => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn pipelining_overlaps_slots() {
        // With a window of 2, slot 1 must open before slot 0 decides on at
        // least one replica; sequentially it opens exactly at decision.
        let piped = run_service(
            "alg1-auth",
            ServiceConfig {
                slots: 4,
                pipeline: 2,
                batch: 1,
            },
            5,
        );
        let NodeKind::Correct(mux) = piped.node(ProcessId(0)) else {
            unreachable!()
        };
        let d = mux.decisions();
        assert!(
            d[1].opened_at < d[0].decided_at,
            "window 2 should overlap slots: {:?}",
            d
        );

        let seq = run_service("alg1-auth", ServiceConfig::sequential(4), 5);
        let NodeKind::Correct(mux) = seq.node(ProcessId(0)) else {
            unreachable!()
        };
        let d = mux.decisions();
        assert_eq!(d[1].opened_at, d[0].decided_at);
    }

    #[test]
    fn sequential_total_requests_accounts_batching() {
        let cfg = ServiceConfig {
            slots: 5,
            pipeline: 1,
            batch: 8,
        };
        assert_eq!(cfg.total_requests(), 40);
        assert_eq!(ServiceConfig::sequential(7).total_requests(), 7);
    }
}
