//! # validity-simnet
//!
//! A deterministic discrete-event simulator of the partially synchronous
//! model of *On the Validity of Consensus* (PODC 2023, §3.1):
//!
//! * `n` processes, up to `t` Byzantine, reliable authenticated channels;
//! * a Global Stabilization Time (GST) with delays ≤ `δ` afterwards and an
//!   adversary-controlled schedule before;
//! * message- and word-complexity accounting exactly as the paper defines it
//!   (messages sent by correct processes in `[GST, ∞)`);
//! * deterministic, seedable executions — the replayability that the
//!   paper's execution-merging proofs (Lemmas 2, 3, 7) need to become
//!   executable tests.
//!
//! Protocols are written as effect-writing [`Machine`]s — hooks append
//! their effects to a reusable [`StepSink`] — and Byzantine behaviours
//! implement [`Byzantine`] (writing into a [`ByzSink`]) and may send
//! arbitrary messages, equivocate, or stay [`Silent`] (canonical
//! executions). The sink-based hook API, the shared broadcast payloads and
//! the calendar-queue scheduler keep the event loop free of per-event heap
//! allocation — see `sim`'s module docs for the full hot-path story.
//!
//! ## Example
//!
//! ```
//! use validity_core::{ProcessId, SystemParams};
//! use validity_simnet::{
//!     Env, Machine, Message, NodeKind, Silent, SimBuilder, StepSink,
//! };
//!
//! #[derive(Clone, Debug)]
//! struct Hello;
//! impl Message for Hello {}
//!
//! /// Decides as soon as it hears from a quorum.
//! #[derive(Default)]
//! struct Quorum { heard: usize }
//!
//! impl Machine for Quorum {
//!     type Msg = Hello;
//!     type Output = usize;
//!     fn init(&mut self, _env: &Env, sink: &mut StepSink<Hello, usize>) {
//!         sink.broadcast(Hello);
//!     }
//!     fn on_message(&mut self, _f: ProcessId, _m: &Hello, env: &Env,
//!                   sink: &mut StepSink<Hello, usize>) {
//!         self.heard += 1;
//!         if self.heard == env.quorum() { sink.output(self.heard); }
//!     }
//! }
//!
//! let params = SystemParams::new(4, 1)?;
//! let nodes = vec![
//!     NodeKind::Correct(Quorum::default()),
//!     NodeKind::Correct(Quorum::default()),
//!     NodeKind::Correct(Quorum::default()),
//!     NodeKind::Byzantine(Box::new(Silent)),
//! ];
//! let mut sim = SimBuilder::new(params).build(nodes).expect("valid configuration");
//! sim.run_until_decided();
//! assert!(sim.all_correct_decided());
//! # Ok::<(), validity_core::ParamError>(())
//! ```
//!
//! [`SimBuilder`] is the only way to build a [`Simulation`]: it validates
//! the node count, fault threshold, start times and `δ` and returns a
//! named [`BuildError`]; [`SimBuilder::config`] reads the assembled
//! [`SimConfig`] back. The pre-GST network is one [`NetModel`]
//! (`SimBuilder::new(p).net(..)`, see [`net`]); instrumentation is one
//! [`Probe`] (`build_with_probe`, read back with `Simulation::probe`) —
//! [`Metrics`], [`Timeline`] and [`Trace`] are all probes, and [`Tandem`]
//! attaches two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mux;
pub mod net;
pub mod node;
pub mod observed;
pub mod probe;
pub mod queue;
pub mod sim;
pub mod sink;
pub mod stats;
pub mod time;
pub mod trace;

pub use mux::{InstanceId, Multiplex, MuxMsg, SlotDecision};
pub use net::{
    Churn, Delivery, Duplicate, FixedModel, Jitter, LinkCtx, Loss, NetModel, Partition,
    PerLinkModel, SyncModel, UniformModel,
};
pub use node::{ByzStep, Byzantine, Env, FilteredMachine, Machine, Message, Silent, Step};
pub use observed::ObservedState;
pub use probe::{EventClass, Hist, Metrics, NoProbe, Probe, Tandem, Timeline};
pub use queue::CalendarQueue;
pub use sim::{
    agreement_holds, BuildError, NodeKind, RunOutcome, SimBuilder, SimConfig, Simulation,
};
pub use sink::{ByzSink, StepSink};
pub use stats::NetStats;
pub use time::{Time, DEFAULT_DELTA, DEFAULT_GST};
pub use trace::{Trace, TraceEvent};
