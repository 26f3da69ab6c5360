//! The six benchmark workloads: fixed matrices over the lab's public axes.
//!
//! Names and axes are fixed — later issues cite them — and each workload
//! exists because it loads a different layer (see `why`). `--seed S`
//! shifts every seed axis to `S..S+k`; the system under test receives only
//! the generated matrices.

use validity_adversary::BehaviorId;
use validity_lab::{
    suites, ClassifyCell, ProtocolAxis, ScenarioMatrix, ScheduleSpec, ServiceMatrix, ValiditySpec,
};
use validity_protocols::{find_vector, VectorSpec};

/// How much of a workload's ladder to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The measured workload.
    Full,
    /// `--smoke`: reduced ladders, seconds for all six workloads.
    Smoke,
    /// The smallest cut that still touches every axis value kind — what
    /// the replay-equality tests run (in a debug build).
    #[cfg(test)]
    Tiny,
}

impl Size {
    /// The tag used in `fingerprints.json` and result files.
    pub fn tag(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
            #[cfg(test)]
            Size::Tiny => "tiny",
        }
    }
}

/// What a workload hands the system under test.
#[derive(Clone, Debug)]
pub enum Plan {
    /// A scenario sweep (`lab run`).
    Sweep(ScenarioMatrix),
    /// A service sweep (`lab service`).
    Service(ServiceMatrix),
}

/// One named workload.
pub struct Workload {
    /// The fixed name.
    pub name: &'static str,
    /// Which layer it loads, and what it must stay flat under.
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs and gates it. The
    /// driver's time limit is shared by all listed workloads and a run has
    /// to be long enough to be steady on a shared box, so only four are;
    /// the others are measured by `all` and judged by `compare`.
    pub gated: bool,
    build: fn(Size, u64) -> Plan,
}

impl Workload {
    /// Generates the workload's matrix for `seed`.
    pub fn plan(&self, size: Size, seed: u64) -> Plan {
        (self.build)(size, seed)
    }
}

/// The workloads, in report order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "auth_sweep",
        why: "Algorithm 1 raw and under Universal at n = 16..64: signature and SHA-256 work in \
              the handlers dominates, the event loop is a few percent",
        gated: true,
        build: auth_sweep,
    },
    Workload {
        name: "subcubic_sweep",
        why: "Algorithm 6 at n = 16..64: Reed-Solomon, hashing and threshold signatures, and \
              the only far-future timers (calendar-queue overflow tier)",
        gated: false,
        build: subcubic_sweep,
    },
    Workload {
        name: "nonauth_flood",
        why: "Algorithm 3: no signatures, millions of events per pass, so queue, payload slab, \
              NetModel draw and stats dominate",
        gated: true,
        build: nonauth_flood,
    },
    Workload {
        name: "classify_grid",
        why: "solvability classification only: core alone, no simulator, the workload every \
              simulator or crypto change bypasses",
        gated: true,
        build: classify_grid,
    },
    Workload {
        name: "chaos_small",
        why: "thousands of sub-millisecond cells over every schedule and adversary: per-cell \
              setup, chaos NetModels, adversary hooks and aggregate+emit carry the weight",
        gated: true,
        build: chaos_small,
    },
    Workload {
        name: "service_pipeline",
        why: "Algorithm 1 as a 64-slot replicated service through Multiplex: one long \
              simulation per cell, setup amortised",
        gated: false,
        build: service_pipeline,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn engine(name: &str) -> VectorSpec {
    find_vector(name).expect("registered engine")
}

/// The `(n, t)` ladder the three large-n sweeps share.
fn ladder(size: Size, full: &[(usize, usize)]) -> Vec<(usize, usize)> {
    match size {
        Size::Full => full.to_vec(),
        Size::Smoke => full[..2.min(full.len())].to_vec(),
        #[cfg(test)]
        Size::Tiny => vec![(4, 1), (7, 2)],
    }
}

fn seeds(size: Size, seed: u64, full: u64) -> std::ops::Range<u64> {
    let k = match size {
        Size::Full => full,
        Size::Smoke => full.min(2),
        #[cfg(test)]
        Size::Tiny => 1,
    };
    seed..seed + k
}

const LARGE: [(usize, usize); 4] = [(16, 5), (31, 10), (46, 15), (64, 21)];

fn auth_sweep(size: Size, seed: u64) -> Plan {
    let mut m = ScenarioMatrix::new("auth_sweep");
    m.protocols = vec![
        ProtocolAxis::raw(engine("alg1-auth")),
        ProtocolAxis::wrapped(engine("alg1-auth")),
    ];
    m.validities = vec![ValiditySpec::Strong, ValiditySpec::Median];
    m.behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
    m.faults = vec![0, usize::MAX];
    m.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
    m.systems = ladder(size, &LARGE);
    m.seeds = seeds(size, seed, 4);
    Plan::Sweep(m)
}

fn subcubic_sweep(size: Size, seed: u64) -> Plan {
    let mut m = ScenarioMatrix::new("subcubic_sweep");
    m.protocols = vec![ProtocolAxis::raw(engine("alg6-fast"))];
    m.behaviors = vec![BehaviorId::Silent];
    m.faults = vec![0, usize::MAX];
    m.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
    m.systems = ladder(size, &LARGE);
    m.seeds = seeds(size, seed, 4);
    Plan::Sweep(m)
}

fn nonauth_flood(size: Size, seed: u64) -> Plan {
    let mut m = ScenarioMatrix::new("nonauth_flood");
    m.protocols = vec![ProtocolAxis::raw(engine("alg3-nonauth"))];
    m.behaviors = vec![BehaviorId::Silent];
    m.faults = vec![0, usize::MAX];
    m.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
    m.systems = ladder(size, &LARGE[..3]);
    m.seeds = seeds(size, seed, 2);
    Plan::Sweep(m)
}

/// Classification has no seed axis: the grid is the same for every seed.
fn classify_grid(size: Size, _seed: u64) -> Plan {
    let mut m = ScenarioMatrix::new("classify_grid");
    m.classifications = suites::fig1().classifications;
    let mut grid = |validities: &[ValiditySpec], n, t, domains: std::ops::RangeInclusive<u64>| {
        for &validity in validities {
            for domain in domains.clone() {
                m.classifications.push(ClassifyCell {
                    validity,
                    n,
                    t,
                    domain,
                });
            }
        }
    };
    let four = [
        ValiditySpec::Strong,
        ValiditySpec::Weak,
        ValiditySpec::Median,
        ValiditySpec::ConvexHull,
    ];
    match size {
        Size::Full => {
            grid(&four, 4, 1, 2..=8);
            grid(&ValiditySpec::ALL, 5, 1, 2..=5);
            grid(&ValiditySpec::ALL, 6, 1, 2..=4);
            grid(&ValiditySpec::ALL, 7, 2, 3..=3);
        }
        Size::Smoke => {
            grid(&four, 4, 1, 2..=6);
            grid(&ValiditySpec::ALL, 5, 1, 2..=4);
        }
        #[cfg(test)]
        Size::Tiny => grid(&four, 4, 1, 2..=3),
    }
    Plan::Sweep(m)
}

fn chaos_small(size: Size, seed: u64) -> Plan {
    let mut m = ScenarioMatrix::new("chaos_small");
    m.protocols = vec![
        ProtocolAxis::raw(engine("alg1-auth")),
        ProtocolAxis::wrapped(engine("alg1-auth")),
        ProtocolAxis::raw(engine("alg6-fast")),
    ];
    m.validities = vec![ValiditySpec::Strong, ValiditySpec::Median];
    m.behaviors = vec![
        BehaviorId::Silent,
        BehaviorId::Crash,
        BehaviorId::Stale,
        BehaviorId::TwoFaced,
    ];
    m.behaviors.extend(BehaviorId::ADAPTIVE);
    m.faults = vec![0, usize::MAX];
    m.schedules = ScheduleSpec::ALL.to_vec();
    m.systems = match size {
        Size::Full => vec![(4, 1), (7, 2)],
        Size::Smoke => vec![(4, 1)],
        #[cfg(test)]
        Size::Tiny => vec![(4, 1)],
    };
    m.seeds = seeds(size, seed, 4);
    Plan::Sweep(m)
}

fn service_pipeline(size: Size, seed: u64) -> Plan {
    let mut m = ServiceMatrix::new("service_pipeline");
    m.engines = vec![engine("alg1-auth")];
    m.faults = vec![0, usize::MAX];
    m.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
    m.pipelines = vec![1, 4];
    m.batches = vec![1, 8];
    m.seeds = seeds(size, seed, 2);
    (m.systems, m.slots) = match size {
        Size::Full => (vec![(4, 1), (7, 2), (10, 3)], 64),
        Size::Smoke => (vec![(4, 1), (7, 2)], 16),
        #[cfg(test)]
        Size::Tiny => (vec![(4, 1)], 4),
    };
    Plan::Service(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(w: &Workload, size: Size, seed: u64) -> usize {
        match w.plan(size, seed) {
            Plan::Sweep(m) => m.len(),
            Plan::Service(m) => m.len(),
        }
    }

    /// The final axes, as recorded in `BENCHMARK.json` and the README.
    #[test]
    fn full_workloads_have_their_recorded_cell_counts() {
        let counts: Vec<(&str, usize)> = WORKLOADS
            .iter()
            .map(|w| (w.name, cells(w, Size::Full, 0)))
            .collect();
        assert_eq!(
            counts,
            [
                ("auth_sweep", 288),
                ("subcubic_sweep", 64),
                ("nonauth_flood", 24),
                ("classify_grid", 132),
                ("chaos_small", 2592),
                ("service_pipeline", 96),
            ]
        );
    }

    #[test]
    fn seed_shifts_the_seed_axis_and_nothing_else() {
        for w in &WORKLOADS {
            assert_eq!(
                cells(w, Size::Full, 0),
                cells(w, Size::Full, 7),
                "{}",
                w.name
            );
        }
        let Plan::Sweep(m) = find("auth_sweep").unwrap().plan(Size::Full, 5) else {
            panic!("auth_sweep is a sweep")
        };
        assert_eq!(m.seeds, 5..9);
    }
}
