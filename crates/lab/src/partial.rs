//! Partial reports and their merge.
//!
//! A **partial report** holds the records of one [`ShardSpec`] of a
//! matrix — a round-robin slice of its cells — plus enough provenance to
//! recombine them. [`merge`] takes all `m` partials and reproduces the
//! report one [`crate::SweepEngine::run`] of the whole matrix writes,
//! **byte-for-byte**: aggregates, fits, and quarantine sections are
//! recomputed over the merged records through the exact same
//! [`SweepReport::aggregate_matrix`] path.
//!
//! No `lab` command writes or reads a partial: every sweep runs in one
//! process. The format stays as a library round trip whose merged bytes
//! must equal the single-process report, which is what the benchmark's
//! `lab.partial.*` and `lab.merge.ms` layer metrics time.
//!
//! Three properties make the byte-identity guarantee hold:
//!
//! 1. cell execution is a pure function of the cell (see [`crate::runner`]),
//!    so a record in shard `i` equals the record the whole run computes;
//! 2. the partial carries every record field — including the pooled
//!    [`NetStats`] counters the compact report JSON omits — as exact
//!    integers, so parsing a partial reconstructs the in-memory records
//!    losslessly;
//! 3. the partial embeds the full matrix specification, so the merge can
//!    re-enumerate the matrix, restore matrix order, and re-run the same
//!    deterministic aggregation the single-process path uses.
//!
//! The partial format is versioned ([`PARTIAL_SCHEMA`]); the reader
//! refuses artifacts from a different schema generation instead of
//! producing silently wrong output. Two `partial@2` keys are constants
//! kept for the bytes and never read: the matrix's `"sampling": null` and
//! the top-level `"sampling": []`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use validity_simnet::NetStats;

use crate::json::{Fields, Json};
use crate::matrix::{
    ClassifyCell, FitAxis, FitBand, FitMeasure, ProtocolAxis, ScenarioMatrix, ScheduleSpec,
    ValiditySpec,
};
use crate::report::{json_str, SweepReport};
use crate::runner::{CellRecord, ClassifyRecord, Outcome, RunRecord};

/// Schema tag of partial report files.
pub const PARTIAL_SCHEMA: &str = "validity-lab/partial@2";

/// One shard of an `m`-way partition of a matrix, with `index` 1-based.
///
/// Cells are assigned round-robin over the matrix enumeration index:
/// shard `i` owns every cell whose index `≡ i − 1 (mod m)`, so the
/// assignment is a pure function of the matrix and `(i, m)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardSpec {
    /// Which shard this is, in `1..=count`.
    pub index: usize,
    /// Total number of shards in the partition.
    pub count: usize,
}

impl ShardSpec {
    /// Whether this shard owns the cell at the given matrix-enumeration
    /// index.
    pub fn owns(&self, cell_index: usize) -> bool {
        cell_index % self.count == self.index - 1
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One shard's worth of a sweep: records plus merge provenance.
#[derive(Clone, Debug)]
pub struct PartialReport {
    /// The full matrix the shard was cut from (embedded so the merge can
    /// re-enumerate it without rebuilding suites or re-parsing CLI flags).
    pub matrix: ScenarioMatrix,
    /// Which shard of how many.
    pub shard: ShardSpec,
    /// Wall-clock seconds the shard took (provenance only; never merged
    /// into the deterministic report).
    pub wall_seconds: f64,
    /// The shard's cell records, in matrix order.
    pub records: Vec<CellRecord>,
}

impl PartialReport {
    /// Builds a partial from a shard's executed records.
    pub fn new(
        matrix: ScenarioMatrix,
        shard: ShardSpec,
        wall_seconds: f64,
        records: Vec<CellRecord>,
    ) -> PartialReport {
        PartialReport {
            matrix,
            shard,
            wall_seconds,
            records,
        }
    }

    /// Renders the partial to its versioned JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(PARTIAL_SCHEMA));
        let _ = writeln!(
            out,
            "  \"shard\": {{\"index\": {}, \"count\": {}}},",
            self.shard.index, self.shard.count
        );
        let _ = writeln!(out, "  \"wall_seconds\": {:.3},", self.wall_seconds);
        out.push_str("  \"matrix\": ");
        matrix_json(&mut out, &self.matrix);
        out.push_str(",\n  \"sampling\": [],\n  \"records\": [\n");
        for (i, rec) in self.records.iter().enumerate() {
            out.push_str("    ");
            record_json(&mut out, rec);
            out.push_str(if i + 1 == self.records.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a partial-report file, rejecting other schema generations
    /// (including full reports) and any missing or mistyped field by name.
    pub fn parse(text: &str) -> Result<PartialReport, String> {
        let json = Json::parse(text)?;
        let v = Fields::tagged(&json, PARTIAL_SCHEMA, "partial report")?;
        let shard = v.obj("shard")?;
        let shard = ShardSpec {
            index: shard.get("index")?,
            count: shard.get("count")?,
        };
        if shard.index == 0 || shard.index > shard.count {
            return Err(format!("shard {shard} out of range"));
        }
        Ok(PartialReport {
            matrix: matrix_from_json(&v.obj("matrix")?)?,
            shard,
            wall_seconds: v.get("wall_seconds")?,
            records: v
                .objs("records")?
                .iter()
                .map(record_from_json)
                .collect::<Result<_, String>>()?,
        })
    }
}

/// Merges all `m` partials of one sweep back into the full deterministic
/// report (byte-identical to a single-process run of the same matrix).
///
/// Validates the set before touching a record: every partial must come
/// from the same matrix (compared by serialized specification), declare
/// the same shard count, the indices must be exactly `1..=m` with no
/// duplicates, and each partial's record keys must be exactly the keys
/// its shard owns. Any gap, overlap, or drift is an error — a silently
/// incomplete merge would masquerade as a clean sweep.
pub fn merge(partials: &[PartialReport]) -> Result<(SweepReport, ScenarioMatrix), String> {
    let first = partials.first().ok_or("nothing to merge")?;
    let count = first.shard.count;
    let spec = {
        let mut s = String::new();
        matrix_json(&mut s, &first.matrix);
        s
    };
    let mut seen = vec![false; count];
    for p in partials {
        if p.shard.count != count {
            return Err(format!(
                "mixed partitions: shard {} vs {}-way",
                p.shard, count
            ));
        }
        if p.shard.index == 0 || p.shard.index > count {
            return Err(format!("shard {} out of range", p.shard));
        }
        if std::mem::replace(&mut seen[p.shard.index - 1], true) {
            return Err(format!("duplicate shard {}", p.shard));
        }
        let mut other = String::new();
        matrix_json(&mut other, &p.matrix);
        if other != spec {
            return Err(format!(
                "shard {} was cut from a different matrix ('{}' vs '{}')",
                p.shard, p.matrix.name, first.matrix.name
            ));
        }
    }
    let missing: Vec<String> = seen
        .iter()
        .enumerate()
        .filter(|(_, present)| !**present)
        .map(|(i, _)| (i + 1).to_string())
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "incomplete merge: got {} partial(s) of a {count}-way shard — \
             missing shard index(es) {}",
            partials.len(),
            missing.join(", "),
        ));
    }
    // Indices are 1..=count, distinct, and there are exactly `count` of
    // them: all shards are present. One enumeration of the matrix now
    // serves both the per-shard assignment check and the final ordering —
    // merge does no sweeping, so cell enumeration is its dominant cost.
    let keys: Vec<String> = first.matrix.cells().iter().map(|c| c.key()).collect();
    let mut by_key: BTreeMap<&str, &CellRecord> = BTreeMap::new();
    for p in partials {
        let expected: Vec<&str> = keys
            .iter()
            .enumerate()
            .filter(|&(i, _)| p.shard.owns(i))
            .map(|(_, k)| k.as_str())
            .collect();
        let got: Vec<&str> = p.records.iter().map(|r| r.key.as_str()).collect();
        if expected != got {
            return Err(format!(
                "shard {} records do not match its cell assignment \
                 (expected {} cell(s), got {})",
                p.shard,
                expected.len(),
                got.len()
            ));
        }
        for rec in &p.records {
            by_key.insert(&rec.key, rec);
        }
    }
    let ordered: Vec<CellRecord> = keys
        .iter()
        .map(|key| {
            by_key
                .get(key.as_str())
                .map(|r| (*r).clone())
                .ok_or_else(|| format!("cell '{key}' covered by no shard"))
        })
        .collect::<Result<_, String>>()?;
    let report = SweepReport::aggregate_matrix(&first.matrix, &ordered);
    Ok((report, first.matrix.clone()))
}

// ---------------------------------------------------------------------------
// Matrix specification ⇄ JSON

/// Emits the full matrix specification. Field order is fixed and floats
/// use Rust's shortest round-trip rendering, so equal matrices serialize
/// to equal bytes (which is how `merge` compares provenance).
fn matrix_json(out: &mut String, m: &ScenarioMatrix) {
    let _ = write!(out, "{{\"name\": {}, \"protocols\": [", json_str(&m.name));
    for (i, p) in m.protocols.iter().enumerate() {
        let _ = write!(out, "{}{}", sep(i), json_str(&p.name()));
    }
    out.push_str("], \"validities\": [");
    for (i, v) in m.validities.iter().enumerate() {
        let _ = write!(out, "{}{}", sep(i), json_str(v.name()));
    }
    out.push_str("], \"behaviors\": [");
    for (i, b) in m.behaviors.iter().enumerate() {
        let _ = write!(out, "{}{}", sep(i), json_str(b.name()));
    }
    out.push_str("], \"faults\": [");
    for (i, &f) in m.faults.iter().enumerate() {
        let tag = if f == usize::MAX {
            "max".to_string()
        } else {
            f.to_string()
        };
        let _ = write!(out, "{}{}", sep(i), json_str(&tag));
    }
    out.push_str("], \"schedules\": [");
    for (i, s) in m.schedules.iter().enumerate() {
        let _ = write!(out, "{}{}", sep(i), json_str(s.name()));
    }
    out.push_str("], \"systems\": [");
    for (i, &(n, t)) in m.systems.iter().enumerate() {
        let _ = write!(out, "{}[{n}, {t}]", sep(i));
    }
    let _ = write!(
        out,
        "], \"seeds\": [{}, {}], \"classifications\": [",
        m.seeds.start, m.seeds.end
    );
    for (i, c) in m.classifications.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"validity\": {}, \"n\": {}, \"t\": {}, \"domain\": {}}}",
            sep(i),
            json_str(c.validity.name()),
            c.n,
            c.t,
            c.domain
        );
    }
    out.push_str("], \"fit_measures\": [");
    for (i, f) in m.fit_measures.iter().enumerate() {
        let _ = write!(out, "{}{}", sep(i), json_str(f.name()));
    }
    out.push_str("], \"fit_bands\": [");
    for (i, b) in m.fit_bands.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"measure\": {}, \"lo\": {}, \"hi\": {}, \"filter\": {}}}",
            sep(i),
            json_str(b.measure.name()),
            b.lo,
            b.hi,
            json_str(&b.filter)
        );
    }
    let _ = write!(
        out,
        "], \"fit_axis\": {}, \"sampling\": null",
        json_str(m.fit_axis().name())
    );
    match m.max_steps {
        Some(n) => {
            let _ = write!(out, ", \"max_steps\": {n}}}");
        }
        None => out.push_str(", \"max_steps\": null}"),
    }
}

fn matrix_from_json(v: &Fields) -> Result<ScenarioMatrix, String> {
    let mut m = ScenarioMatrix::new(v.get::<&str>("name")?);
    m.protocols = names(v, "protocols", |s| {
        ProtocolAxis::parse(s).ok_or_else(|| format!("unknown protocol '{s}'"))
    })?;
    m.validities = names(v, "validities", parse_validity)?;
    m.behaviors = names(v, "behaviors", validity_adversary::BehaviorId::parse_or_err)?;
    m.faults = names(v, "faults", |s| match s {
        "max" => Ok(usize::MAX),
        s => s.parse().map_err(|_| format!("bad fault load '{s}'")),
    })?;
    m.schedules = names(v, "schedules", ScheduleSpec::parse_or_err)?;
    m.systems = v.get("systems")?;
    let (start, end) = v.get("seeds")?;
    m.seeds = start..end;
    m.classifications = v
        .objs("classifications")?
        .iter()
        .map(|c| {
            Ok(ClassifyCell {
                validity: parse_validity(c.get("validity")?)?,
                n: c.get("n")?,
                t: c.get("t")?,
                domain: c.get("domain")?,
            })
        })
        .collect::<Result<_, String>>()?;
    m.fit_measures = names(v, "fit_measures", parse_measure)?;
    m.fit_bands = v
        .objs("fit_bands")?
        .iter()
        .map(|b| {
            Ok(FitBand {
                measure: parse_measure(b.get("measure")?)?,
                lo: b.get("lo")?,
                hi: b.get("hi")?,
                filter: b.get("filter")?,
            })
        })
        .collect::<Result<_, String>>()?;
    // The axis follows from the measures; a file that says otherwise was
    // not written by this lab.
    let axis: &str = v.get("fit_axis")?;
    if FitAxis::parse(axis) != Some(m.fit_axis()) {
        return Err(format!(
            "{}: fit_axis '{axis}' disagrees with fit_measures, which fit along '{}'",
            v.at(),
            m.fit_axis()
        ));
    }
    m.max_steps = v.get("max_steps")?;
    Ok(m)
}

fn sep(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ", "
    }
}

/// Reads the string array `field` through a registry's name parser.
fn names<'a, T>(
    v: &Fields<'a>,
    field: &str,
    parse: impl Fn(&'a str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    v.get::<Vec<&str>>(field)?.into_iter().map(parse).collect()
}

fn parse_validity(s: &str) -> Result<ValiditySpec, String> {
    ValiditySpec::parse(s).ok_or_else(|| format!("unknown validity '{s}'"))
}

fn parse_measure(s: &str) -> Result<FitMeasure, String> {
    FitMeasure::parse(s).ok_or_else(|| format!("unknown fit measure '{s}'"))
}

// ---------------------------------------------------------------------------
// Full-fidelity cell records ⇄ JSON

/// Emits one cell record with **every** field — unlike the compact report
/// JSON, this includes the pooled [`NetStats`] counters and classification
/// resilience flags, so the merge can reconstruct the in-memory record
/// exactly.
fn record_json(out: &mut String, rec: &CellRecord) {
    let _ = write!(
        out,
        "{{\"key\": {}, \"group\": {}, ",
        json_str(&rec.key),
        json_str(&rec.group)
    );
    match &rec.outcome {
        Outcome::Run(r) => {
            let _ = write!(
                out,
                "\"type\": \"run\", \"decided\": {}, \"agreement\": {}, \
                 \"validity_ok\": {}, \"messages_after_gst\": {}, \
                 \"words_after_gst\": {}, \"messages_total\": {}, \
                 \"words_total\": {}, \"latency\": {}, \"decision\": {}, \
                 \"quarantined\": {}, \"stats\": ",
                r.decided,
                r.agreement,
                opt_bool(r.validity_ok),
                r.messages_after_gst,
                r.words_after_gst,
                r.messages_total,
                r.words_total,
                r.latency,
                json_str(&r.decision),
                r.quarantined,
            );
            stats_json(out, &r.stats);
            out.push('}');
        }
        Outcome::Classify(c) => {
            let _ = write!(
                out,
                "\"type\": \"classify\", \"verdict\": {}, \"certificate\": {}, \
                 \"high_resilience\": {}, \"theorem1_consistent\": {}, \"cost\": {}}}",
                json_str(&c.verdict),
                json_str(&c.certificate),
                c.high_resilience,
                c.theorem1_consistent,
                c.cost,
            );
        }
    }
}

fn opt_bool(b: Option<bool>) -> String {
    b.map_or("null".to_string(), |b| b.to_string())
}

fn stats_json(out: &mut String, s: &NetStats) {
    let _ = write!(
        out,
        "{{\"messages_after_gst\": {}, \"words_after_gst\": {}, \
         \"messages_total\": {}, \"words_total\": {}, \
         \"byzantine_messages\": {}, \"sent_by\": [",
        s.messages_after_gst,
        s.words_after_gst,
        s.messages_total,
        s.words_total,
        s.byzantine_messages,
    );
    for (i, c) in s.sent_by.iter().enumerate() {
        let _ = write!(out, "{}{c}", sep(i));
    }
    out.push_str("], \"received_by\": [");
    for (i, c) in s.received_by.iter().enumerate() {
        let _ = write!(out, "{}{c}", sep(i));
    }
    let _ = write!(
        out,
        "], \"deliveries\": {}, \"timer_fires\": {}",
        s.deliveries, s.timer_fires,
    );
    // Chaos-only counters: emitted only when nonzero, so records from the
    // legacy (clean) schedules keep their historical bytes exactly.
    if s.dropped != 0 {
        let _ = write!(out, ", \"dropped\": {}", s.dropped);
    }
    if s.duplicated != 0 {
        let _ = write!(out, ", \"duplicated\": {}", s.duplicated);
    }
    // Adversary self-reports: only adaptive behaviours file them, so the
    // same nonzero-only rule keeps every oblivious record byte-stable.
    if s.equivocations != 0 {
        let _ = write!(out, ", \"equivocations\": {}", s.equivocations);
    }
    if s.omissions != 0 {
        let _ = write!(out, ", \"omissions\": {}", s.omissions);
    }
    let _ = write!(
        out,
        ", \"first_decision_at\": {}, \"last_decision_at\": {}}}",
        s.first_decision_at
            .map_or("null".to_string(), |t| t.to_string()),
        s.last_decision_at
            .map_or("null".to_string(), |t| t.to_string()),
    );
}

fn record_from_json(v: &Fields) -> Result<CellRecord, String> {
    let outcome = match v.get::<&str>("type")? {
        "run" => Outcome::Run(RunRecord {
            // Not serialized: timing-only, irrelevant to merged artifacts.
            events: 0,
            decided: v.get("decided")?,
            agreement: v.get("agreement")?,
            validity_ok: v.get("validity_ok")?,
            messages_after_gst: v.get("messages_after_gst")?,
            words_after_gst: v.get("words_after_gst")?,
            messages_total: v.get("messages_total")?,
            words_total: v.get("words_total")?,
            latency: v.get("latency")?,
            decision: v.get("decision")?,
            quarantined: v.get("quarantined")?,
            stats: stats_from_json(&v.obj("stats")?)?,
        }),
        "classify" => Outcome::Classify(ClassifyRecord {
            verdict: v.get("verdict")?,
            certificate: v.get("certificate")?,
            high_resilience: v.get("high_resilience")?,
            theorem1_consistent: v.get("theorem1_consistent")?,
            cost: v.get("cost")?,
        }),
        other => return Err(format!("{}: unknown record type '{other}'", v.at())),
    };
    Ok(CellRecord {
        key: v.get("key")?,
        group: v.get("group")?,
        outcome,
    })
}

fn stats_from_json(v: &Fields) -> Result<NetStats, String> {
    Ok(NetStats {
        messages_after_gst: v.get("messages_after_gst")?,
        words_after_gst: v.get("words_after_gst")?,
        messages_total: v.get("messages_total")?,
        words_total: v.get("words_total")?,
        byzantine_messages: v.get("byzantine_messages")?,
        sent_by: v.get("sent_by")?,
        received_by: v.get("received_by")?,
        deliveries: v.get("deliveries")?,
        timer_fires: v.get("timer_fires")?,
        // Written only when nonzero (see `stats_json`).
        dropped: v.counter("dropped")?,
        duplicated: v.counter("duplicated")?,
        equivocations: v.counter("equivocations")?,
        omissions: v.counter("omissions")?,
        first_decision_at: v.get("first_decision_at")?,
        last_decision_at: v.get("last_decision_at")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SweepEngine;
    use crate::suites;

    /// The `quick` suite run once in one process, its records cut into
    /// `count` shards by [`ShardSpec::owns`].
    fn quick_partials(count: usize) -> (ScenarioMatrix, Vec<PartialReport>) {
        let m = suites::build("quick").expect("built-in suite");
        let records = SweepEngine::new(2).run(&m).0.cells;
        let partials = (1..=count)
            .map(|index| {
                let shard = ShardSpec { index, count };
                let owned = records
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| shard.owns(i))
                    .map(|(_, r)| r.clone())
                    .collect();
                PartialReport::new(m.clone(), shard, 0.0, owned)
            })
            .collect();
        (m, partials)
    }

    /// Every cell index belongs to exactly one shard of any partition:
    /// shard `i` of `m` owns index `j` iff `j ≡ i − 1 (mod m)`.
    #[test]
    fn shards_partition_the_matrix_in_order() {
        let cells = suites::build("quick").expect("built-in suite").len();
        for count in 1..=8 {
            for cell in 0..cells {
                let owners: Vec<usize> = (1..=count)
                    .filter(|&index| ShardSpec { index, count }.owns(cell))
                    .collect();
                assert_eq!(owners, [cell % count + 1], "cell {cell} at m={count}");
            }
        }
    }

    #[test]
    fn matrix_spec_round_trips_through_json() {
        for name in suites::ALL {
            let m = suites::build(name).expect(name);
            let mut text = String::new();
            matrix_json(&mut text, &m);
            let json = Json::parse(&text).expect(name);
            let back = matrix_from_json(&Fields::of(&json, "matrix").unwrap()).expect(name);
            // Spec equality is byte equality of the canonical rendering.
            let mut again = String::new();
            matrix_json(&mut again, &back);
            assert_eq!(text, again, "{name} spec drifted through JSON");
            // And the reconstructed matrix enumerates identical cells.
            let keys: Vec<String> = m.cells().iter().map(|c| c.key()).collect();
            let back_keys: Vec<String> = back.cells().iter().map(|c| c.key()).collect();
            assert_eq!(keys, back_keys, "{name} cells drifted through JSON");
        }
    }

    /// The `fit_axis` key is required but derived: a value that
    /// disagrees with the matrix's measures is refused by name.
    #[test]
    fn matrix_reader_refuses_a_fit_axis_its_measures_disagree_with() {
        for (name, axis, forged) in [
            ("complexity", "n", "t"),
            ("complexity", "n", "domain"),
            ("classifier-domain", "domain", "n"),
        ] {
            let mut text = String::new();
            matrix_json(&mut text, &suites::build(name).expect(name));
            let text = text.replace(
                &format!("\"fit_axis\": \"{axis}\""),
                &format!("\"fit_axis\": \"{forged}\""),
            );
            let json = Json::parse(&text).expect(name);
            let err = matrix_from_json(&Fields::of(&json, "matrix").unwrap()).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "matrix: fit_axis '{forged}' disagrees with fit_measures, \
                     which fit along '{axis}'"
                ),
                "{name}"
            );
        }
    }

    #[test]
    fn partials_round_trip_and_merge_to_the_unsharded_bytes() {
        let (m, partials) = quick_partials(3);
        let unsharded = SweepEngine::new(1).run(&m).0;
        // Round-trip every partial through its JSON form first: the merge
        // below then proves the *serialized* artifacts suffice.
        let parsed: Vec<PartialReport> = partials
            .iter()
            .map(|p| PartialReport::parse(&p.to_json()).expect("round-trip"))
            .collect();
        let (merged, matrix) = merge(&parsed).expect("complete merge");
        assert_eq!(merged.to_json(), unsharded.to_json());
        assert_eq!(merged.to_markdown(), unsharded.to_markdown());
        assert_eq!(matrix.name, m.name);
    }

    #[test]
    fn merge_rejects_gaps_duplicates_and_foreign_shards() {
        let (_, partials) = quick_partials(3);
        assert!(merge(&[]).is_err());
        // Missing shard.
        let err = merge(&partials[..2]).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
        // Duplicate shard.
        let mut dup = partials.clone();
        dup[2] = dup[0].clone();
        assert!(merge(&dup).unwrap_err().contains("duplicate"));
        // Mixed shard counts.
        let mut mixed = partials.clone();
        mixed[0].shard.count = 4;
        assert!(merge(&mixed).is_err());
        // Same shape, different matrix.
        let mut foreign = partials.clone();
        foreign[1].matrix.seeds = 0..3;
        assert!(merge(&foreign).unwrap_err().contains("different matrix"));
        // Records not matching the shard's assignment.
        let mut torn = partials.clone();
        torn[0].records.pop();
        assert!(merge(&torn).unwrap_err().contains("assignment"));
    }

    #[test]
    fn parse_rejects_full_reports_and_garbage() {
        let err = PartialReport::parse("{\"schema\": \"validity-lab/report@1\"}").unwrap_err();
        assert!(err.contains("schema"), "{err}");
        assert!(PartialReport::parse("{}").unwrap_err().contains("schema"));
        assert!(PartialReport::parse("nonsense").is_err());
    }
}
