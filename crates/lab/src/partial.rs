//! Sharded sweeps: partial reports and their merge.
//!
//! A sweep can be split across processes (or machines) with
//! `lab run --shard i/m`: each process executes one [`ShardSpec`] of the
//! matrix and emits a **partial report** — the shard's full-fidelity cell
//! records plus enough provenance to recombine them. `lab merge` then takes
//! all `m` partials and reproduces the report an unsharded single-process
//! run would have produced, **byte-for-byte**: aggregates, fits, and
//! quarantine sections are recomputed over the merged records through the
//! exact same [`SweepReport::aggregate_matrix`] path.
//!
//! Three properties make the byte-identity guarantee hold:
//!
//! 1. cell execution is a pure function of the cell (see [`crate::runner`]),
//!    so a record computed on shard `i` equals the record the unsharded run
//!    would compute;
//! 2. the partial carries every record field — including the pooled
//!    [`NetStats`] counters the compact report JSON omits — as exact
//!    integers, so parsing a partial reconstructs the in-memory records
//!    losslessly;
//! 3. the partial embeds the full matrix specification, so the merge can
//!    re-enumerate the matrix, restore matrix order, and re-run the same
//!    deterministic aggregation the unsharded path uses.
//!
//! The partial format is versioned ([`PARTIAL_SCHEMA`]); `lab merge` and
//! `lab diff` refuse artifacts from a different schema generation instead
//! of producing silently wrong output.
//!
//! ## Adaptive sweeps: the two-phase "measure then commit" protocol
//!
//! For an adaptive matrix the realized seed count of a group is decided by
//! the data, so shards partition the matrix at the *work-unit* level
//! (classification cells and whole run groups) and the merge must prove
//! that every shard stopped each of its groups exactly where the rule
//! says. The partial is the **measure** phase: it carries the shard's
//! records plus its claimed per-group stopping decisions (`sampling`).
//! [`merge`] is the **commit** phase: it replays the stopping rule over
//! each group's records ([`crate::sampling::expected_consumed`]) and
//! refuses the merge when any shard's claim — or record count — disagrees
//! with the rule. Only decisions every participant re-derives identically
//! enter the merged report, which is what keeps sharded adaptive runs
//! byte-identical to unsharded ones.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use validity_simnet::NetStats;

use crate::json::Json;
use crate::matrix::{
    ClassifyCell, FitAxis, FitBand, FitMeasure, ProtocolAxis, SamplingSpec, ScenarioMatrix,
    ScheduleSpec, ShardSpec, ValiditySpec, WorkUnit,
};
use crate::report::{json_str, SweepReport};
use crate::runner::{CellRecord, ClassifyRecord, Outcome, RunRecord};
use crate::sampling::{evaluate, expected_consumed, GroupSampling};

/// Schema tag of partial (sharded) report files.
pub const PARTIAL_SCHEMA: &str = "validity-lab/partial@2";

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
    /// Measure-phase claims of an adaptive shard: the stopping decision
    /// for every run group this shard owns, in unit order. Empty for
    /// fixed-seed sweeps.
    pub sampling: Vec<GroupSampling>,
}

impl PartialReport {
    /// Builds a partial from a shard's executed records, deriving the
    /// measure-phase sampling claims from the records themselves (for an
    /// adaptive matrix) so the artifact and the stopping rule cannot
    /// disagree at the source.
    pub fn new(
        matrix: ScenarioMatrix,
        shard: ShardSpec,
        wall_seconds: f64,
        records: Vec<CellRecord>,
    ) -> PartialReport {
        let sampling = match matrix.sampling {
            None => Vec::new(),
            Some(spec) => crate::sampling::group_slices(&records)
                .into_iter()
                .map(|(key, slice)| evaluate(key, slice, &spec, &matrix.fit_measures))
                .collect(),
        };
        PartialReport {
            matrix,
            shard,
            wall_seconds,
            records,
            sampling,
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
        out.push_str(",\n  \"sampling\": [");
        for (i, claim) in self.sampling.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&claim.to_json());
        }
        out.push_str("],\n  \"records\": [\n");
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
    /// (including full reports) with a descriptive error.
    pub fn parse(text: &str) -> Result<PartialReport, String> {
        let v = Json::parse(text)?;
        match v.get("schema").and_then(Json::as_str) {
            Some(PARTIAL_SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "not a partial report: schema '{other}' (expected '{PARTIAL_SCHEMA}')"
                ))
            }
            None => return Err("not a partial report: no schema field".into()),
        }
        let shard = v.get("shard").ok_or("partial missing 'shard'")?;
        let shard = ShardSpec {
            index: field_usize(shard, "index")?,
            count: field_usize(shard, "count")?,
        };
        if shard.index == 0 || shard.index > shard.count {
            return Err(format!("shard {shard} out of range"));
        }
        let wall_seconds = v
            .get("wall_seconds")
            .and_then(Json::as_num)
            .ok_or("partial missing 'wall_seconds'")?;
        let matrix = matrix_from_json(v.get("matrix").ok_or("partial missing 'matrix'")?)?;
        let sampling = v
            .get("sampling")
            .and_then(Json::as_arr)
            .ok_or("partial missing 'sampling'")?
            .iter()
            .map(claim_from_json)
            .collect::<Result<Vec<GroupSampling>, String>>()?;
        let records = v
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("partial missing 'records'")?
            .iter()
            .map(record_from_json)
            .collect::<Result<Vec<CellRecord>, String>>()?;
        Ok(PartialReport {
            matrix,
            shard,
            wall_seconds,
            records,
            sampling,
        })
    }
}

/// Merges all `m` partials of one sweep back into the full deterministic
/// report (byte-identical to an unsharded run of the same matrix).
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
             missing shard index(es) {} (re-run `lab run --shard {}/{count}` \
             for each and merge again)",
            partials.len(),
            missing.join(", "),
            missing[0],
        ));
    }
    if first.matrix.sampling.is_some() {
        let report = merge_adaptive(partials, &first.matrix)?;
        return Ok((report, first.matrix.clone()));
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

/// The commit phase of an adaptive merge: validates every shard's records
/// against its work-unit assignment, replays each group's stopping rule
/// over the shard's own records, cross-checks the shard's measure-phase
/// claims, and reassembles the records in unit order — exactly the list
/// the unsharded adaptive run produces.
fn merge_adaptive(
    partials: &[PartialReport],
    matrix: &ScenarioMatrix,
) -> Result<SweepReport, String> {
    let spec = matrix.sampling.expect("adaptive merge without a spec");
    let units = matrix.work_units();
    let count = partials.first().expect("validated non-empty").shard.count;
    // Per-unit record slots, filled by whichever shard owns the unit.
    let mut unit_records: Vec<Option<Vec<CellRecord>>> = vec![None; units.len()];
    for p in partials {
        let mut cursor = 0usize;
        for (unit_index, unit) in units.iter().enumerate() {
            if !p.shard.owns(unit_index) {
                continue;
            }
            match unit {
                WorkUnit::Classify(c) => {
                    let rec = p.records.get(cursor).ok_or_else(|| {
                        format!(
                            "shard {}: missing record for classification '{}'",
                            p.shard,
                            c.key()
                        )
                    })?;
                    if rec.key != c.key() {
                        return Err(format!(
                            "shard {}: expected classification '{}', found '{}'",
                            p.shard,
                            c.key(),
                            rec.key
                        ));
                    }
                    unit_records[unit_index] = Some(vec![rec.clone()]);
                    cursor += 1;
                }
                WorkUnit::Group(template) => {
                    let group_key = template.group_key();
                    let start = cursor;
                    while cursor < p.records.len() && p.records[cursor].group == group_key {
                        cursor += 1;
                    }
                    let slice = &p.records[start..cursor];
                    if slice.is_empty() {
                        return Err(format!(
                            "shard {}: no records for group '{group_key}'",
                            p.shard
                        ));
                    }
                    // Seed ladder integrity: consecutive seeds from the
                    // matrix's first seed.
                    for (i, rec) in slice.iter().enumerate() {
                        let expected_key = template.with_seed(matrix.seeds.start + i as u64).key();
                        if rec.key != expected_key {
                            return Err(format!(
                                "shard {}: group '{group_key}' record {i} is '{}', \
                                 expected '{expected_key}'",
                                p.shard, rec.key
                            ));
                        }
                    }
                    // Commit: replay the stopping rule; the shard must
                    // have stopped exactly where the rule does.
                    let committed = expected_consumed(slice, &spec, &matrix.fit_measures);
                    if committed != slice.len() as u64 {
                        return Err(format!(
                            "shard {}: adaptive stopping for group '{group_key}' \
                             disagrees with the committed rule (shard ran {} \
                             seed(s), rule commits {committed})",
                            p.shard,
                            slice.len(),
                        ));
                    }
                    // And the shard's measure-phase claim must match the
                    // re-derived decision (compared through the canonical
                    // rendering, so float formatting cannot drift).
                    let derived = evaluate(&group_key, slice, &spec, &matrix.fit_measures);
                    let claim =
                        p.sampling
                            .iter()
                            .find(|s| s.key == group_key)
                            .ok_or_else(|| {
                                format!(
                                    "shard {}: no sampling claim for group '{group_key}'",
                                    p.shard
                                )
                            })?;
                    if claim.to_json() != derived.to_json() {
                        return Err(format!(
                            "shard {}: sampling claim for group '{group_key}' does \
                             not match the records ({} vs {})",
                            p.shard,
                            claim.to_json(),
                            derived.to_json()
                        ));
                    }
                    unit_records[unit_index] = Some(slice.to_vec());
                }
            }
        }
        if cursor != p.records.len() {
            return Err(format!(
                "shard {}: {} record(s) beyond its work-unit assignment",
                p.shard,
                p.records.len() - cursor
            ));
        }
    }
    let mut ordered: Vec<CellRecord> = Vec::new();
    for (unit_index, slot) in unit_records.into_iter().enumerate() {
        let records = slot.ok_or_else(|| {
            format!(
                "work unit '{}' covered by no shard (a {count}-way partition \
                 must cover every unit)",
                units[unit_index].key()
            )
        })?;
        ordered.extend(records);
    }
    Ok(SweepReport::aggregate_matrix(matrix, &ordered))
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
    let _ = write!(out, "], \"fit_axis\": {}", json_str(m.fit_axis.name()));
    match m.sampling {
        Some(s) => {
            let _ = write!(
                out,
                ", \"sampling\": {{\"precision\": {}, \"batch\": {}, \"max_seeds\": {}}}",
                s.precision, s.batch, s.max_seeds
            );
        }
        None => out.push_str(", \"sampling\": null"),
    }
    match m.max_steps {
        Some(n) => {
            let _ = write!(out, ", \"max_steps\": {n}}}");
        }
        None => out.push_str(", \"max_steps\": null}"),
    }
}

fn matrix_from_json(v: &Json) -> Result<ScenarioMatrix, String> {
    let mut m = ScenarioMatrix::new(
        v.get("name")
            .and_then(Json::as_str)
            .ok_or("matrix missing 'name'")?,
    );
    m.protocols = parse_names(v, "protocols", |s| {
        ProtocolAxis::parse(s).ok_or_else(|| format!("unknown protocol '{s}'"))
    })?;
    m.validities = parse_names(v, "validities", |s| {
        ValiditySpec::parse(s).ok_or_else(|| format!("unknown validity '{s}'"))
    })?;
    m.behaviors = parse_names(v, "behaviors", validity_adversary::BehaviorId::parse_or_err)?;
    m.faults = parse_names(v, "faults", |s| match s {
        "max" => Ok(usize::MAX),
        s => s.parse().map_err(|_| format!("bad fault load '{s}'")),
    })?;
    m.schedules = parse_names(v, "schedules", ScheduleSpec::parse_or_err)?;
    m.systems = arr_of(v, "systems")?
        .iter()
        .map(|pair| {
            let p = pair.as_arr().filter(|a| a.len() == 2);
            let p = p.ok_or("bad (n, t) pair in matrix spec")?;
            Ok((
                p[0].as_u64().ok_or("bad n")? as usize,
                p[1].as_u64().ok_or("bad t")? as usize,
            ))
        })
        .collect::<Result<_, String>>()?;
    let seeds = arr_of(v, "seeds")?;
    if seeds.len() != 2 {
        return Err("matrix 'seeds' wants [start, end]".into());
    }
    m.seeds =
        seeds[0].as_u64().ok_or("bad seed start")?..seeds[1].as_u64().ok_or("bad seed end")?;
    m.classifications = arr_of(v, "classifications")?
        .iter()
        .map(|c| {
            Ok(ClassifyCell {
                validity: c
                    .get("validity")
                    .and_then(Json::as_str)
                    .and_then(ValiditySpec::parse)
                    .ok_or("bad classification validity")?,
                n: field_usize(c, "n")?,
                t: field_usize(c, "t")?,
                domain: c.get("domain").and_then(Json::as_u64).ok_or("bad domain")?,
            })
        })
        .collect::<Result<_, String>>()?;
    m.fit_measures = parse_names(v, "fit_measures", |s| {
        FitMeasure::parse(s).ok_or_else(|| format!("unknown fit measure '{s}'"))
    })?;
    m.fit_bands = arr_of(v, "fit_bands")?
        .iter()
        .map(|b| {
            Ok(FitBand {
                measure: b
                    .get("measure")
                    .and_then(Json::as_str)
                    .and_then(FitMeasure::parse)
                    .ok_or("bad band measure")?,
                lo: b.get("lo").and_then(Json::as_num).ok_or("bad band lo")?,
                hi: b.get("hi").and_then(Json::as_num).ok_or("bad band hi")?,
                filter: b
                    .get("filter")
                    .and_then(Json::as_str)
                    .ok_or("bad band filter")?
                    .to_string(),
            })
        })
        .collect::<Result<_, String>>()?;
    m.fit_axis = v
        .get("fit_axis")
        .and_then(Json::as_str)
        .and_then(FitAxis::parse)
        .ok_or("bad 'fit_axis'")?;
    m.sampling = match v.get("sampling") {
        None | Some(Json::Null) => None,
        Some(s) => Some(SamplingSpec {
            precision: s
                .get("precision")
                .and_then(Json::as_num)
                .ok_or("bad sampling precision")?,
            batch: field_u64(s, "batch")?,
            max_seeds: field_u64(s, "max_seeds")?,
        }),
    };
    m.max_steps = match v.get("max_steps") {
        None | Some(Json::Null) => None,
        Some(n) => Some(n.as_u64().ok_or("bad max_steps")?),
    };
    Ok(m)
}

fn claim_from_json(v: &Json) -> Result<GroupSampling, String> {
    Ok(GroupSampling {
        key: field_str(v, "key")?.to_string(),
        consumed: field_u64(v, "consumed")?,
        batches: field_u64(v, "batches")?,
        stable: field_bool(v, "stable")?,
        achieved: match v.get("achieved") {
            None | Some(Json::Null) => None,
            Some(a) => Some(a.as_num().ok_or("bad 'achieved'")?),
        },
    })
}

fn sep(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ", "
    }
}

fn arr_of<'a>(v: &'a Json, field: &str) -> Result<&'a [Json], String> {
    v.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("matrix spec missing '{field}'"))
}

fn parse_names<'a, T>(
    v: &'a Json,
    field: &str,
    parse: impl Fn(&'a str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    arr_of(v, field)?
        .iter()
        .map(|j| {
            parse(
                j.as_str()
                    .ok_or_else(|| format!("non-string in '{field}'"))?,
            )
        })
        .collect()
}

fn field_usize(v: &Json, field: &str) -> Result<usize, String> {
    v.get(field)
        .and_then(Json::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| format!("missing or bad '{field}'"))
}

fn field_u64(v: &Json, field: &str) -> Result<u64, String> {
    v.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or bad '{field}'"))
}

fn field_bool(v: &Json, field: &str) -> Result<bool, String> {
    v.get(field)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing or bad '{field}'"))
}

fn field_str<'a>(v: &'a Json, field: &str) -> Result<&'a str, String> {
    v.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or bad '{field}'"))
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

fn record_from_json(v: &Json) -> Result<CellRecord, String> {
    let key = field_str(v, "key")?.to_string();
    let group = field_str(v, "group")?.to_string();
    let outcome = match field_str(v, "type")? {
        "run" => Outcome::Run(RunRecord {
            // Not serialized: timing-only, irrelevant to merged artifacts.
            events: 0,
            decided: field_bool(v, "decided")?,
            agreement: field_bool(v, "agreement")?,
            validity_ok: match v.get("validity_ok") {
                None | Some(Json::Null) => None,
                Some(b) => Some(b.as_bool().ok_or("bad 'validity_ok'")?),
            },
            messages_after_gst: field_u64(v, "messages_after_gst")?,
            words_after_gst: field_u64(v, "words_after_gst")?,
            messages_total: field_u64(v, "messages_total")?,
            words_total: field_u64(v, "words_total")?,
            latency: field_u64(v, "latency")?,
            decision: field_str(v, "decision")?.to_string(),
            quarantined: field_bool(v, "quarantined")?,
            stats: stats_from_json(v.get("stats").ok_or("record missing 'stats'")?)?,
        }),
        "classify" => Outcome::Classify(ClassifyRecord {
            verdict: field_str(v, "verdict")?.to_string(),
            certificate: field_str(v, "certificate")?.to_string(),
            high_resilience: field_bool(v, "high_resilience")?,
            theorem1_consistent: field_bool(v, "theorem1_consistent")?,
            cost: field_u64(v, "cost")?,
        }),
        other => return Err(format!("unknown record type '{other}'")),
    };
    Ok(CellRecord {
        key,
        group,
        outcome,
    })
}

fn stats_from_json(v: &Json) -> Result<NetStats, String> {
    let counts = |field: &str| -> Result<Vec<u64>, String> {
        arr_of(v, field)?
            .iter()
            .map(|c| c.as_u64().ok_or_else(|| format!("bad count in '{field}'")))
            .collect()
    };
    let opt_time = |field: &str| -> Result<Option<u64>, String> {
        match v.get(field) {
            None | Some(Json::Null) => Ok(None),
            Some(t) => Ok(Some(t.as_u64().ok_or_else(|| format!("bad '{field}'"))?)),
        }
    };
    Ok(NetStats {
        messages_after_gst: field_u64(v, "messages_after_gst")?,
        words_after_gst: field_u64(v, "words_after_gst")?,
        messages_total: field_u64(v, "messages_total")?,
        words_total: field_u64(v, "words_total")?,
        byzantine_messages: field_u64(v, "byzantine_messages")?,
        sent_by: counts("sent_by")?,
        received_by: counts("received_by")?,
        deliveries: field_u64(v, "deliveries")?,
        timer_fires: field_u64(v, "timer_fires")?,
        // Absent in records from clean schedules (and all pre-chaos ones).
        dropped: v.get("dropped").and_then(Json::as_u64).unwrap_or(0),
        duplicated: v.get("duplicated").and_then(Json::as_u64).unwrap_or(0),
        // Absent unless an adaptive behaviour self-reported.
        equivocations: v.get("equivocations").and_then(Json::as_u64).unwrap_or(0),
        omissions: v.get("omissions").and_then(Json::as_u64).unwrap_or(0),
        first_decision_at: opt_time("first_decision_at")?,
        last_decision_at: opt_time("last_decision_at")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SweepEngine;
    use crate::suites;

    fn quick_partials(count: usize) -> (ScenarioMatrix, Vec<PartialReport>) {
        let m = suites::build("quick").expect("built-in suite");
        let engine = SweepEngine::new(2);
        let partials = (1..=count)
            .map(|index| {
                let shard = ShardSpec { index, count };
                let run = engine.execute_shard(&m, shard);
                PartialReport::new(m.clone(), shard, run.wall.as_secs_f64(), run.records)
            })
            .collect();
        (m, partials)
    }

    #[test]
    fn matrix_spec_round_trips_through_json() {
        for name in suites::ALL {
            let m = suites::build(name).expect(name);
            let mut text = String::new();
            matrix_json(&mut text, &m);
            let back = matrix_from_json(&Json::parse(&text).expect(name)).expect(name);
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
