//! Record fingerprints: the benchmark's correctness check.
//!
//! Every pass renders its records in the harness's own canonical text form
//! and hashes it. The form covers *records*, not report bytes, so simulated
//! behaviour is pinned while the report formats may still evolve.
//! `fingerprints.json` holds the digests recorded from the unmodified seed
//! code at seed 0; for any other seed the semantic checks and the
//! pass-to-pass and worker-count identities still apply.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use validity_crypto::{sha256, Sha256};
use validity_lab::json::Json;
use validity_lab::{CellRecord, Outcome, ServiceRecord};

/// Schema tag of `fingerprints.json`.
pub const FINGERPRINT_SCHEMA: &str = "validity-benchmark/fingerprints@1";

/// The seed the committed fingerprints were recorded at.
pub const FINGERPRINT_SEED: u64 = 0;

/// One record in canonical form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellLine {
    /// The cell's key.
    pub key: String,
    /// The canonical rendering (starts with the key).
    pub text: String,
    /// Whether the record fails the semantic checks on its own.
    pub failed: bool,
    /// Whether the run hit a step/time backstop.
    pub quarantined: bool,
    /// Simulator events (run cells; 0 elsewhere).
    pub events: u64,
    /// Admissibility evaluations (classification cells; 0 elsewhere).
    pub evals: u64,
}

/// Canonical form of a sweep record.
pub fn sweep_line(record: &CellRecord) -> CellLine {
    let mut text = record.key.clone();
    match &record.outcome {
        Outcome::Run(r) => {
            let _ = write!(
                text,
                " decided={} agreement={} validity_ok={:?} messages={}/{} words={}/{} \
                 latency={} decision={} quarantined={} events={}",
                r.decided,
                r.agreement,
                r.validity_ok,
                r.messages_total,
                r.messages_after_gst,
                r.words_total,
                r.words_after_gst,
                r.latency,
                r.decision,
                r.quarantined,
                r.events,
            );
            CellLine {
                key: record.key.clone(),
                text,
                failed: !r.decided || !r.agreement || r.validity_ok == Some(false) || r.quarantined,
                quarantined: r.quarantined,
                events: r.events,
                evals: 0,
            }
        }
        Outcome::Classify(c) => {
            let _ = write!(
                text,
                " verdict={} certificate={} cost={}",
                c.verdict, c.certificate, c.cost
            );
            CellLine {
                key: record.key.clone(),
                text,
                failed: !c.theorem1_consistent,
                quarantined: false,
                events: 0,
                evals: c.cost,
            }
        }
    }
}

/// Canonical form of a service record; `slots` is what a healthy run
/// commits.
pub fn service_line(key: &str, r: &ServiceRecord, slots: u32) -> CellLine {
    CellLine {
        key: key.to_string(),
        text: format!(
            "{key} committed={} decided={} agreement={} duration={} messages={} words={} \
             quarantined={}",
            r.committed,
            r.decided,
            r.agreement,
            r.duration,
            r.messages_total,
            r.words_total,
            r.quarantined,
        ),
        failed: !r.decided || !r.agreement || r.quarantined || r.committed != slots,
        quarantined: r.quarantined,
        events: 0,
        evals: 0,
    }
}

/// The digest of one pass's records, plus enough to name a differing cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// SHA-256 (hex) over every line, newline-terminated, in matrix order.
    pub digest: String,
    /// Per-cell marks: the first four bytes of each line's own SHA-256.
    /// Diagnostic only — `digest` is the authority — but they turn "the
    /// digest changed" into "this cell changed".
    pub marks: Vec<u32>,
    /// Simulator events summed over the run cells.
    pub events: u64,
    /// Admissibility evaluations summed over the classification cells.
    pub evals: u64,
    /// Quarantined cells.
    pub quarantined: u64,
}

impl Fingerprint {
    /// Fingerprints one pass.
    pub fn of(lines: &[CellLine]) -> Fingerprint {
        let mut all = Sha256::new();
        let mut marks = Vec::with_capacity(lines.len());
        for line in lines {
            all.update(&line.text);
            all.update("\n");
            let d = sha256(&line.text);
            marks.push(u32::from_be_bytes([d.0[0], d.0[1], d.0[2], d.0[3]]));
        }
        Fingerprint {
            digest: all.finalize().to_hex(),
            marks,
            events: lines.iter().map(|l| l.events).sum(),
            evals: lines.iter().map(|l| l.evals).sum(),
            quarantined: lines.iter().filter(|l| l.quarantined).count() as u64,
        }
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.marks.len()
    }

    /// Checks a pass against this (expected) fingerprint. The error names
    /// the first cell whose record differs, with its rendering.
    pub fn check(&self, what: &str, lines: &[CellLine]) -> Result<(), String> {
        let got = Fingerprint::of(lines);
        if got.digest == self.digest {
            return Ok(());
        }
        if got.cells() != self.cells() {
            return Err(format!(
                "{what}: {} cells, expected {}",
                got.cells(),
                self.cells()
            ));
        }
        match got.marks.iter().zip(&self.marks).position(|(a, b)| a != b) {
            Some(i) => Err(format!(
                "{what}: record of cell {} differs from the expected one; got: {}",
                lines[i].key, lines[i].text
            )),
            None => Err(format!(
                "{what}: digest {} differs from expected {} (no single cell mark differs)",
                got.digest, self.digest
            )),
        }
    }

    fn to_json(&self) -> String {
        let marks: String = self.marks.iter().map(|m| format!("{m:08x}")).collect();
        format!(
            "{{\"digest\": \"{}\", \"cells\": {}, \"events\": {}, \"evals\": {}, \
             \"quarantined\": {}, \"marks\": \"{marks}\"}}",
            self.digest,
            self.cells(),
            self.events,
            self.evals,
            self.quarantined,
        )
    }

    fn from_json(v: &Json) -> Result<Fingerprint, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("fingerprint entry lacks a whole number '{k}'"))
        };
        let text = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("fingerprint entry lacks a string '{k}'"))
        };
        let hex = text("marks")?;
        if hex.len() % 8 != 0 || !hex.is_ascii() {
            return Err("fingerprint marks are not 8 hex digits per cell".into());
        }
        let marks = (0..hex.len() / 8)
            .map(|i| u32::from_str_radix(&hex[8 * i..8 * i + 8], 16))
            .collect::<Result<Vec<u32>, _>>()
            .map_err(|e| format!("bad fingerprint mark: {e}"))?;
        if marks.len() as u64 != num("cells")? {
            return Err("fingerprint cell count and marks disagree".into());
        }
        Ok(Fingerprint {
            digest: text("digest")?.to_string(),
            marks,
            events: num("events")?,
            evals: num("evals")?,
            quarantined: num("quarantined")?,
        })
    }
}

/// `fingerprints.json`: one [`Fingerprint`] per `(size tag, workload)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FingerprintFile {
    entries: BTreeMap<String, BTreeMap<String, Fingerprint>>,
}

impl FingerprintFile {
    /// Where the committed file lives: beside the benchmark's manifest.
    pub fn default_path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fingerprints.json")
    }

    /// Parses the file's text.
    pub fn parse(text: &str) -> Result<FingerprintFile, String> {
        let json = Json::parse(text)?;
        if json.get("schema").and_then(Json::as_str) != Some(FINGERPRINT_SCHEMA) {
            return Err(format!("not a {FINGERPRINT_SCHEMA} file"));
        }
        if json.get("seed").and_then(Json::as_u64) != Some(FINGERPRINT_SEED) {
            return Err(format!("fingerprints must be at seed {FINGERPRINT_SEED}"));
        }
        let Json::Obj(top) = &json else {
            return Err("fingerprint file is not an object".into());
        };
        let mut entries = BTreeMap::new();
        for (size, section) in top {
            let Json::Obj(section) = section else {
                continue; // "schema", "seed"
            };
            let mut by_workload = BTreeMap::new();
            for (workload, entry) in section {
                let fp =
                    Fingerprint::from_json(entry).map_err(|e| format!("{size}/{workload}: {e}"))?;
                by_workload.insert(workload.clone(), fp);
            }
            entries.insert(size.clone(), by_workload);
        }
        Ok(FingerprintFile { entries })
    }

    /// Loads the file; a missing file is an empty one (nothing recorded).
    pub fn load(path: &Path) -> Result<FingerprintFile, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                FingerprintFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(FingerprintFile::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// The recorded fingerprint of `workload` at `size`, if any.
    pub fn get(&self, size: &str, workload: &str) -> Option<&Fingerprint> {
        self.entries.get(size)?.get(workload)
    }

    /// Records a fingerprint. An existing, different entry is only
    /// replaced with `force` — re-recording is how a deliberate behaviour
    /// change is accepted, so it must never happen by accident.
    pub fn record(
        &mut self,
        size: &str,
        workload: &str,
        fp: Fingerprint,
        force: bool,
    ) -> Result<(), String> {
        let section = self.entries.entry(size.to_string()).or_default();
        if let Some(old) = section.get(workload) {
            if *old != fp && !force {
                return Err(format!(
                    "{size}/{workload} already has a different fingerprint ({} → {}); \
                     pass --force to overwrite it",
                    old.digest, fp.digest
                ));
            }
        }
        section.insert(workload.to_string(), fp);
        Ok(())
    }

    /// Renders the file.
    pub fn to_json(&self) -> String {
        let mut out =
            format!("{{\n  \"schema\": \"{FINGERPRINT_SCHEMA}\",\n  \"seed\": {FINGERPRINT_SEED}");
        for (size, section) in &self.entries {
            let _ = write!(out, ",\n  \"{size}\": {{");
            for (i, (workload, fp)) in section.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\n    \"{workload}\": {}", fp.to_json());
            }
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes the file.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_lab::{suites, SweepEngine};

    fn quick_lines() -> (Vec<CellRecord>, Vec<CellLine>) {
        let matrix = suites::build("quick").expect("built-in suite");
        let (records, ..) = SweepEngine::new(1).execute_cells(&matrix.cells(), matrix.max_steps);
        let lines = records.iter().map(sweep_line).collect();
        (records, lines)
    }

    #[test]
    fn flipping_one_field_fails_the_check_and_names_the_cell() {
        let (mut records, lines) = quick_lines();
        let expected = Fingerprint::of(&lines);
        assert_eq!(expected.check("quick", &lines), Ok(()));
        assert!(lines.iter().all(|l| !l.failed));

        let victim = records
            .iter()
            .position(|r| matches!(r.outcome, Outcome::Run(_)))
            .expect("quick has run cells");
        let Outcome::Run(run) = &mut records[victim].outcome else {
            unreachable!()
        };
        run.messages_after_gst += 1;
        let flipped: Vec<CellLine> = records.iter().map(sweep_line).collect();
        let err = expected.check("quick", &flipped).unwrap_err();
        assert!(err.contains(&records[victim].key), "{err}");
        // Exactly one mark moved.
        let moved = Fingerprint::of(&flipped)
            .marks
            .iter()
            .zip(&expected.marks)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(moved, 1);
    }

    #[test]
    fn semantic_failures_are_flagged_per_record() {
        let (mut records, _) = quick_lines();
        for r in &mut records {
            match &mut r.outcome {
                Outcome::Run(run) => run.agreement = false,
                Outcome::Classify(c) => c.theorem1_consistent = false,
            }
        }
        assert!(records.iter().map(sweep_line).all(|l| l.failed));
    }

    #[test]
    fn file_roundtrips_and_refuses_silent_overwrite() {
        let (_, lines) = quick_lines();
        let fp = Fingerprint::of(&lines);
        let mut file = FingerprintFile::default();
        file.record("full", "quick", fp.clone(), false).unwrap();
        // Re-recording the same fingerprint is a no-op, not a conflict.
        file.record("full", "quick", fp.clone(), false).unwrap();
        let parsed = FingerprintFile::parse(&file.to_json()).unwrap();
        assert_eq!(parsed, file);
        assert_eq!(parsed.get("full", "quick"), Some(&fp));
        assert_eq!(parsed.get("smoke", "quick"), None);

        let mut other = fp.clone();
        other.digest = "0".repeat(64);
        let err = file
            .record("full", "quick", other.clone(), false)
            .unwrap_err();
        assert!(err.contains("--force"), "{err}");
        assert_eq!(file.get("full", "quick"), Some(&fp));
        file.record("full", "quick", other.clone(), true).unwrap();
        assert_eq!(file.get("full", "quick"), Some(&other));
    }

    #[test]
    fn malformed_files_are_refused_with_a_reason() {
        assert!(FingerprintFile::parse("{}").is_err());
        assert!(FingerprintFile::parse("not json").is_err());
        let wrong_seed = format!("{{\"schema\": \"{FINGERPRINT_SCHEMA}\", \"seed\": 3}}");
        assert!(FingerprintFile::parse(&wrong_seed)
            .unwrap_err()
            .contains("seed"));
        let bad_marks = format!(
            "{{\"schema\": \"{FINGERPRINT_SCHEMA}\", \"seed\": 0, \"full\": {{\"w\": \
             {{\"digest\": \"d\", \"cells\": 2, \"events\": 0, \"evals\": 0, \
             \"quarantined\": 0, \"marks\": \"0000000z\"}}}}}}"
        );
        assert!(FingerprintFile::parse(&bad_marks).is_err());
    }
}
