//! The artifact readers refuse malformed input by name. For each artifact
//! the lab reads back — a `report@2` full report, a `partial@2` shard and
//! a `crosscheck@1` report — a truncated file is
//! an error (never a panic, never a partial read), deleting any one field
//! the reader needs is an error naming that field, and repeating a key is
//! an error naming the key.

use std::sync::OnceLock;

use proptest::prelude::*;
use validity_lab::json::{Fields, Json};
use validity_lab::report::{json_str, REPORT_SCHEMA};
use validity_lab::{
    compare_emitted, run_crosscheck, suites, CrosscheckMatrix, FitMeasure, PartialReport,
    ShardSpec, SweepEngine,
};

/// One artifact and its reader: the rendered text, the Markdown a
/// crosscheck report is read against, and which member paths (array
/// indices written `[]`) the reader must refuse to go without.
struct Artifact {
    text: String,
    read: fn(&Artifact, &str) -> Result<(), String>,
    md: String,
    required: fn(&str) -> bool,
}

/// The `quick` suite with a fitted measure, so the report carries fit
/// rows.
fn sweep() -> validity_lab::ScenarioMatrix {
    let mut m = suites::build("quick").expect("built-in suite");
    m.fit_measures = vec![FitMeasure::Messages];
    m
}

/// What `lab diff` reads of a full report.
fn read_report(_: &Artifact, text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let report = Fields::tagged(&doc, REPORT_SCHEMA, "lab report")?;
    for cell in report.objs("cells")? {
        cell.get::<&str>("key")?;
    }
    Ok(())
}

fn report() -> &'static Artifact {
    static A: OnceLock<Artifact> = OnceLock::new();
    A.get_or_init(|| Artifact {
        text: SweepEngine::new(2).run(&sweep()).0.to_json(),
        read: read_report,
        md: String::new(),
        required: |path| ["schema", "cells", "cells[].key"].contains(&path),
    })
}

fn partial() -> &'static Artifact {
    static A: OnceLock<Artifact> = OnceLock::new();
    A.get_or_init(|| {
        let m = sweep();
        let shard = ShardSpec { index: 1, count: 2 };
        let owned = SweepEngine::new(2)
            .run(&m)
            .0
            .cells
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| shard.owns(i))
            .map(|(_, r)| r)
            .collect();
        Artifact {
            text: PartialReport::new(m, shard, 0.5, owned).to_json(),
            read: |_, text| PartialReport::parse(text).map(drop),
            md: String::new(),
            // Every field but the zero counters a writer may omit and the
            // constant `sampling` keys no reader looks at.
            required: |path| {
                !["sampling", "matrix.sampling"].contains(&path)
                    && !["dropped", "duplicated", "equivocations", "omissions"]
                        .iter()
                        .any(|c| path == format!("records[].stats.{c}"))
            },
        }
    })
}

fn crosscheck() -> &'static Artifact {
    static A: OnceLock<Artifact> = OnceLock::new();
    A.get_or_init(|| {
        let mut m = CrosscheckMatrix::suite();
        m.scenarios.systems = vec![(4, 1)];
        let report = run_crosscheck(&m, 2);
        Artifact {
            text: report.to_json(),
            read: |a, text| match compare_emitted(text, &a.md).as_slice() {
                [] => Ok(()),
                problems => Err(problems.join("; ")),
            },
            md: report.to_markdown(),
            required: |path| ["schema", "cells", "cells[].key", "cells[].level"].contains(&path),
        }
    })
}

fn artifacts() -> [&'static Artifact; 3] {
    [report(), partial(), crosscheck()]
}

/// An edit applied to one object member while re-rendering a document.
#[derive(Clone, Copy, PartialEq)]
enum Edit {
    None,
    Drop(usize),
    Repeat(usize),
}

/// Renders `v` as JSON with `edit` applied, listing every object member
/// as `(normalized path, key)` in rendering order.
fn render(v: &Json, path: &str, edit: Edit, members: &mut Vec<(String, String)>, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(&b.to_string()),
        Json::Num(n) => out.push_str(&n.to_string()),
        Json::Str(s) => out.push_str(&json_str(s)),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, &format!("{path}[]"), edit, members, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            let mut first = true;
            for (key, value) in map {
                let at = members.len();
                let member_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                members.push((member_path.clone(), key.clone()));
                let times = match edit {
                    Edit::Drop(i) if i == at => 0,
                    Edit::Repeat(i) if i == at => 2,
                    _ => 1,
                };
                for _ in 0..times {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&json_str(key));
                    out.push(':');
                    render(value, &member_path, edit, members, out);
                }
                if times == 0 {
                    // Still walk the value, so later ordinals stay stable.
                    render(value, &member_path, edit, members, &mut String::new());
                }
            }
            out.push('}');
        }
    }
}

/// The artifact re-rendered with `edit`, and every member it holds.
fn edited(a: &Artifact, edit: Edit) -> (String, Vec<(String, String)>) {
    let doc = Json::parse(&a.text).expect("the lab reads its own artifact");
    let (mut members, mut out) = (Vec::new(), String::new());
    render(&doc, "", edit, &mut members, &mut out);
    (out, members)
}

/// Deletes member `target` and checks the reader refuses the file by
/// naming it (the schema tag's absence reads "declares no schema").
fn deleting_is_refused_by_name(a: &Artifact, members: &[(String, String)], target: usize) {
    let (path, key) = &members[target];
    let (text, _) = edited(a, Edit::Drop(target));
    let err = (a.read)(a, &text).expect_err(path);
    let named = if key == "schema" {
        "schema".to_string()
    } else {
        format!("'{key}'")
    };
    assert!(err.contains(&named), "deleting {path}: {err}");
}

/// Repeats member `target` and checks the parser refuses it by name.
fn repeating_is_refused_by_name(a: &Artifact, members: &[(String, String)], target: usize) {
    let (path, key) = &members[target];
    let (text, _) = edited(a, Edit::Repeat(target));
    let err = (a.read)(a, &text).expect_err(path);
    let named = format!("duplicate key '{key}'");
    assert!(err.contains(&named), "repeating {path}: {err}");
}

/// The first occurrence of every distinct member path.
fn first_of_each_path(members: &[(String, String)]) -> Vec<usize> {
    let mut seen = std::collections::BTreeSet::new();
    (0..members.len())
        .filter(|&i| seen.insert(&members[i].0))
        .collect()
}

#[test]
fn every_artifact_reads_back_whole_and_re_rendered() {
    for a in artifacts() {
        (a.read)(a, &a.text).expect("the lab reads its own artifact");
        let (text, members) = edited(a, Edit::None);
        (a.read)(a, &text).expect("re-rendering keeps the document");
        assert!(members.len() > 20, "too small to exercise the reader");
    }
}

#[test]
fn deleting_any_required_field_names_it() {
    for a in artifacts() {
        let (_, members) = edited(a, Edit::None);
        for target in first_of_each_path(&members) {
            if (a.required)(&members[target].0) {
                deleting_is_refused_by_name(a, &members, target);
            }
        }
    }
}

#[test]
fn repeating_any_key_is_refused_by_name() {
    for a in artifacts() {
        let (_, members) = edited(a, Edit::None);
        for target in first_of_each_path(&members) {
            repeating_is_refused_by_name(a, &members, target);
        }
    }
}

/// `lab diff` refuses anything but a same-generation full report with a
/// named error instead of a spurious cell-by-cell diff (or a panic): a
/// partial report by its `partial@2` tag, a future schema, an untagged
/// document, and a tagged one with missing, mistyped, repeated or
/// colliding fields — on either side of the diff.
#[test]
fn diff_rejects_partial_reports_with_clear_error() {
    let dir = std::env::temp_dir().join(format!("lab-readers-{}-partial", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp workdir");
    let lab = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_lab"))
            .args(args)
            .output()
            .expect("spawn lab")
    };
    let part = dir.join("part.json").display().to_string();
    let full = dir.join("full.json").display().to_string();
    std::fs::write(&part, &partial().text).unwrap();
    std::fs::write(&full, &report().text).unwrap();
    for pair in [[&part, &full], [&full, &part]] {
        let out = lab(&["diff", pair[0], pair[1]]);
        assert_eq!(out.status.code(), Some(1), "diff accepted a partial report");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("schema 'validity-lab/partial@2'"),
            "unhelpful error: {err}"
        );
    }
    // A fabricated future schema is a clear mismatch error, too.
    let future = dir.join("future.json").display().to_string();
    std::fs::write(
        &future,
        "{\"schema\": \"validity-lab/report@9\", \"cells\": []}\n",
    )
    .unwrap();
    let out = lab(&["diff", &future, &full]);
    assert!(!out.status.success(), "diff accepted an unknown schema");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("schema"), "unhelpful error: {err}");
    // A schema-less document that is not report-shaped (e.g. a legacy
    // bench artifact) must error, not zero-diff as an empty report.
    let stray = dir.join("stray.json").display().to_string();
    std::fs::write(&stray, "{\"suites\": []}\n").unwrap();
    let out = lab(&["diff", &stray, &full]);
    assert!(!out.status.success(), "diff accepted a non-report document");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("does not look like a lab report"),
        "unhelpful error: {err}"
    );
    // Tagged as a report but not one: each is a named error on either
    // side of the diff, never "identical: 0 cells match".
    let tag = "\"schema\": \"validity-lab/report@2\"";
    let malformed = dir.join("malformed.json").display().to_string();
    for (text, complaint) in [
        (format!("{{{tag}}}"), "report@2: missing 'cells'"),
        (
            format!("{{{tag}, \"cells\": [{{\"key\": \"a\"}}, {{\"type\": \"run\"}}]}}"),
            "report@2 cells[1]: missing 'key'",
        ),
        (
            format!("{{{tag}, \"cells\": [{{\"key\": 7}}]}}"),
            "report@2 cells[0]: bad 'key' (want string)",
        ),
        // A repeated key would otherwise keep only its last value and
        // could compare "identical" to a report it differs from.
        (
            format!(
                "{{{tag}, \"cells\": [{{\"key\": \"a\", \"decided\": false, \"decided\": true}}]}}"
            ),
            "duplicate key 'decided' at byte 77",
        ),
        (
            format!("{{{tag}, \"cells\": [{{\"key\": \"a\"}}, {{\"key\": \"a\"}}]}}"),
            "two cells share the key 'a'",
        ),
        (
            format!("{{{tag}, \"cells\": [], \"x\": 1e999999}}"),
            "number out of range at byte 54",
        ),
    ] {
        std::fs::write(&malformed, &text).unwrap();
        for pair in [
            [&malformed, &full],
            [&full, &malformed],
            [&malformed, &malformed],
        ] {
            let out = lab(&["diff", pair[0], pair[1]]);
            assert_eq!(out.status.code(), Some(1), "{text}: {out:?}");
            assert!(out.stdout.is_empty(), "{text}: {out:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(complaint), "{text}: unhelpful error: {err}");
        }
    }
}

/// `lab diff` names both schema tags when two *full* reports come from
/// different generations.
#[test]
fn diff_names_both_tags_on_full_report_schema_mismatch() {
    let dir = std::env::temp_dir().join(format!("lab-readers-{}-diff", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp workdir");
    let a = dir.join("a.json").display().to_string();
    let b = dir.join("b.json").display().to_string();
    std::fs::write(
        &a,
        "{\"schema\": \"validity-lab/report@1\", \"cells\": []}\n",
    )
    .unwrap();
    std::fs::write(
        &b,
        "{\"schema\": \"validity-lab/report@2\", \"cells\": []}\n",
    )
    .unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lab"))
        .args(["diff", &a, &b])
        .output()
        .expect("spawn lab");
    assert!(!out.status.success(), "diff accepted mismatched schemas");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("schema-version mismatch")
            && err.contains("report@1")
            && err.contains("report@2"),
        "unhelpful error: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A file cut anywhere before its last byte is refused, not read.
    #[test]
    fn every_prefix_is_refused(pick in any::<u64>(), which in 0usize..3) {
        let a = artifacts()[which];
        let end = a.text.trim_end().len();
        let mut cut = (pick % end as u64) as usize;
        while !a.text.is_char_boundary(cut) {
            cut -= 1;
        }
        let err = (a.read)(a, &a.text[..cut]);
        prop_assert!(err.is_err(), "a {cut}-byte prefix read as whole");
    }

    /// Deleting any occurrence of a field the reader needs — in any
    /// record, cell or row, not only the first — names it.
    #[test]
    fn deleting_any_occurrence_names_it(pick in any::<u64>(), which in 0usize..3) {
        let a = artifacts()[which];
        let (_, members) = edited(a, Edit::None);
        let required: Vec<usize> =
            (0..members.len()).filter(|&i| (a.required)(&members[i].0)).collect();
        deleting_is_refused_by_name(a, &members, required[(pick % required.len() as u64) as usize]);
    }

    /// Repeating any occurrence of any key is refused, naming the key.
    #[test]
    fn repeating_any_occurrence_names_it(pick in any::<u64>(), which in 0usize..3) {
        let a = artifacts()[which];
        let (_, members) = edited(a, Edit::None);
        repeating_is_refused_by_name(a, &members, (pick % members.len() as u64) as usize);
    }
}
