//! README's paper-claims table checks itself: every test it cites in the
//! *Test* column of § "Reproducing the paper's tables" exists, and every
//! suite it names in the *Suite* column is a built-in suite, so renaming
//! or deleting a cited test or suite fails here instead of leaving a dead
//! pointer.
//!
//! A citation is `file.rs` or `file.rs::fn`. `theorems.rs` lives under
//! `tests/`, every other file under `crates/lab/tests/`; a cited `fn` must
//! be defined in that file. A *Suite* cell is backticked suite names or
//! `—`.

use std::path::{Path, PathBuf};

const SECTION: &str = "## Reproducing the paper's tables";

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The claims table's body rows, without the header and `|---|` rule.
fn table_rows(readme: &str) -> Vec<&str> {
    let section = readme
        .split_once(SECTION)
        .unwrap_or_else(|| panic!("README has no `{SECTION}` section"))
        .1;
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter(|line| line.starts_with('|'))
        .skip(2)
        .collect()
}

/// The backticked names in one table cell.
fn backticked(cell: &str) -> Vec<String> {
    cell.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The backticked citations of each table row's last column, one list per
/// row.
fn cited_tests(readme: &str) -> Vec<Vec<String>> {
    table_rows(readme)
        .into_iter()
        .map(|row| backticked(row.trim_end_matches('|').rsplit('|').next().unwrap_or("")))
        .collect()
}

/// Each table row's *Suite* cell (the second column), trimmed.
fn suite_cells(readme: &str) -> Vec<&str> {
    table_rows(readme)
        .into_iter()
        .map(|row| row.split('|').nth(2).unwrap_or("").trim())
        .collect()
}

fn test_file(root: &Path, file: &str) -> PathBuf {
    match file {
        "theorems.rs" => root.join("tests").join(file),
        _ => root.join("crates/lab/tests").join(file),
    }
}

#[test]
fn every_test_the_paper_claims_table_cites_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let rows = cited_tests(&read(&root.join("README.md")));
    assert!(
        rows.len() >= 13,
        "the claims table shrank to {} rows",
        rows.len()
    );
    let mut functions = 0;
    for citations in &rows {
        assert!(!citations.is_empty(), "a claims-table row cites no test");
        for citation in citations {
            let (file, function) = match citation.split_once("::") {
                Some((file, function)) => (file, Some(function)),
                None => (citation.as_str(), None),
            };
            assert!(
                file.ends_with(".rs"),
                "`{citation}` does not cite a test file"
            );
            let path = test_file(root, file);
            assert!(
                path.is_file(),
                "`{citation}`: {} does not exist",
                path.display()
            );
            if let Some(function) = function {
                let source = read(&path);
                assert!(
                    source.contains(&format!("fn {function}(")),
                    "`{citation}`: {} defines no `fn {function}`",
                    path.display()
                );
                functions += 1;
            }
        }
    }
    assert!(functions > 0, "the claims table cites no test function");
}

#[test]
fn every_suite_the_paper_claims_table_names_is_built_in() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = read(&root.join("README.md"));
    let mut named = 0;
    for cell in suite_cells(&readme) {
        if cell == "—" {
            continue;
        }
        let suites = backticked(cell);
        assert!(!suites.is_empty(), "Suite cell `{cell}` names no suite");
        for suite in suites {
            assert!(
                validity_lab::suites::ALL.contains(&suite.as_str()),
                "`{suite}` is not a built-in suite (`lab list --names`)"
            );
            named += 1;
        }
    }
    assert!(named > 0, "the claims table names no suite");
}
