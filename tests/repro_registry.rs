//! The figure registry and the one binary over it: slugs, well-formed
//! tables with finite numbers from every entry quick enough to run here,
//! argument and I/O errors as non-zero exits, and docs whose `repro run`
//! commands still resolve.

use std::path::Path;
use std::process::{Command, Output};

use experiments::registry::{select, FIGURES};
use experiments::{Cell, Scale};

fn repro(args: &[&str], json_dir: Option<&Path>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args)
        .env_remove("PRIOPLUS_JOBS")
        .env_remove("REPRO_JSON_DIR");
    if let Some(dir) = json_dir {
        cmd.env("REPRO_JSON_DIR", dir);
    }
    cmd.output().expect("the repro binary starts")
}

#[test]
fn slugs_are_unique_and_list_prints_exactly_them() {
    let slugs: Vec<&str> = FIGURES.iter().map(|f| f.slug).collect();
    let mut unique = slugs.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), slugs.len(), "duplicate slug in {slugs:?}");

    let out = repro(&["list"], None);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).expect("slugs are ASCII");
    assert_eq!(listed.lines().collect::<Vec<_>>(), slugs);
}

#[test]
fn sub_second_entries_return_well_formed_tables() {
    // Entry -> the tables (JSON file stems) it returns.
    let expected: [(&str, &[&str]); 13] = [
        ("fig02", &["fig02"]),
        ("fig03a", &["fig03a"]),
        ("fig03b", &["fig03b"]),
        ("fig03c", &["fig03c"]),
        ("fig03d", &["fig03d"]),
        ("tab02", &["tab02", "tab02_theorem"]),
        ("fig07", &["fig07"]),
        ("fig08", &["fig08a", "fig08b"]),
        ("fig09", &["fig09_prioplus", "fig09_swift"]),
        ("appb_ecn", &["appb_ecn"]),
        ("appd_fluctuation", &["appd_fluctuation"]),
        ("fault_regimes", &["fault_regimes"]),
        ("diag_cardinality", &["diag_cardinality"]),
    ];
    for (slug, table_slugs) in expected {
        let figure = FIGURES
            .iter()
            .find(|f| f.slug == slug)
            .unwrap_or_else(|| panic!("{slug} is not registered"));
        let tables = (figure.run)(Scale::Quick, 1);
        let got: Vec<&str> = tables.iter().map(|t| t.slug.as_str()).collect();
        assert_eq!(got, table_slugs, "{slug}");
        for t in &tables {
            assert!(!t.rows.is_empty(), "{}: no rows", t.slug);
            assert!(
                t.rows.iter().all(|r| r.len() == t.columns.len()),
                "{}: ragged rows",
                t.slug
            );
            let values: Vec<f64> = t.rows.iter().flatten().filter_map(Cell::value).collect();
            assert!(!values.is_empty(), "{}: no numeric cell", t.slug);
            assert!(
                values.iter().all(|v| v.is_finite()),
                "{}: a non-finite number in {values:?}",
                t.slug
            );
        }
    }
}

#[test]
fn argument_errors_exit_non_zero_with_usage() {
    for args in [
        &["run", "nope"][..],
        &["run", "fig02", "--ful"],
        &["all", "--jobs", "x"],
    ] {
        let out = repro(args, None);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: repro") && stderr.contains("diag_cardinality"),
            "{args:?}: no usage with the slug list in {stderr:?}"
        );
    }
}

#[test]
fn json_dir_is_created_and_an_unwritable_one_is_an_error() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_registry/json");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(repro(&["run", "fig02"], Some(&dir)).status.success());
    let json = std::fs::read_to_string(dir.join("fig02.json")).expect("fig02.json written");
    assert!(json.contains("\"title\": \"Figure 2:"));

    // A directory cannot be created below a file.
    let out = repro(&["run", "fig02"], Some(&dir.join("fig02.json/sub")));
    assert!(!out.status.success());
}

/// `repro list | head -1`: the reader of stdout goes away before `repro`
/// has written everything. `repro` stops quietly instead of panicking on
/// the failed write (exit status 101 and a backtrace), for `list` and for
/// the tables of `run` alike.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    for args in [&["list"][..], &["run", "fig02"]] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        // Closed before `repro` starts, so its first write already fails.
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .env_remove("REPRO_JSON_DIR")
            .stdout(writer)
            .output()
            .expect("the repro binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn every_repro_run_in_the_docs_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut names = 0;
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        for (_, rest) in text
            .match_indices("repro run ")
            .map(|(i, m)| text.split_at(i + m.len()))
        {
            let command = rest.split(['`', '#', '|', '\n']).next().unwrap_or("");
            for name in command
                .split_whitespace()
                .take_while(|w| !w.starts_with('-'))
            {
                assert!(
                    select(name).next().is_some(),
                    "{doc}: `repro run {name}` names no registry entry"
                );
                names += 1;
            }
        }
    }
    assert!(
        names >= FIGURES.len() / 2,
        "only {names} documented commands found"
    );
}
