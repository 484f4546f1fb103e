//! CLI for the simlint static-analysis pass.
//!
//! ```text
//! cargo run -p simlint                       # lint the workspace, exit 1 on findings
//! cargo run -p simlint -- --root DIR         # lint a different workspace
//! cargo run -p simlint -- --json FILE        # also write the JSON report to FILE
//! ```
//!
//! Exit codes: 0 clean (or everything allowed), 1 unallowed findings,
//! 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{find_workspace_root, lint_workspace};

struct Args {
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: simlint [--root DIR] [--json FILE] [--quiet]\n\
     \n\
     Walks the workspace and enforces the time-cast, hot-path allocation,\n\
     float-order and layering rules (see crates/simlint/src/rules.rs). Exit 1\n\
     on any finding that is not annotated with // simlint::allow(rule, reason),\n\
     and on any such annotation that is malformed or covers no finding.\n\
     --json also writes the machine-readable report to FILE."
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root requires a directory")?,
                ))
            }
            "--json" => {
                args.json = Some(PathBuf::from(
                    it.next().ok_or("--json requires a file path")?,
                ))
            }
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("simlint: {e}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    let root = match args.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("simlint: could not locate a workspace root (try --root)");
            return ExitCode::from(2);
        }
    };

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(json_path) = &args.json {
        if let Some(dir) = json_path.parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("simlint: creating {}: {e}", dir.display());
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = std::fs::write(json_path, report.to_json()) {
            eprintln!("simlint: writing {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }

    let mut fatal = 0usize;
    for (path, f) in report.unallowed() {
        fatal += 1;
        println!(
            "{}:{}:{}: [{}] {}",
            path,
            f.line,
            f.col,
            f.rule.name(),
            f.message
        );
    }
    if !args.quiet {
        eprintln!(
            "simlint: {} files, {} crates, {} modules; {} finding(s): \
             {} fatal, {} allowed by annotation",
            report.files_scanned,
            report.crates_indexed,
            report.modules_indexed,
            report.findings.len(),
            fatal,
            report.allowed_count()
        );
    }
    if fatal > 0 {
        eprintln!(
            "simlint: FAILED — fix the sites above or annotate them with \
             // simlint::allow(rule, reason); an allow-hygiene finding is fixed \
             in the annotation itself"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
