//! `repro` — regenerate the paper's figures and tables from
//! [`experiments::registry::FIGURES`].
//!
//! ```text
//! repro list                              one slug per line
//! repro run <name>... [--full] [--jobs N] the entries each name selects
//! repro all [--full] [--jobs N]           every entry
//! ```
//!
//! A name selects every entry whose slug it equals or prefixes: `fig10` is
//! `fig10a` … `fig10d`, `fig12_70` is that one entry. `--full` runs the
//! paper-scale parameters. `--jobs N` (or `--jobs=N`, or `PRIOPLUS_JOBS=N`;
//! default: all cores) fans independent simulations over N threads; the
//! output is byte-identical whatever N is. Tables go to stdout and, when
//! `REPRO_JSON_DIR` is set, also to `<dir>/<table slug>.json`.
//!
//! This file is the one place in the crate that reads argv or the
//! environment, prints, or writes files; figures only return tables.

use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use experiments::registry::{select, Figure, FIGURES};
use experiments::Scale;

/// A parsed command line.
enum Cmd {
    List,
    Run {
        figures: Vec<&'static Figure>,
        scale: Scale,
        jobs: usize,
    },
}

fn positive(value: &str, what: &str) -> Result<usize, String> {
    match value.trim().parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{what} needs a positive integer, got `{value}`")),
    }
}

/// Parse the arguments after the program name; `env_jobs` is the value of
/// `PRIOPLUS_JOBS`, which `--jobs` overrides.
fn parse(mut args: impl Iterator<Item = String>, env_jobs: Option<String>) -> Result<Cmd, String> {
    let mut words = Vec::new();
    let mut scale = Scale::Quick;
    let mut jobs = None;
    while let Some(arg) = args.next() {
        if arg == "--full" {
            scale = Scale::Full;
        } else if arg == "--jobs" {
            let value = args.next().ok_or("--jobs needs a positive integer")?;
            jobs = Some(positive(&value, "--jobs")?);
        } else if let Some(value) = arg.strip_prefix("--jobs=") {
            jobs = Some(positive(value, "--jobs")?);
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            words.push(arg);
        }
    }
    let jobs = match (jobs, env_jobs) {
        (Some(n), _) => n,
        (None, Some(value)) => positive(&value, "PRIOPLUS_JOBS")?,
        (None, None) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let figures = match words
        .split_first()
        .map(|(cmd, names)| (cmd.as_str(), names))
    {
        Some(("list", [])) => return Ok(Cmd::List),
        Some(("all", [])) => FIGURES.iter().collect(),
        Some(("run", names)) if !names.is_empty() => {
            let mut figures = Vec::new();
            for name in names {
                let before = figures.len();
                figures.extend(select(name));
                if figures.len() == before {
                    return Err(format!("no entry is named or starts with `{name}`"));
                }
            }
            figures
        }
        _ => return Err("expected `list`, `run <name>...` or `all`".into()),
    };
    Ok(Cmd::Run {
        figures,
        scale,
        jobs,
    })
}

fn usage() -> String {
    let mut out = String::from(
        "usage: repro list | run <name>... | all   [--full] [--jobs N]\n\
         a name selects every entry whose slug it equals or prefixes:\n",
    );
    for f in FIGURES {
        out.push_str(&format!("  {:<17} {}\n", f.slug, f.about));
    }
    out
}

/// Why a command stopped before its end.
enum Stop {
    /// Whoever read stdout went away (`repro list | head -1`): not an error,
    /// there is just nobody left to print for.
    ClosedPipe,
    /// A failure, as the message to print.
    Failed(String),
}

/// What a failed write to stdout means.
fn stdout_error(e: std::io::Error) -> Stop {
    match e.kind() {
        ErrorKind::BrokenPipe => Stop::ClosedPipe,
        _ => Stop::Failed(format!("cannot write to stdout: {e}")),
    }
}

/// Run `figures` one after the other: print each table with its notes to
/// `out` and, when `REPRO_JSON_DIR` is set, write its `<slug>.json` there.
fn run(out: &mut impl Write, figures: &[&Figure], scale: Scale, jobs: usize) -> Result<(), Stop> {
    let cannot = |what: &str, path: &Path, e: std::io::Error| {
        Stop::Failed(format!("cannot {what} {}: {e}", path.display()))
    };
    let json_dir = std::env::var_os("REPRO_JSON_DIR").map(PathBuf::from);
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).map_err(|e| cannot("create", dir, e))?;
    }
    for f in figures {
        eprintln!("repro: {} — {}", f.slug, f.about);
        for t in (f.run)(scale, jobs) {
            write!(out, "{}\n{}", t.render(), t.notes).map_err(stdout_error)?;
            if let Some(dir) = &json_dir {
                let path = dir.join(format!("{}.json", t.slug));
                std::fs::write(&path, t.to_json()).map_err(|e| cannot("write", &path, e))?;
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let env_jobs = std::env::var("PRIOPLUS_JOBS").ok();
    let out = &mut std::io::stdout().lock();
    let done = match parse(std::env::args().skip(1), env_jobs) {
        Ok(Cmd::List) => FIGURES
            .iter()
            .try_for_each(|f| writeln!(out, "{}", f.slug))
            .map_err(stdout_error),
        Ok(Cmd::Run {
            figures,
            scale,
            jobs,
        }) => run(out, &figures, scale, jobs),
        Err(e) => {
            eprintln!("repro: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The lock buffers a partial line; its write fails here, not at exit.
    match done.and_then(|()| out.flush().map_err(stdout_error)) {
        Ok(()) | Err(Stop::ClosedPipe) => ExitCode::SUCCESS,
        Err(Stop::Failed(e)) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str], env_jobs: Option<&str>) -> Result<Cmd, String> {
        parse(
            words.iter().map(|s| s.to_string()),
            env_jobs.map(str::to_string),
        )
    }

    fn jobs_of(words: &[&str], env_jobs: Option<&str>) -> Result<usize, String> {
        match parse_words(words, env_jobs)? {
            Cmd::Run { jobs, .. } => Ok(jobs),
            Cmd::List => panic!("`list` has no job count"),
        }
    }

    #[test]
    fn jobs_flag_parsing() {
        assert_eq!(jobs_of(&["all", "--jobs", "5"], None), Ok(5));
        assert_eq!(jobs_of(&["all", "--jobs=3"], None), Ok(3));
        assert_eq!(
            jobs_of(&["run", "--full", "--jobs", "2", "fig02"], None),
            Ok(2)
        );
        assert_eq!(jobs_of(&["all"], Some("6")), Ok(6));
        assert_eq!(jobs_of(&["all", "--jobs", "2"], Some("6")), Ok(2));
        assert!(jobs_of(&["all"], None).is_ok_and(|n| n >= 1));
        for bad in [
            &["all", "--jobs", "abc"][..],
            &["all", "--jobs=0"],
            &["all", "--jobs"],
        ] {
            assert!(jobs_of(bad, None).is_err(), "{bad:?}");
        }
        assert!(jobs_of(&["all"], Some("many")).is_err());
    }

    #[test]
    fn names_select_by_prefix_in_registry_order() {
        let slugs = |words: &[&str]| match parse_words(words, None) {
            Ok(Cmd::Run { figures, .. }) => figures.iter().map(|f| f.slug).collect::<Vec<_>>(),
            _ => Vec::new(),
        };
        assert_eq!(
            slugs(&["run", "fig10"]),
            ["fig10a", "fig10b", "fig10c", "fig10d"]
        );
        assert_eq!(slugs(&["run", "fig12"]), ["fig12_40", "fig12_70", "fig12c"]);
        assert_eq!(slugs(&["run", "fig12_70", "fig02"]), ["fig12_70", "fig02"]);
        assert_eq!(slugs(&["all"]).len(), FIGURES.len());
        assert!(matches!(parse_words(&["list"], None), Ok(Cmd::List)));
        assert!(matches!(
            parse_words(&["run", "fig02", "--full"], None),
            Ok(Cmd::Run {
                scale: Scale::Full,
                ..
            })
        ));
        for bad in [
            &[][..],
            &["run"],
            &["run", "fig99"],
            &["all", "fig02"],
            &["fig02"],
            &["all", "--ful"],
        ] {
            assert!(parse_words(bad, None).is_err(), "{bad:?}");
        }
    }
}
