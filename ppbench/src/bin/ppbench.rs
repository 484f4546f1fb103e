//! `ppbench` command line. See README.md beside this package.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ppbench::calibrate::calibrate;
use ppbench::compare::compare;
use ppbench::json::Json;
use ppbench::metrics::{benchmark_json, RUN_SECONDS};
use ppbench::rep::execute;
use ppbench::runner::{run, RunOptions, RunResult};
use ppbench::scenarios::Workload;

const USAGE: &str = "\
usage:
  ppbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
              [--check] [--out FILE]
  ppbench compare A.json B.json
  ppbench calibrate [--sets N] [--out FILE]
  ppbench describe
  ppbench rep --workload W --seed N --div D --trace 0|1   (internal: one rep)
workloads: incast_pp fattree_flowsched coflow_lossy hyperscale_openloop";

/// Flags of one subcommand: `--name value` pairs, bare `--name` switches
/// and positionals.
struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Remove `--name` and return whether it was there.
    fn switch(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    /// Remove `--name value` and return the value, parsed.
    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{name} needs a value"));
        }
        self.rest.remove(i);
        let v = self.rest.remove(i);
        v.parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot parse `{v}`"))
    }

    /// `--trace 0` or `--trace 1`; absent means 0.
    fn trace(&mut self) -> Result<bool, String> {
        match self.value::<u8>("--trace")? {
            None | Some(0) => Ok(false),
            Some(1) => Ok(true),
            Some(v) => Err(format!("--trace: expected 0 or 1, got `{v}`")),
        }
    }

    fn workload(&mut self) -> Result<Option<Workload>, String> {
        match self.value::<String>("--workload")? {
            None => Ok(None),
            Some(n) => Workload::parse(&n)
                .map(Some)
                .ok_or_else(|| format!("unknown workload `{n}`")),
        }
    }

    /// The positionals; any flag still here is one the subcommand lacks.
    fn done(self) -> Result<Vec<String>, String> {
        match self.rest.iter().find(|a| a.starts_with("--")) {
            Some(flag) => Err(format!("unknown or repeated flag `{flag}`")),
            None => Ok(self.rest),
        }
    }
}

/// Where result and trace files go: `ppbench/` inside the build directory
/// this executable was built into, which is ignored by git.
fn out_dir(exe: &Path) -> PathBuf {
    exe.parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."))
        .join("ppbench")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_run(mut args: Args, exe: PathBuf) -> Result<ExitCode, String> {
    let trace = args.trace()?;
    let options = RunOptions {
        workloads: args.workload()?.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        seed: args.value("--seed")?.unwrap_or(1),
        seconds: args.value("--seconds")?.unwrap_or(RUN_SECONDS as f64),
        div: if args.switch("--check") { 10 } else { 1 },
        trace,
        exe: exe.clone(),
    };
    if !(options.seconds > 0.0 && options.seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let out: Option<PathBuf> = args.value("--out")?;
    if let Some(extra) = args.done()?.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }

    let result: RunResult = run(options);
    result.print();
    let dir = out_dir(&exe);
    let default = dir.join(if trace {
        "result-trace.json"
    } else {
        "result.json"
    });
    let out = out.unwrap_or(default);
    write_file(&out, &result.to_json().pretty())?;
    println!("result: {}", out.display());
    if trace {
        for w in &result.workloads {
            let path = dir.join(format!("trace-{}.json", w.workload.name()));
            write_file(&path, &RunResult::trace_json(w).compact())?;
            println!("trace: {}", path.display());
        }
    }
    // The checker reads the last line: one per workload, in run order.
    for w in &result.workloads {
        println!("{}", result.contract_line(w).compact());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_rep(mut args: Args, origin: Instant) -> Result<ExitCode, String> {
    let workload = args.workload()?.ok_or("rep: --workload is required")?;
    let seed = args.value("--seed")?.unwrap_or(1);
    let div: u64 = args.value("--div")?.unwrap_or(1);
    if !(1..=1000).contains(&div) {
        return Err("--div must be in 1..=1000".into());
    }
    let traced = args.trace()?;
    args.done()?;
    // The parent scrubs these; a rep started by hand must not see them
    // either, or it measures something else.
    for var in ppbench::runner::SCRUBBED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} is set; unset it to run a rep"));
        }
    }
    let record = execute(workload, seed, div, traced, origin);
    println!("{}", record.to_json().compact());
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: Args) -> Result<ExitCode, String> {
    let files = args.done()?;
    let [a, b] = files.as_slice() else {
        return Err("compare takes exactly two result files".into());
    };
    let ok = compare(&read_json(a)?, &read_json(b)?)?;
    println!(
        "{}",
        if ok {
            "verdict: B is acceptable"
        } else {
            "verdict: B REGRESSES"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_calibrate(mut args: Args, exe: PathBuf) -> Result<ExitCode, String> {
    let sets: u64 = args.value("--sets")?.unwrap_or(10);
    if sets < 2 {
        return Err("--sets must be at least 2: a spread needs two runs".into());
    }
    let out: PathBuf = args
        .value("--out")?
        .unwrap_or_else(|| out_dir(&exe).join("calibration.json"));
    args.done()?;
    write_file(&out, &calibrate(sets, exe).pretty())?;
    println!("calibration: {}", out.display());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // A rep includes process start, so its clock starts here.
    let origin = Instant::now();
    let mut argv = std::env::args().skip(1);
    let sub = argv.next().unwrap_or_default();
    let args = Args {
        rest: argv.collect(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"));
    let outcome = match sub.as_str() {
        "rep" => cmd_rep(args, origin),
        "run" => exe.and_then(|exe| cmd_run(args, exe)),
        "calibrate" => exe.and_then(|exe| cmd_calibrate(args, exe)),
        "compare" => cmd_compare(args),
        "describe" => args.done().map(|_| {
            print!("{}", benchmark_json().pretty());
            ExitCode::SUCCESS
        }),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|msg| {
        eprintln!("ppbench: {msg}");
        ExitCode::from(2)
    })
}
