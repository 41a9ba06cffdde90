//! `servebench --workload <edit_10k|review_2k|durable_2k> --seed <n>
//! --seconds <s> --trace <0|1>`, run from the root of a checkout of the
//! repository. Builds `swsd` there, generates the workload's inputs from
//! the seed, serves them, and prints human-readable lines followed by one
//! JSON result line. See README.md.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use servebench::host::{build_swsd, WorkDir};
use servebench::run::Bench;
use servebench::server;
use servebench::workload::{Inputs, Workload};

/// Every run ends within this after `swsd` is built; past it, the
/// watchdog kills the server and exits non-zero.
const RUN_LIMIT: Duration = Duration::from_secs(170);

const USAGE: &str =
    "usage: servebench --workload <edit_10k|review_2k|durable_2k> --seed <n> --seconds <1..=60> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    if args.len() != 8 {
        return Err("expected four flags, each with a value".to_string());
    }
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed wants an integer")?;
    let seconds = value("--seconds")?
        .parse()
        .ok()
        .filter(|s| (1..=60).contains(s))
        .ok_or("--seconds wants an integer from 1 to 60")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace wants 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // In-process layer timings run under the same environment the server
    // gets: no SWS_* overrides (thread count, checkpoint interval, ...).
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SWS_") {
            std::env::remove_var(key);
        }
    }
    let root = PathBuf::from(".");
    if !root.join("crates/designer/Cargo.toml").is_file() {
        eprintln!("servebench: run from the root of a checkout (no crates/designer here)");
        return ExitCode::from(2);
    }
    let swsd = match build_swsd(&root) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let work =
        root.join(".servebench_work")
            .join(format!("{name}-{}-{}", args.seed, std::process::id()));
    let work = match WorkDir::create(work) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("servebench: cannot create the scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    server::watchdog(RUN_LIMIT, work.path().to_path_buf());

    let inputs = Inputs::generate(args.workload, args.seed);
    let bench = Bench {
        inputs: &inputs,
        swsd: &swsd,
        work: work.path(),
    };
    if let Err(e) = bench.prepare() {
        eprintln!("servebench: preparing the inputs failed: {e}");
        return ExitCode::from(1);
    }
    println!(
        "servebench: workload={name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        bench.trace()
    } else {
        bench.measure(args.seconds)
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
