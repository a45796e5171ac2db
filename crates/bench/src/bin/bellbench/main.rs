//! `bellbench` — the repository's one benchmark of the served match path:
//! six load-driven workloads, end-to-end metrics with bounds, and a separate
//! traced run that attributes time to each crate. See `README.md` beside
//! this file.
//!
//! ```text
//! bellbench list
//! bellbench run   [seed=N] [scale=full|smoke] [workload=NAME] [out=PATH]
//! bellbench trace [seed=N] [scale=full|smoke] [workload=NAME] [out=PATH]
//! bellbench diff A.json B.json
//! bellbench --workload NAME --seed N --seconds S --trace 0|1 [--scale smoke]
//! ```
//!
//! The last form is one run of one workload, and the form `BENCHMARK.json`
//! gives the benchmark driver; `run` and `trace` are that form once per
//! workload, each in a fresh child process.

mod gen;
mod layers;
mod report;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use report::{
    metrics_json, number, quoted, Bound, Json, MetricDef, Verdict, END_TO_END, PER_LAYER,
};
use workloads::{sizes, workload, Outcome, Request, Scale, Workload, CORPUS_SEED, WORKLOADS};

const USAGE: &str = "usage: bellbench list
       bellbench run   [seed=N] [scale=full|smoke] [workload=NAME] [out=PATH]
       bellbench trace [seed=N] [scale=full|smoke] [workload=NAME] [out=PATH]
       bellbench diff A.json B.json
       bellbench --workload NAME --seed N --seconds S --trace 0|1 [--scale smoke]";

const DEFAULT_SEED: u64 = 2006;
/// What `run` and `trace` pass as `--seconds` at full scale: `run_seconds` of
/// `BENCHMARK.json`, so the suite measures what the driver measures.
const RUN_SECONDS: f64 = 20.0;
/// The same at `scale=smoke`: long enough for a pass over each small pool.
const SMOKE_SECONDS: f64 = 1.0;

const SANDBOX_NOTE: &str = "Latencies are this sandbox's: both clients, the engine workers and \
                            (fleet_tcp) both shard servers share the cores counted here.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            print!("{}", list());
            Ok(true)
        }
        Some("run") => suite(false, &args[1..]),
        Some("trace") => suite(true, &args[1..]),
        Some("diff") => diff(&args[1..]),
        Some(flag) if flag.starts_with("--") => single(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

// --------------------------------------------------------------- one run --

fn parse_scale(value: &str) -> Result<Scale, String> {
    match value {
        "full" => Ok(Scale::Full),
        "smoke" => Ok(Scale::Smoke),
        other => Err(format!("scale is full or smoke, not {other}")),
    }
}

/// `--workload NAME --seed N --seconds S --trace 0|1`: one run in this
/// process. Prints the run's whole record (every metric it measured, its
/// checksum and notes, for `run` and `trace`) and then, as the last line of
/// standard output, the one JSON object the driver's contract asks for.
/// Fails when a correctness check did.
fn single(args: &[String]) -> Result<bool, String> {
    let mut name = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut traced = false;
    let mut scale = Scale::Full;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value\n{USAGE}", pair[0]));
        };
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => scale = parse_scale(value)?,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let name = name.ok_or(format!("--workload is required\n{USAGE}"))?;
    let request = Request {
        workload: workload(&name).ok_or(format!("unknown workload {name}"))?,
        seed,
        scale,
        seconds: seconds.ok_or(format!("--seconds is required\n{USAGE}"))?,
    };
    let outcome = if traced {
        trace::trace(&request)
    } else {
        workloads::measure(&request)
    };
    println!("{}", record_json(&request, &outcome, traced));
    let metrics = if traced {
        metrics_json(PER_LAYER.iter(), &outcome.values, Some(0.0))
    } else {
        metrics_json(report::in_contract(), &outcome.values, None)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    );
    Ok(outcome.correct)
}

fn record_json(request: &Request, outcome: &Outcome, traced: bool) -> String {
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let notes: Vec<String> = outcome.notes.iter().map(|n| quoted(n)).collect();
    format!(
        "{{\"name\": {}, \"scale\": {}, \"attempted\": {}, \"failed\": {}, \"correct\": {}, \
         \"wall_s\": {}, \"answers_checksum\": \"{:#018x}\", \"metrics\": {}, \"notes\": [{}]}}",
        quoted(request.workload.name),
        quoted(request.scale.label()),
        outcome.attempted,
        outcome.failed,
        outcome.correct,
        number(outcome.wall_s),
        outcome.answers_checksum,
        metrics_json(defs.iter(), &outcome.values, None),
        notes.join(", ")
    )
}

// ------------------------------------------------------------------ list --

fn bound_label(def: &MetricDef) -> String {
    match def.bound {
        Some(Bound::Relative(share)) => format!("{:.0} %", share * 100.0),
        Some(Bound::Absolute(amount)) => format!("+{amount} abs"),
        Some(Bound::Exact) => format!("exact ({} in BENCHMARK.json)", report::EXACT_SHARE),
        None => "-".to_string(),
    }
}

fn list() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workloads ({} clients, {} engine workers, top_k {}):",
        workloads::CLIENTS,
        workloads::ENGINE_WORKERS,
        workloads::TOP_K
    );
    for w in WORKLOADS {
        let s = sizes(w.name, Scale::Full);
        let size = if w.name == "zipf_open" {
            format!(
                "{:?} qps for 1 : 3 : 1 of the run, pool {}",
                s.rates_qps, s.pool
            )
        } else {
            format!("{} distinct queries, passes of {} reads", s.pool, s.pass)
        };
        let _ = writeln!(
            out,
            "  {:<12} {} elements, {}-node queries, delta {}, {}{}\n               {}",
            w.name,
            s.corpus_elements,
            s.fragment_nodes,
            s.delta,
            size,
            if w.in_contract {
                ""
            } else {
                " (run and trace only: not in BENCHMARK.json)"
            },
            w.why
        );
    }
    let _ = writeln!(
        out,
        "\nend-to-end metrics (* = in BENCHMARK.json):\n  {:<32} {:<6} {:<7} {:<10} bound",
        "name", "unit", "better", "on"
    );
    for def in END_TO_END {
        let _ = writeln!(
            out,
            "{} {:<32} {:<6} {:<7} {:<10} {}",
            if def.in_contract { "*" } else { " " },
            def.name,
            def.unit,
            def.better.label(),
            def.on,
            bound_label(def)
        );
    }
    let _ = writeln!(
        out,
        "\nper-layer metrics (traced run, not gated):\n  {:<36} {:<6} better",
        "name", "unit"
    );
    for def in PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<36} {:<6} {}",
            def.name,
            def.unit,
            def.better.label()
        );
    }
    out
}

// ------------------------------------------------------------- run/trace --

struct SuiteArgs {
    seed: u64,
    scale: Scale,
    only: Option<&'static Workload>,
    out: Option<String>,
}

fn suite_args(args: &[String]) -> Result<SuiteArgs, String> {
    let mut parsed = SuiteArgs {
        seed: DEFAULT_SEED,
        scale: Scale::Full,
        only: None,
        out: None,
    };
    for arg in args {
        let (key, value) = arg
            .split_once('=')
            .ok_or(format!("expected key=value, got '{arg}'\n{USAGE}"))?;
        match key {
            "seed" => parsed.seed = value.parse().map_err(|e| format!("seed: {e}"))?,
            "scale" => parsed.scale = parse_scale(value)?,
            "workload" => {
                parsed.only = Some(workload(value).ok_or(format!("unknown workload {value}"))?)
            }
            "out" => parsed.out = Some(value.to_string()),
            other => return Err(format!("unknown parameter '{other}'\n{USAGE}")),
        }
    }
    Ok(parsed)
}

impl SuiteArgs {
    fn seconds(&self) -> f64 {
        match self.scale {
            Scale::Full => RUN_SECONDS,
            Scale::Smoke => SMOKE_SECONDS,
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run metadata: enough to tell which code, host and inputs made the numbers.
fn meta_json(args: &SuiteArgs, traced: bool) -> String {
    let mut frozen = String::from("{");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let s = sizes(w.name, args.scale);
        let _ = write!(
            frozen,
            "{}\"{}\": {{\"corpus_elements\": {}, \"pool\": {}, \"pass\": {}, \"warmup\": {}, \
             \"rates_qps\": [{}, {}, {}]}}",
            if i > 0 { ", " } else { "" },
            w.name,
            s.corpus_elements,
            s.pool,
            s.pass,
            s.warmup,
            s.rates_qps[0],
            s.rates_qps[1],
            s.rates_qps[2],
        );
    }
    frozen.push('}');
    format!(
        "{{\"mode\": {}, \"seed\": {}, \"corpus_seed\": {CORPUS_SEED}, \"scale\": {}, \"seconds\": {}, \
         \"git_revision\": {}, \"cores\": {}, \"clients\": {}, \"engine_workers\": {}, \"rustc\": {}, \
         \"simd_tier\": {}, \"XSM_FORCE_SCALAR\": {}, \"frozen\": {frozen}, \"note\": {}}}",
        quoted(if traced { "trace" } else { "run" }),
        args.seed,
        quoted(args.scale.label()),
        args.seconds(),
        quoted(&command_line("git", &["rev-parse", "HEAD"])),
        cores(),
        workloads::CLIENTS,
        workloads::ENGINE_WORKERS,
        quoted(&command_line("rustc", &["--version"])),
        quoted(xsm_similarity::simd::active_kernel()),
        xsm_similarity::simd::force_scalar(),
        quoted(SANDBOX_NOTE),
    )
}

/// `run` / `trace`: every workload in a fresh child process — this executable
/// again, with the arguments the benchmark driver would give it — results
/// printed by name with units and written to one file.
fn suite(traced: bool, args: &[String]) -> Result<bool, String> {
    let args = suite_args(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mode = if traced { "trace" } else { "run" };
    println!(
        "bellbench {mode}: seed {} scale {} ({} s a workload) on {} cores ({} clients, {} engine workers)\n{SANDBOX_NOTE}",
        args.seed,
        args.scale.label(),
        args.seconds(),
        cores(),
        workloads::CLIENTS,
        workloads::ENGINE_WORKERS
    );
    let mut records = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| args.only.is_none_or(|o| o.name == w.name))
    {
        let output = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds().to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(["--scale", args.scale.label()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        // The record; the line after it is the driver's.
        let line = stdout.lines().rev().nth(1).unwrap_or_default();
        let record = Json::parse(line).map_err(|e| {
            format!(
                "{} child printed no result ({e}); status {}",
                w.name, output.status
            )
        })?;
        all_correct &= output.status.success();
        print_record(&record, traced);
        records.push(line.to_string());
    }
    let default_name = format!("results-{mode}-{}.json", args.scale.label());
    let path = args
        .out
        .clone()
        .map_or_else(|| workloads::out_dir().join(default_name), Into::into);
    let file = format!(
        "{{\"benchmark\": \"bellbench\", \"meta\": {},\n\"workloads\": [\n{}\n]}}\n",
        meta_json(&args, traced),
        records.join(",\n")
    );
    std::fs::write(&path, file).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    if args.scale == Scale::Smoke {
        println!("scale=smoke: same code paths and checks, sizes too small to be a baseline");
    }
    if !all_correct {
        println!("FAILED: a correctness check did not pass");
    }
    Ok(all_correct)
}

fn print_record(record: &Json, traced: bool) {
    let text = |key: &str| record.get(key).and_then(Json::as_str).unwrap_or("?");
    let num = |key: &str| record.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "\n{} — {} operations, {} failed, checks {}, wall {:.1} s{}",
        text("name"),
        num("attempted"),
        num("failed"),
        if record.get("correct") == Some(&Json::Bool(true)) {
            "passed"
        } else {
            "FAILED"
        },
        num("wall_s"),
        if traced {
            String::new()
        } else {
            format!(", answers_checksum {}", text("answers_checksum"))
        },
    );
    let defs = if traced { PER_LAYER } else { END_TO_END };
    for def in defs {
        if let Some(value) = record
            .get("metrics")
            .and_then(|m| m.get(def.name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
        {
            println!("  {:<36} {:>16.6} {}", def.name, value, def.unit);
        }
    }
    for note in record.get("notes").map(Json::as_array).unwrap_or_default() {
        println!("  note: {}", note.as_str().unwrap_or_default());
    }
}

// ------------------------------------------------------------------ diff --

fn diff(args: &[String]) -> Result<bool, String> {
    let [first, second] = args else {
        return Err(format!("diff takes two result files\n{USAGE}"));
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (rows, notes, regressed) = report::diff(&read(first)?, &read(second)?)?;
    println!(
        "{:<12} {:<32} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "first", "second", "change"
    );
    for row in &rows {
        let change = if row.first == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1} %", (row.second - row.first) / row.first * 100.0)
        };
        let verdict = match row.verdict {
            Verdict::Within => "within bound",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::NotComparable => "not comparable (different inputs)",
        };
        let bound = report::end_to_end(&row.metric)
            .map(bound_label)
            .unwrap_or_default();
        println!(
            "{:<12} {:<32} {:>14.6} {:>14.6} {:>9}  {verdict} ({bound})",
            row.workload, row.metric, row.first, row.second, change
        );
    }
    for note in &notes {
        println!("{note}");
    }
    println!(
        "{}",
        if regressed {
            "REGRESSION: the second file is worse than the first beyond the benchmark's bounds"
        } else {
            "no regression beyond the benchmark's bounds"
        }
    );
    Ok(!regressed)
}
