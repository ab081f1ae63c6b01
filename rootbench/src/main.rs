//! `rootbench`: the repository's benchmark. Five fixed, seeded workloads
//! driven through the public functions the `experiments` CLI itself
//! calls; four end-to-end metrics measured with tracing off; a per-layer
//! budget measured in a separate traced run from outside the crates. It
//! claims no gain: it is the ruler later claims are measured with. See
//! `README.md` beside this package.

mod compare;
mod json;
mod probes;
mod refresh;
mod resolve;
mod run;
mod serve;
mod spans;
mod stamp;
mod stats;
mod workload;

use std::process::{Command, ExitCode};

use json::Json;
use run::Options;
use workload::{Scale, Workload};

const USAGE: &str = "\
usage:
  rootbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--smoke]
      one workload in this process: timed (--trace 0, end-to-end metrics) or
      traced (--trace 1, per-layer metrics and the budget table); the last
      line of standard output is the result object. `rootbench run <name>`
      is the same.
  rootbench all   [--seed N] [--seconds S] [--out FILE]
      every workload timed, each in its own process; prints every
      end-to-end metric and writes the stamped records to FILE.
  rootbench trace [--seed N] [--seconds S] [--out FILE] [--spans FILE]
      every workload traced, each in its own process; prints a budget
      table per workload and writes the spans to --spans, one JSON a line.
  rootbench compare A.json B.json
      two outputs of `all`, one row per (metric, workload), judged against
      the bounds in ./BENCHMARK.json; exits non-zero on any `worse`.
workloads: serve_ditl serve_referral resolve_sim resolve_psim zone_refresh";

/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// The flags every mode shares, parsed from `--flag value` pairs.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    plant_fault: bool,
    out: Option<String>,
    spans: Option<String>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        plant_fault: false,
        out: None,
        spans: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value(arg)?),
            "--seed" => parsed.seed = value(arg)?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                parsed.seconds = value(arg)?.parse().map_err(|_| "--seconds takes a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => parsed.out = Some(value(arg)?),
            "--spans" => parsed.spans = Some(value(arg)?),
            "--smoke" => parsed.smoke = true,
            // Proves the gate can go red: the measured passes get a different
            // input than the reference pass, and the run must exit non-zero.
            "--plant-fault" => parsed.plant_fault = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process and prints its result lines.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let workload = Workload::from_name(name).ok_or(format!("unknown workload {name}"))?;
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.smoke { Scale::Smoke } else { Scale::Full },
        plant_fault: args.plant_fault,
        spans_out: args.spans.clone(),
    };
    let outcome = if opts.trace {
        run::traced(&opts)
    } else {
        run::timed(&opts)
    };
    run::print_result(&outcome);
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in a process of its own, so peak memory and
/// allocator state never leak from one into the next, and returns the
/// records the children printed.
fn run_each(args: &Args, trace: bool) -> Result<(Vec<Json>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    if let Some(path) = &args.spans {
        std::fs::write(path, "").map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let mut records = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()]);
        cmd.args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let (true, Some(path)) = (trace, &args.spans) {
            cmd.args(["--spans", path]);
        }
        let output = cmd.output().map_err(|e| format!("cannot start {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        lines.pop(); // the contract's result object repeats the record
        for line in lines {
            match line.strip_prefix("RECORD ") {
                Some(record) => {
                    records.push(json::parse(record).map_err(|e| format!("{}: bad record: {e}", w.name()))?)
                }
                None => println!("{line}"),
            }
        }
        if !output.status.success() {
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            println!("{}: exited with {}", w.name(), output.status);
            all_correct = false;
        }
        println!();
    }
    Ok((records, all_correct))
}

/// `resolve_psim` and `resolve_sim` run the identical world, so the ratio
/// of their throughputs is the measured two-shard speed-up. `per_s` reads
/// resolutions per second out of a record.
fn print_speedup(records: &[Json], per_s: impl Fn(&Json) -> Option<f64>) {
    let value = |w: Workload| {
        records
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(w.name()))
            .and_then(&per_s)
    };
    if let (Some(sim), Some(psim)) = (value(Workload::ResolveSim), value(Workload::ResolvePsim)) {
        println!(
            "two-shard speed-up: resolve_psim / resolve_sim = {:.3}x (base: {sim:.0} resolutions/s on one shard, {psim:.0} on two)",
            psim / sim
        );
    }
}

fn write_out(args: &Args, records: Vec<Json>) -> Result<(), String> {
    let doc = json::obj([("stamp", stamp::stamp()), ("workloads", Json::Arr(records))]);
    if let Some(path) = &args.out {
        std::fs::write(path, doc.write() + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("records written to {path}");
    }
    Ok(())
}

fn main_inner(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    let exit = |ok: bool| if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    match args.positional.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => match &args.workload {
            Some(name) => run_one(&args, name),
            None => Err("no workload named".to_string()),
        },
        ["run", name] => run_one(&args, name),
        ["all"] => {
            let (records, correct) = run_each(&args, false)?;
            println!(
                "end-to-end metrics (median over passes; tracing off; {} s measured per workload)",
                args.seconds
            );
            for r in &records {
                let text = |key| r.get(key).and_then(Json::as_str).unwrap_or("?").to_string();
                for (name, stat) in r.get("metrics").map(Json::fields).unwrap_or_default() {
                    let num = |key| stat.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
                    println!(
                        "  {:<15} {:<14} {:>14.4} {:<4} min {:.4} max {:.4} n={}",
                        text("workload"),
                        name,
                        num("value"),
                        stat.get("unit").and_then(Json::as_str).unwrap_or(""),
                        num("min"),
                        num("max"),
                        num("n")
                    );
                }
                let failed = r.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0);
                println!("  {:<15} {:<14} {failed:>14.6}", text("workload"), "failed_share");
            }
            print_speedup(&records, |r| r.get("metrics")?.get("ops_per_s")?.get("value")?.as_f64());
            write_out(&args, records)?;
            Ok(exit(correct))
        }
        ["trace"] => {
            let (records, correct) = run_each(&args, true)?;
            // The traced passes report nanoseconds per resolution.
            print_speedup(&records, |r| Some(1e9 / r.get("op_cost")?.get("value")?.as_f64()?));
            write_out(&args, records)?;
            Ok(exit(correct))
        }
        ["compare", a, b] => {
            let load = |path: &str| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let worse = compare::compare(&load(a)?, &load(b)?, &load("BENCHMARK.json")?)?;
            println!("{worse} row(s) worse");
            Ok(exit(worse == 0))
        }
        _ => Err("unrecognised command".to_string()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rootbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{END_TO_END, PER_LAYER};

    /// One workload at about a fiftieth of its size through the full
    /// correctness gate; returns the metrics it reported.
    fn smoke(workload: Workload, trace: bool) -> Vec<(String, f64)> {
        let opts = Options {
            workload,
            seed: 7,
            seconds: 0.05,
            trace,
            scale: Scale::Smoke,
            plant_fault: false,
            spans_out: None,
        };
        let outcome = if trace { run::traced(&opts) } else { run::timed(&opts) };
        let errors = outcome.record.get("errors").map(Json::write);
        assert!(outcome.correct, "{} trace={trace}: {errors:?}", workload.name());
        let metrics = outcome.record.get("metrics").unwrap().fields();
        metrics
            .iter()
            .map(|(n, stat)| (n.clone(), stat.get("value").and_then(Json::as_f64).unwrap()))
            .collect()
    }

    /// A later change that renames a public entry point or breaks a check
    /// fails here, not silently in the benchmark.
    #[test]
    fn smoke_every_workload_passes_its_gate_and_reports_every_end_to_end_metric() {
        for workload in Workload::ALL {
            let metrics = smoke(workload, false);
            let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(
                names,
                END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{}",
                workload.name()
            );
            for (name, v) in &metrics {
                assert!(*v > 0.0 && v.is_finite(), "{}.{name} = {v}", workload.name());
            }
        }
    }

    #[test]
    fn smoke_every_traced_run_reports_every_per_layer_metric_and_each_is_measured_somewhere() {
        let mut measured = vec![false; PER_LAYER.len()];
        for workload in Workload::ALL {
            let metrics = smoke(workload, true);
            let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(
                names,
                PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{}",
                workload.name()
            );
            for (seen, (_, v)) in measured.iter_mut().zip(&metrics) {
                assert!(v.is_finite());
                *seen |= *v != 0.0;
            }
        }
        let unmeasured: Vec<&str> = PER_LAYER
            .iter()
            .zip(&measured)
            .filter(|(_, seen)| !**seen)
            .map(|(m, _)| m.name)
            .collect();
        assert!(unmeasured.is_empty(), "no workload measures {unmeasured:?}");
    }

    #[test]
    fn planted_fault_turns_every_gate_red() {
        for workload in Workload::ALL {
            let opts = Options {
                workload,
                seed: 7,
                seconds: 0.05,
                trace: false,
                scale: Scale::Smoke,
                plant_fault: true,
                spans_out: None,
            };
            let outcome = run::timed(&opts);
            assert!(
                !outcome.correct,
                "{} stayed green on a different input",
                workload.name()
            );
            assert_eq!(outcome.record.get("correct"), Some(&Json::Bool(false)));
        }
    }

    /// `BENCHMARK.json` is the contract; the tables in `workload.rs` are
    /// what the program prints. They must name the same things.
    #[test]
    fn manifest_matches_the_tables_in_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses");
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("").to_string();
        let workloads: Vec<(String, String)> = manifest
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, expected);
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared: Vec<(String, String, String)> = manifest
                .get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
                .collect();
            let expected: Vec<(String, String, String)> = table
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect();
            assert_eq!(declared, expected, "{key}");
        }
        assert_eq!(
            manifest.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(manifest.get("paths").unwrap().items(), [Json::from("rootbench")]);
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}: {}",
                w.name(),
                w.why().len()
            );
            assert!(w.threads() <= stamp::THREAD_BUDGET);
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = args(&[
            "--workload",
            "serve_ditl",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("serve_ditl"), 9, 2.5, true)
        );
        assert_eq!(args(&["compare", "a", "b"]).unwrap().positional, ["compare", "a", "b"]);
        for bad in [
            &["--seed"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--bogus"],
            &["--seed", "x"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
        assert!(main_inner(&[]).is_err());
        assert!(main_inner(&["frobnicate".to_string()]).is_err());
        assert!(main_inner(&["--workload".to_string(), "nope".to_string()]).is_err());
    }
}
