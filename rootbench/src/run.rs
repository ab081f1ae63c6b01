//! One run of one workload in this process: the timed run that produces
//! the end-to-end metrics, and the traced run that produces the per-layer
//! ones. Either prints a human-readable report, then the stamped record
//! on a line starting `RECORD `, then the result object the benchmark
//! contract asks for as the last line of standard output.

use std::time::{Duration, Instant};

use crate::json::{obj, Json};
use crate::spans::Spans;
use crate::stamp;
use crate::stats;
use crate::workload::{cold_and_steady_ms, value_of, Pass, Scale, Traced, Workload, END_TO_END, PER_LAYER};

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured passes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Share of `--seconds` a traced run spends on real passes before it
/// turns to the staged replay and the probes.
const TRACED_PASS_SHARE: f64 = 0.4;

/// How long [`sustain_load`] keeps the workload's threads busy.
const SUSTAIN: Duration = Duration::from_secs(3);

/// Brings the machine into its sustained-load state before a workload
/// that runs on more than one thread is measured. On the two-vCPU KVM
/// guests this benchmark was sized on, about two seconds of both vCPUs
/// being busy changes cross-thread wake-up latency for as long as load
/// continues (`resolve_psim` settles 15% slower), and only some twenty
/// idle seconds change it back. A run measured from a machine that
/// happened to be idle would read differently from one that followed
/// another run; measuring every run from the sustained state makes the
/// result independent of what ran before. It comes first in a run and is
/// part of neither the set-up time nor the measured passes.
fn sustain_load(threads: usize) {
    let until = Instant::now() + SUSTAIN;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                let mut x = 0u64;
                while Instant::now() < until {
                    for i in 0..10_000u64 {
                        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
                    }
                }
            });
        }
    });
}

/// What to run.
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Measure a deliberately different input than the reference pass saw,
    /// to show the correctness gate going red.
    pub plant_fault: bool,
    /// Where the traced run appends its spans, one JSON object a line.
    pub spans_out: Option<String>,
}

/// A named sample: printed and recorded as median, range and count.
pub struct Stat {
    pub name: &'static str,
    pub unit: &'static str,
    pub values: Vec<f64>,
}

impl Stat {
    pub fn new(name: &'static str, unit: &'static str, values: Vec<f64>) -> Stat {
        Stat { name, unit, values }
    }

    pub fn median(&self) -> f64 {
        stats::median(&self.values)
    }

    fn to_json(&self) -> Json {
        obj([
            ("value", self.median().into()),
            ("unit", self.unit.into()),
            ("min", stats::min(&self.values).into()),
            ("max", stats::max(&self.values).into()),
            ("n", (self.values.len() as u64).into()),
            ("values", Json::from(&self.values[..])),
        ])
    }

    fn line(&self) -> String {
        format!(
            "  {:<26} {:>14.4} {:<5} min {:.4}  max {:.4}  n={}",
            self.name,
            self.median(),
            self.unit,
            stats::min(&self.values),
            stats::max(&self.values),
            self.values.len()
        )
    }
}

fn stats_json(stats: &[Stat]) -> Json {
    Json::Obj(stats.iter().map(|s| (s.name.to_string(), s.to_json())).collect())
}

/// The result of a run: the stamped record and whether every check held.
pub struct Outcome {
    pub record: Json,
    pub correct: bool,
}

/// Repeats passes while the next one still fits `seconds` (at least
/// [`MIN_PASSES`]), collecting gate violations and fingerprint drift.
fn measure(mut pass: impl FnMut() -> Pass, seconds: f64, reference: &str, errors: &mut Vec<String>) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut longest = 0.0f64;
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() + longest <= seconds {
        let began = Instant::now();
        let p = pass();
        longest = longest.max(began.elapsed().as_secs_f64());
        for e in &p.errors {
            errors.push(format!("pass {}: {e}", passes.len() + 1));
        }
        if p.fingerprint != reference {
            errors.push(format!(
                "pass {}: outputs [{}] differ from the warm-up pass [{reference}]",
                passes.len() + 1,
                p.fingerprint
            ));
        }
        passes.push(p);
    }
    passes
}

fn base_record(opts: &Options, world_input: Json) -> Vec<(String, Json)> {
    let w = opts.workload;
    let mut fields = vec![
        ("workload".to_string(), w.name().into()),
        ("why".to_string(), w.why().into()),
        ("operation".to_string(), w.op().into()),
        ("seed".to_string(), opts.seed.into()),
        ("seconds".to_string(), opts.seconds.into()),
        ("trace".to_string(), opts.trace.into()),
        ("threads".to_string(), (w.threads() as u64).into()),
    ];
    fields.extend(stamp::stamp().fields().iter().cloned());
    fields.push(("input".to_string(), world_input));
    fields
}

fn finish_record(
    mut fields: Vec<(String, Json)>,
    passes: &[Pass],
    reference: &str,
    errors: &[String],
    metrics: Json,
) -> Outcome {
    let attempted: u64 = passes.iter().map(|p| p.ops).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let correct = errors.is_empty() && failed == 0;
    fields.push(("passes".to_string(), (passes.len() as u64).into()));
    fields.push(("correct".to_string(), correct.into()));
    fields.push(("attempted".to_string(), attempted.into()));
    fields.push(("failed".to_string(), failed.into()));
    fields.push((
        "failed_share".to_string(),
        (failed as f64 / attempted.max(1) as f64).into(),
    ));
    fields.push((
        "errors".to_string(),
        Json::Arr(errors.iter().map(|e| e.as_str().into()).collect()),
    ));
    fields.push(("fingerprint".to_string(), reference.into()));
    fields.push(("metrics".to_string(), metrics));
    Outcome {
        record: Json::Obj(fields),
        correct,
    }
}

/// The timed run: [`SETUPS`] set-ups (world build plus one warm-up pass
/// each), then measured passes for `--seconds`, tracing off.
pub fn timed(opts: &Options) -> Outcome {
    let w = opts.workload;
    if w.threads() > 1 && opts.scale == Scale::Full {
        sustain_load(w.threads());
    }
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let mut world = w.build(opts.seed, opts.scale, false);
        let warm = world.pass();
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((world, warm));
    }
    let (mut world, warm) = built.expect("at least one set-up ran");
    let mut errors: Vec<String> = warm.errors.iter().map(|e| format!("warm-up pass: {e}")).collect();
    if opts.plant_fault {
        world = w.build(opts.seed, opts.scale, true);
    }
    let input = world.describe();
    let passes = measure(|| world.pass(), opts.seconds, &warm.fingerprint, &mut errors);

    let ops: u64 = passes.iter().map(|p| p.ops).sum();
    let cpu: f64 = passes.iter().map(|p| p.cpu_seconds).sum();
    let throughput: Vec<f64> = passes.iter().map(|p| p.ops as f64 / p.seconds).collect();
    let metrics = [
        Stat::new("ops_per_s", "1/s", throughput.clone()),
        Stat::new("cpu_us_per_op", "us", vec![cpu * 1e6 / ops as f64]),
        Stat::new("peak_rss_mb", "MB", vec![stamp::peak_rss_mb()]),
        Stat::new("setup_s", "s", setup_s),
    ];
    debug_assert!(metrics.iter().map(|m| m.name).eq(END_TO_END.iter().map(|m| m.name)));

    // The same measurements under the names each workload family is
    // usually quoted by.
    let mut named = match w {
        Workload::ServeDitl | Workload::ServeReferral => vec![Stat::new("serve_qps", "1/s", throughput)],
        Workload::ResolveSim | Workload::ResolvePsim => vec![Stat::new("resolve_rps", "1/s", throughput)],
        Workload::ZoneRefresh => {
            let (cold, steady) = cold_and_steady_ms(&passes);
            vec![
                Stat::new("refresh_ms_p80", "ms", vec![stats::quantile(&steady, 0.8)]),
                Stat::new("refresh_ms_per_day", "ms", steady),
                Stat::new("refresh_cold_ms", "ms", cold),
            ]
        }
    };
    for (name, value) in &passes[0].counts {
        named.push(Stat::new(name, "", vec![*value]));
    }

    println!(
        "{}: {} passes of {} operations ({}) on {} thread(s), seed {}, {} s measured",
        w.name(),
        passes.len(),
        passes[0].ops,
        w.op(),
        w.threads(),
        opts.seed,
        opts.seconds
    );
    for stat in metrics.iter().chain(&named) {
        println!("{}", stat.line());
    }
    println!("  outputs: {}", warm.fingerprint);
    for e in &errors {
        println!("  FAILED CHECK: {e}");
    }

    let mut fields = base_record(opts, input);
    fields.push(("named".to_string(), stats_json(&named)));
    finish_record(fields, &passes, &warm.fingerprint, &errors, stats_json(&metrics))
}

/// The traced run: one set-up, real passes wrapped in spans, then the
/// workload's staged replay and probes; prints the per-operation budget.
pub fn traced(opts: &Options) -> Outcome {
    let w = opts.workload;
    if w.threads() > 1 && opts.scale == Scale::Full {
        sustain_load(w.threads());
    }
    let mut world = w.build(opts.seed, opts.scale, false);
    let warm = world.pass();
    let mut errors: Vec<String> = warm.errors.iter().map(|e| format!("warm-up pass: {e}")).collect();
    let mut spans = Spans::new();
    let passes = measure(
        || spans.scope("pass", |_| world.pass()),
        opts.seconds * TRACED_PASS_SHARE,
        &warm.fingerprint,
        &mut errors,
    );
    let traced = world.trace(&mut spans, &passes);

    let attributed: f64 = traced.budget.iter().map(|r| r.per_op).sum();
    let unattributed_share = 1.0 - attributed / traced.op_cost;
    let mut values = traced.layers.clone();
    values.push(("budget.unattributed_share", unattributed_share));
    values.push(("budget.trace_overhead_share", traced.trace_overhead_share));
    for (name, _) in &values {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not a declared per-layer metric"
        );
    }
    let metrics: Vec<Stat> = PER_LAYER
        .iter()
        .map(|m| {
            // A layer this workload's path does not touch reports 0.
            Stat::new(m.name, m.unit, vec![value_of(&values, m.name)])
        })
        .collect();

    print_budget(w, &traced, attributed, unattributed_share, passes.len());
    for e in &errors {
        println!("  FAILED CHECK: {e}");
    }
    if let Some(path) = &opts.spans_out {
        match spans.append_jsonl(w.name(), path) {
            Ok(()) => println!("  {} spans appended to {path}", spans.all().len()),
            Err(e) => errors.push(format!("writing spans to {path}: {e}")),
        }
    }

    let mut fields = base_record(opts, world.describe());
    fields.push(("spans".to_string(), (spans.all().len() as u64).into()));
    fields.push((
        "op_cost".to_string(),
        obj([("value", traced.op_cost.into()), ("unit", traced.unit.into())]),
    ));
    finish_record(fields, &passes, &warm.fingerprint, &errors, stats_json(&metrics))
}

fn print_budget(w: Workload, t: &Traced, attributed: f64, unattributed_share: f64, passes: usize) {
    let share = |v: f64| 100.0 * v / t.op_cost;
    println!(
        "{} budget: {} per {} on the blocking path ({passes} traced passes)",
        w.name(),
        t.unit,
        w.op()
    );
    for row in &t.budget {
        println!("  {:<92} {:>11.3} {:>6.1}%", row.label, row.per_op, share(row.per_op));
    }
    println!(
        "  {:<92} {:>11.3} {:>6.1}%",
        "sum of rows",
        attributed,
        share(attributed)
    );
    println!(
        "  {:<92} {:>11.3}",
        format!("end to end, {} per {}", t.unit, w.op()),
        t.op_cost
    );
    println!(
        "  {:<92} {:>11.4}",
        "unattributed_share (1 - sum / end to end)", unattributed_share
    );
    println!("  {:<92} {:>11.6}", "trace_overhead_share", t.trace_overhead_share);
    for note in &t.notes {
        println!("  note: {note}");
    }
    println!("  per-layer metrics measured on this workload:");
    for (name, value) in &t.layers {
        let unit = PER_LAYER.iter().find(|m| m.name == *name).map(|m| m.unit).unwrap_or("");
        println!("    {name:<40} {value:>14.4} {unit}");
    }
}

/// Prints the two machine-read lines that end a run: the stamped record,
/// then the contract's result object with exactly its four keys.
pub fn print_result(outcome: &Outcome) {
    let record = &outcome.record;
    println!("RECORD {}", record.write());
    let metrics = Json::Obj(
        record
            .get("metrics")
            .map(Json::fields)
            .unwrap_or_default()
            .iter()
            .map(|(name, stat)| {
                let pick = |key: &str| stat.get(key).cloned().unwrap_or(Json::Null);
                (name.clone(), obj([("value", pick("value")), ("unit", pick("unit"))]))
            })
            .collect(),
    );
    let pick = |key: &str| record.get(key).cloned().unwrap_or(Json::Null);
    let result = obj([
        ("correct", pick("correct")),
        ("attempted", pick("attempted")),
        ("failed", pick("failed")),
        ("metrics", metrics),
    ]);
    println!("{}", result.write());
}
