//! Host-speed and simulated-service benchmark.
//!
//! ```text
//! perfbench --workload <mixed-ops|scan-fused|grid-keyed|paper-select>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) it repeats the workload for `--seconds`, each
//! time from the seed through a fresh machine, and prints the end-to-end
//! metrics. On a shared host, neighbours slow every pass by up to 2.5x
//! for minutes at a time, so each pass's host times are divided by the
//! time of a fixed reference loop of the benchmark's own run around it,
//! and the run reports the median of those ratios. Traced (`--trace 1`) it runs the
//! workload eight times untraced, each followed by a round of timing each
//! layer's public entry point, then once with the program's ring tracer
//! on, and prints the per-layer metrics and the host-time attribution.
//! Either way every completed result is checked against a reference
//! computed from the inputs, and the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The benchmark's own spans go to `.bench_trace/`.

mod digest;
mod layers;
mod probes;
mod spans;
mod workloads;

use jafar_common::time::Tick;
use layers::{Attribution, Counts};
use probes::Prober;
use spans::Spans;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Inputs, Kind, Machine, Output, Summary};

/// Fewest timed runs an untraced measurement takes.
const MIN_RUNS: usize = 3;
/// Share of each pass's time spent on extra set-ups right after it.
const SETUP_SHARE: f64 = 0.1;
/// Rounds of the reference loop, and the loop time host times are
/// rescaled to, a round figure: the loop read 55-75 ms on the 2-vCPU
/// 2.1 GHz Xeon host the benchmark was sized on, depending on its load.
const REF_ROUNDS: u32 = 300;
const REF_S: f64 = 0.05;
/// Trace ring capacity: large enough that no workload drops an event.
const TRACE_RING: usize = 1 << 24;
/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

const USAGE: &str =
    "usage: perfbench --workload <mixed-ops|scan-fused|grid-keyed|paper-select> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?.max(1),
            trace: trace.unwrap_or(false),
        })
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[Tick], pct: usize) -> Tick {
    sorted[(pct * sorted.len()).div_ceil(100).max(1) - 1]
}

/// The highest whole percentile with at least [`TAIL_BEYOND`] samples
/// beyond it (the maximum when there are too few samples for any).
fn tail(sorted: &[Tick]) -> (usize, Tick) {
    (50..=99)
        .rev()
        .find(|&p| sorted.len() - (p * sorted.len()).div_ceil(100) >= TAIL_BEYOND)
        .map_or((100, sorted[sorted.len() - 1]), |p| {
            (p, percentile(sorted, p))
        })
}

/// The process's resident-memory high-water mark, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds the benchmark's own reference loop takes now. It builds and
/// drops hash maps of small vectors: allocation- and cache-bound work that
/// neighbours on a shared host slow down much as they slow the simulator.
fn reference_s() -> f64 {
    let t = Instant::now();
    let mut total = 0usize;
    for r in 0..REF_ROUNDS {
        let mut m: HashMap<u32, Vec<u32>> = HashMap::new();
        for i in 0..2000u32 {
            m.entry(i.wrapping_mul(2_654_435_761) ^ r)
                .or_default()
                .push(i);
        }
        total += m.len();
    }
    std::hint::black_box(total);
    t.elapsed().as_secs_f64()
}

/// The fastest of some host times.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One pass of the workload: set-up, the timed call, the check.
struct Pass {
    inputs: Inputs,
    machine: Machine,
    out: Output,
    summary: Summary,
    /// Set-up and timed-call host seconds.
    setup_s: f64,
    host_s: f64,
    arena_bytes: u64,
}

fn arena_remaining(machine: &mut Machine) -> u64 {
    match machine {
        Machine::Sys { sys, .. } => sys.alloc().remaining(),
        Machine::Grid { .. } => 0,
    }
}

fn setup(args: &Args, spans: &mut Spans, run: u32, trace: Option<usize>) -> (Inputs, Machine, f64) {
    let s = spans.open("setup", run);
    let g = spans.open("generate_inputs", run);
    let inputs = Inputs::generate(args.kind, args.seed);
    spans.close(g);
    let b = spans.open("build_facade", run);
    let machine = Machine::build(&inputs, args.seed, trace);
    spans.close(b);
    let secs = spans.close(s);
    (inputs, machine, secs)
}

fn pass(args: &Args, spans: &mut Spans, run: u32, trace: Option<usize>) -> Pass {
    let whole = spans.open(
        if trace.is_some() {
            "traced_pass"
        } else {
            "pass"
        },
        run,
    );
    let (inputs, mut machine, setup_s) = setup(args, spans, run, trace);
    let before = arena_remaining(&mut machine);
    let c = spans.open("timed_call", run);
    let out = workloads::run(&inputs, &mut machine);
    let host_s = spans.close(c);
    let arena_bytes = before - arena_remaining(&mut machine);
    let k = spans.open("check", run);
    let summary = workloads::summarize(&inputs, &machine, &out);
    spans.close(k);
    spans.close(whole);
    Pass {
        inputs,
        machine,
        out,
        summary,
        setup_s,
        host_s,
        arena_bytes,
    }
}

/// What a run reports on its last line.
struct Verdict {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Verdict {
    fn new() -> Verdict {
        Verdict {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    fn fail(&mut self, why: &str) {
        println!("# ERROR: {why}");
        self.correct = false;
    }

    /// Books one pass's outcome; `reference` is the digest every pass of
    /// this seed must reproduce.
    fn book(&mut self, kind: Kind, p: &Pass, reference: u64) {
        let s = &p.summary;
        self.attempted += s.attempted;
        self.failed += s.shed + s.wrong;
        if let Some(w) = &s.first_wrong {
            self.fail(&format!("{} wrong results, first: {w}", s.wrong));
        }
        if s.completed + s.shed != s.attempted || s.attempted != kind.attempted() as u64 {
            self.fail(&format!(
                "{} attempted, {} completed, {} shed",
                s.attempted, s.completed, s.shed
            ));
        }
        if s.digest != reference {
            self.fail(&format!(
                "sim_digest {:016x} differs from {reference:016x} on the same seed",
                s.digest
            ));
        }
        let counts = Counts::collect(&p.inputs, &p.machine, &p.out, &[], p.arena_bytes);
        for v in counts.prediction_violations(kind, false) {
            self.fail(&v);
        }
    }

    fn print(&self) {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn print_service(kind: Kind, s: &Summary) {
    let (pct, t) = tail(&s.latencies);
    println!(
        "# {}: {} attempted, {} completed, {} shed, {} wrong; failed_frac {}",
        kind.name(),
        s.attempted,
        s.completed,
        s.shed,
        s.wrong,
        (s.shed + s.wrong) as f64 / s.attempted as f64
    );
    println!(
        "# sim_qps {:.1}  sim_p50_us {:.3}  sim_tail_us {:.3} = p{pct} of {} completed",
        s.sim_qps,
        percentile(&s.latencies, 50).as_us_f64(),
        t.as_us_f64(),
        s.latencies.len()
    );
    println!("# sim_digest {:016x}", s.digest);
}

fn untraced(args: &Args, spans: &mut Spans, v: &mut Verdict) {
    let budget = Duration::from_secs(args.seconds);
    let begin = Instant::now();
    // Per pass, at the reference speed: the timed call and the median
    // set-up; and as measured, the timed call.
    let (mut timed, mut setups, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Summary> = None;
    let mut peak = None;
    let mut run = 0u32;
    let mut ref_before = reference_s();
    while timed.len() < MIN_RUNS || begin.elapsed() < budget {
        let p = pass(args, spans, run, None);
        let reference = first.as_ref().map_or(p.summary.digest, |f| f.digest);
        v.book(args.kind, &p, reference);
        // The first pass's peak, before the set-up batches and reference
        // loops interleave their allocations with the program's.
        peak.get_or_insert_with(peak_rss_mb);
        run += 1;
        // Extra set-ups right after the pass, under the same load.
        let mut batch = vec![p.setup_s];
        let until = Duration::from_secs_f64(SETUP_SHARE * (p.setup_s + p.host_s));
        let b = Instant::now();
        while batch.len() < 2 || b.elapsed() < until {
            let (_, machine, secs) = setup(args, spans, run, None);
            drop(machine);
            batch.push(secs);
            run += 1;
        }
        let ref_after = reference_s();
        let speed = 2.0 * REF_S / (ref_before + ref_after);
        ref_before = ref_after;
        println!(
            "# run {run}: setup {:.6} s, timed {:.6} s as measured; x {speed:.4} to the reference speed",
            p.setup_s, p.host_s
        );
        timed.push(p.host_s * speed);
        setups.push(median(&mut batch) * speed);
        raw.push(p.host_s);
        first.get_or_insert(p.summary);
    }
    let s = first.expect("at least one run");
    print_service(args.kind, &s);
    println!(
        "# {} passes: timed call {:.6} s at the reference speed; as measured fastest {:.6} s, median {:.6} s",
        timed.len(),
        median(&mut timed.clone()),
        fastest(&raw),
        median(&mut raw.clone())
    );
    let (_, tail_t) = tail(&s.latencies);
    v.metrics = vec![
        ("setup_s", median(&mut setups), "s"),
        ("host_qps", s.completed as f64 / median(&mut timed), "1/s"),
        ("peak_rss_mb", peak.unwrap_or_default(), "MiB"),
        ("sim_qps", s.sim_qps, "1/s"),
        ("sim_p50_us", percentile(&s.latencies, 50).as_us_f64(), "us"),
        ("sim_tail_us", tail_t.as_us_f64(), "us"),
        (
            "served_frac",
            (s.completed - s.wrong.min(s.completed)) as f64 / s.attempted as f64,
            "ratio",
        ),
    ];
    for (name, value, _) in v.metrics.clone() {
        if !(value.is_finite() && value > 0.0) {
            v.fail(&format!(
                "{name} = {value}: an end-to-end metric is never 0"
            ));
        }
    }
}

fn traced(args: &Args, spans: &mut Spans, v: &mut Verdict) {
    // The attribution divides by the fastest untraced pass; one pass runs
    // per probe round, so both minima come from the same stretch of time.
    let plain = pass(args, spans, 0, None);
    v.book(args.kind, &plain, plain.summary.digest);
    let mut prober = Prober::new(&plain.inputs, args.seed, args.seconds);
    prober.round(spans, 0);
    let mut host = vec![plain.host_s];
    for run in 1..probes::ROUNDS as u32 {
        let p = pass(args, spans, run, None);
        v.book(args.kind, &p, plain.summary.digest);
        host.push(p.host_s);
        prober.round(spans, run);
    }
    let p = prober.finish();
    let t = pass(args, spans, probes::ROUNDS as u32, Some(TRACE_RING));
    // Tracing only observes: the traced pass must reproduce the untraced
    // digest exactly.
    v.book(args.kind, &t, plain.summary.digest);
    print_service(args.kind, &t.summary);
    let events = match &t.machine {
        Machine::Sys { sys, .. } => sys.trace_events(),
        Machine::Grid { ring, .. } => ring
            .as_ref()
            .map(|r| r.borrow().snapshot())
            .unwrap_or_default(),
    };
    let c = Counts::collect(&t.inputs, &t.machine, &t.out, &events, t.arena_bytes);
    drop(events);
    drop(t.machine);
    for why in c.prediction_violations(args.kind, true) {
        v.fail(&why);
    }
    if c.trace_dropped > 0 {
        v.fail(&format!(
            "trace.dropped = {}: every count read from the ring is wrong",
            c.trace_dropped
        ));
    }
    let a = Attribution::new(&c, &p, fastest(&host));
    a.print();
    println!(
        "# peak_rss_mb (traced run, informational) {:.1}",
        peak_rss_mb()
    );
    v.metrics = layers::per_layer_metrics(&c, &p, &a, t.host_s);
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new();
    let mut verdict = Verdict::new();
    if args.trace {
        traced(&args, &mut spans, &mut verdict);
    } else {
        untraced(&args, &mut spans, &mut verdict);
    }
    let dir = std::path::Path::new(".bench_trace");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, spans.to_json()))
    {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
    verdict.print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric listed in one section of
    /// `BENCHMARK.json`, in order.
    fn listed(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let body = json
            .split(&format!("\"{section}\""))
            .nth(1)
            .expect("section");
        let body = body.split(']').next().expect("array");
        let field = |line: &str, key: &str| {
            let rest = line.trim().strip_prefix(&format!("\"{key}\": \""))?;
            Some(rest.split('"').next()?.to_string())
        };
        let names = body.lines().filter_map(|l| field(l, "name"));
        let units = body.lines().filter_map(|l| field(l, "unit"));
        names.zip(units).collect()
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let c = Counts::default();
        let p = probes::Probes::default();
        let a = Attribution::new(&c, &p, 1.0);
        let printed: Vec<(String, String)> = layers::per_layer_metrics(&c, &p, &a, 1.0)
            .into_iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(printed, listed("per_layer"));
    }

    #[test]
    fn end_to_end_names_match_benchmark_json() {
        let names: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "host_qps",
                "peak_rss_mb",
                "sim_qps",
                "sim_p50_us",
                "sim_tail_us",
                "served_frac"
            ]
        );
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let ticks = |n: u64| (1..=n).map(Tick::from_ns).collect::<Vec<_>>();
        assert_eq!(tail(&ticks(1024)).0, 99);
        assert_eq!(tail(&ticks(960)).0, 98);
        assert_eq!(tail(&ticks(48)).0, 79);
        assert_eq!(tail(&ticks(22)).0, 54);
        assert_eq!(tail(&ticks(5)), (100, Tick::from_ns(5)));
    }
}
