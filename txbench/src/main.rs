//! `camelot-txbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path txbench/Cargo.toml -- \
//!     --workload dist_udp --seed 1 --seconds 8 --trace 0
//! ```
//!
//! Runs one workload open-loop at a fixed offered rate against three
//! sites with file-backed logs, checks durability and state after
//! shutdown and recovery, and prints every metric by name with its
//! unit. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the workload twice for
//! half of `--seconds` each (once untraced as the overhead baseline,
//! once traced) and reports the per-layer metrics. Exits 1 if the
//! correctness gate fails and 2 on bad arguments. Scratch files live
//! under `.txbench/` in the working directory and are removed at the
//! end.

mod check;
mod layers;
mod replay;
mod spans;
mod stats;
mod system;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use camelot_net::TransportStats;
use camelot_rt::{ClusterStats, TraceEvent};

use check::{History, Status, Verdict};
use spans::{Span, Tracing};
use system::{rt_config, System, SITES};
use workload::{generate, paced, preload, Arrival, Phase, TxnSpec, Workload, WORKLOADS};

const USAGE: &str = "usage: camelot-txbench --workload local_rmw|dist_udp|hot_mix_queued \
                     --seed N --seconds N --trace 0|1";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().find(|w| w.name == v).ok_or_else(bad)?)
            }
            "--seed" => seed = Some(v.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(v.parse::<u64>().map_err(|_| bad())?.max(1)),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// A reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one run of a workload produced.
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub phase: Phase,
    pub before: ClusterStats,
    pub after: ClusterStats,
    pub net_before: TransportStats,
    pub net_after: TransportStats,
    pub log_bytes: u64,
    pub quiesced: bool,
    pub verdict: Verdict,
    pub events: Vec<TraceEvent>,
    pub trace_dropped: u64,
    pub spans: Vec<Span>,
    pub log_dir: PathBuf,
    pub udp: bool,
}

impl Pass {
    pub fn commits(&self) -> u64 {
        self.phase.commits()
    }

    pub fn attempted(&self) -> u64 {
        self.phase.arrivals.len() as u64
    }

    fn ok(&self) -> bool {
        self.quiesced && self.verdict.ok()
    }

    pub fn cpu_us_per_commit(&self) -> f64 {
        self.phase.cpu_us_per_commit()
    }
}

struct PassOpts {
    trace: bool,
    /// Set-ups and rebuilds each repeat at least this many times, and
    /// then until their budget is spent, at most 40× as many.
    reps: usize,
    /// More set-ups steady the median of a set-up that takes only a
    /// few milliseconds.
    setup_budget: Duration,
    /// Rebuild samples spread over this long catch the host at its
    /// quieter moments, which the fastest rebuild then reflects.
    rebuild_budget: Duration,
}

/// Whether to take another sample: at least `reps`, then more until
/// `budget` has passed since `started`, at most `40 * reps`.
fn more(done: usize, reps: usize, started: Instant, budget: Duration) -> bool {
    done < reps || (started.elapsed() < budget && done < 40 * reps)
}

/// Sets the system up (repeatedly, keeping the last), runs the paced
/// phase, checks state, shuts down, and rebuilds the system on the
/// same logs (repeatedly), checking state after each rebuild.
fn run_pass(w: &Workload, specs: &[TxnSpec], dir: &Path, opts: PassOpts) -> Pass {
    let tracing = opts.trace.then(|| Arc::new(Tracing::new(Instant::now())));
    let mut setup_s = Vec::new();
    let setups_started = Instant::now();
    let sys = loop {
        let d = dir.join(format!("setup-{}", setup_s.len()));
        let t0 = Instant::now();
        let s = System::start(w.shape, rt_config(&d, w.exec, opts.trace), tracing.clone());
        preload(&s, w.keys_per_site);
        setup_s.push(t0.elapsed().as_secs_f64());
        if !more(setup_s.len(), opts.reps, setups_started, opts.setup_budget) {
            break s;
        }
        s.shutdown();
        let _ = std::fs::remove_dir_all(&d);
    };
    let udp = sys.is_udp();
    let log_dir = sys.dir.clone();
    if opts.trace {
        // Set-up traffic is not part of the measured phase.
        drop(sys.drain_trace());
    }
    let (before, net_before, log0) = (sys.stats(), sys.transport_stats(), sys.log_bytes());
    let drained = Mutex::new(Vec::new());
    let phase = paced(&sys, specs, w.rate, tracing.as_deref(), &drained);
    let mut quiesced = sys.quiesce(Duration::from_secs(30));
    let (after, net_after) = (sys.stats(), sys.transport_stats());
    let log_bytes = sys.log_bytes() - log0;
    let mut events = drained.into_inner().expect("drain buffer poisoned");
    events.extend(sys.drain_trace());
    let trace_dropped = sys.trace_dropped();

    let mut history = History::default();
    let keys: Vec<(u32, u64)> = (1..=SITES)
        .flat_map(|s| (0..w.keys_per_site).map(move |k| (s, k)))
        .collect();
    for &(s, k) in &keys {
        history.add(s, k, None, 0, 0, Status::Committed);
    }
    for (i, (spec, a)) in specs.iter().zip(&phase.arrivals).enumerate() {
        if a.ran {
            for (s, k) in spec.writes() {
                history.add(s, k, Some(i as u64), a.release_ns, a.end_ns, a.status);
            }
        }
    }
    let mut verdict = Verdict::default();
    let snapshot: Vec<Vec<u8>> = keys
        .iter()
        .map(|&(s, k)| sys.committed_value(s, k))
        .collect();
    for (&(s, k), v) in keys.iter().zip(&snapshot) {
        verdict.note(history.check_key(s, k, v));
    }
    sys.shutdown();

    let mut recovery_s = Vec::new();
    let started = Instant::now();
    while more(recovery_s.len(), opts.reps, started, opts.rebuild_budget) {
        let t0 = Instant::now();
        let s = System::start(w.shape, rt_config(&log_dir, w.exec, false), None);
        recovery_s.push(t0.elapsed().as_secs_f64());
        // A rebuilt system commits nothing new, so no delayed commit
        // record waits for a lazy flush.
        quiesced &= s.idle(Duration::from_secs(30));
        for (&(site, key), v) in keys.iter().zip(&snapshot) {
            let got = s.committed_value(site, key);
            verdict.note(if &got == v {
                Ok(())
            } else {
                Err(format!(
                    "site {site} key {key}: recovered {:?}, before shutdown {:?}",
                    String::from_utf8_lossy(&got),
                    String::from_utf8_lossy(v)
                ))
            });
        }
        s.shutdown();
    }
    let spans = tracing.map(|t| t.take()).unwrap_or_default();
    Pass {
        setup_s,
        recovery_s,
        phase,
        before,
        after,
        net_before,
        net_after,
        log_bytes,
        quiesced,
        verdict,
        events,
        trace_dropped,
        spans,
        log_dir,
        udp,
    }
}

/// The end-to-end metrics of an untraced pass, plus diagnostics that
/// are printed but not gated.
fn end_to_end(p: &Pass) -> (Vec<Metric>, Vec<Metric>) {
    let us = |ns: u64| ns as f64 / 1e3;
    let txn_us = |a: &Arrival| match a.status {
        Status::Committed => us(a.end_ns - a.due_ns),
        Status::NotCommitted => f64::INFINITY,
    };
    // Each latency figure is taken per window; the run reports its
    // lower quartile over the windows the host left quiet.
    let quiet = p.phase.quiet();
    let per_window = |f: &dyn Fn(&[Arrival]) -> f64| -> Vec<f64> {
        p.phase
            .windows()
            .zip(&quiet)
            .filter(|(_, &q)| q)
            .map(|(w, _)| f(w))
            .collect()
    };
    let txn_pct = |q: f64| {
        per_window(&|w: &[Arrival]| {
            stats::percentile(&stats::sorted(w.iter().map(txn_us).collect()), q)
        })
    };
    let txn_p50 = txn_pct(0.5);
    let commit_p50 = per_window(&|w: &[Arrival]| {
        stats::median(
            w.iter()
                .filter(|a| a.status == Status::Committed)
                .map(|a| us(a.commit_ns))
                .collect(),
        )
    });
    println!(
        "samples steal_pct per window = {:?}",
        p.phase.window_steal_pct
    );
    let (cpu, cpu_us_per_commit) = p.phase.quiet_cpu_us_per_commit();
    println!("samples txn_p50_us per quiet window = {txn_p50:?}");
    println!("samples commit_p50_us per quiet window = {commit_p50:?}");
    println!("samples cpu_us_per_commit per quiet window = {cpu:?}");
    let gated = vec![
        metric("txn_p50_us", stats::over_windows(txn_p50), "us"),
        metric("commit_p50_us", stats::over_windows(commit_p50), "us"),
        metric("setup_s", stats::median(p.setup_s.clone()), "s"),
        // Rebuilding from a given log is fixed work that host noise
        // can only slow down, so the fastest rebuild is the estimate.
        metric(
            "recovery_s",
            p.recovery_s.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        metric(
            "log_bytes_per_commit",
            p.log_bytes as f64 / p.commits().max(1) as f64,
            "bytes",
        ),
    ];
    let failed = p.attempted() - p.commits();
    let all = stats::sorted(p.phase.arrivals.iter().map(txn_us).collect());
    println!("samples setup_s = {:?}", p.setup_s);
    println!("samples recovery_s = {:?}", p.recovery_s);
    let diagnostic = vec![
        // Host CPU contention moves it more than the gates allow; it is
        // a per-layer metric of the traced run instead.
        metric("cpu_us_per_commit", cpu_us_per_commit, "us"),
        metric(
            "fail_ratio",
            failed as f64 / p.attempted().max(1) as f64,
            "ratio",
        ),
        metric("txn_p90_us", stats::over_windows(txn_pct(0.9)), "us"),
        metric("txn_p50_all_us", stats::percentile(&all, 0.5), "us"),
        metric("txn_p90_all_us", stats::percentile(&all, 0.9), "us"),
        metric("txn_p99_all_us", stats::percentile(&all, 0.99), "us"),
        metric("commits", p.commits() as f64, "count"),
        metric("gen.late_p99_us", layers::late_p99_us(p), "us"),
        metric("gen.cpu_us_per_txn", layers::gen_cpu_us_per_txn(p), "us"),
        metric("host.steal_pct", p.phase.steal_pct, "%"),
        metric(
            "quiet_windows",
            quiet.iter().filter(|&&q| q).count() as f64,
            "count",
        ),
        metric("cpu_us_per_commit_all", p.cpu_us_per_commit(), "us"),
    ];
    (gated, diagnostic)
}

fn print_metrics(tag: &str, ms: &[Metric]) {
    for m in ms {
        println!("{tag} {} = {} {}", m.name, m.value, m.unit);
    }
}

fn json_number(v: f64) -> String {
    // A percentile past every success is +inf; JSON has no infinity.
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e18".to_string()
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, ms: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in ms.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn report_verdict(name: &str, p: &Pass) {
    println!(
        "check {name}: {} key states checked, {} mismatches, quiesced={}",
        p.verdict.checked, p.verdict.mismatches, p.quiesced
    );
    for e in &p.verdict.first {
        println!("check {name}: MISMATCH {e}");
        eprintln!("txbench: {name}: {e}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("txbench: {e}\n{USAGE}");
        exit(2);
    });
    let w = args.workload;
    // A traced run measures two passes; each takes half the time, so a
    // traced run lasts about as long as an untraced one.
    let seconds = if args.trace {
        args.seconds.div_ceil(2)
    } else {
        args.seconds
    };
    let n = (w.rate * seconds as f64).round() as u64;
    let specs = generate(w, args.seed, n);
    let root = PathBuf::from(".txbench");
    let work = root.join(format!("{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create scratch directory");
    println!(
        "config workload={} shape={:?} exec={:?} sites={SITES} keys_per_site={} \
         rate={}/s seconds={} arrivals={n} seed={} trace={} log=FileStore(fdatasync) \
         platter_delay=0 datagram_delay=0 other RtConfig fields default; generator threads={}",
        w.name,
        w.shape,
        w.exec,
        w.keys_per_site,
        w.rate,
        seconds,
        args.seed,
        args.trace,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(2),
    );

    let (correct, attempted, failed, metrics) = if !args.trace {
        let opts = PassOpts {
            trace: false,
            reps: 5,
            setup_budget: Duration::from_secs(3),
            rebuild_budget: Duration::from_secs(14),
        };
        let p = run_pass(w, &specs, &work.join("e2e"), opts);
        report_verdict("e2e", &p);
        let (gated, diag) = end_to_end(&p);
        print_metrics("metric", &gated);
        print_metrics("diagnostic", &diag);
        (p.ok(), p.attempted(), p.attempted() - p.commits(), gated)
    } else {
        let base_opts = PassOpts {
            trace: false,
            reps: 1,
            setup_budget: Duration::ZERO,
            rebuild_budget: Duration::ZERO,
        };
        let base = run_pass(w, &specs, &work.join("base"), base_opts);
        report_verdict("untraced", &base);
        let (gated, diag) = end_to_end(&base);
        print_metrics("untraced", &gated);
        print_metrics("untraced", &diag);
        let traced_opts = PassOpts {
            trace: true,
            reps: 1,
            setup_budget: Duration::ZERO,
            rebuild_budget: Duration::ZERO,
        };
        let traced = run_pass(w, &specs, &work.join("traced"), traced_opts);
        report_verdict("traced", &traced);
        let replay_tracing = Tracing::new(Instant::now());
        let group = layers::records_per_force(&traced).round().max(1.0) as usize;
        replay::replay(
            &traced.log_dir.join("site-1.log"),
            &work.join("replay.log"),
            group,
            &replay_tracing,
        )
        .expect("replay the workload's log records");
        let replay_spans = replay_tracing.take();
        let spans_out = root.join(format!("spans-{}.jsonl", w.name));
        let mut all_spans = traced.spans.clone();
        all_spans.extend(replay_spans.iter().cloned());
        std::fs::write(&spans_out, spans::to_jsonl(&all_spans)).expect("write spans");
        println!("spans written to {}", spans_out.display());
        let per_layer = layers::per_layer(&base, &traced, &replay_spans);
        for m in &per_layer {
            println!(
                "layer {} = {} {}  [{}]",
                m.name,
                m.value,
                m.unit,
                layers::moves(&m.name)
            );
        }
        let valid = traced.trace_dropped == 0;
        if !valid {
            println!(
                "INVALID traced run: {} trace events dropped",
                traced.trace_dropped
            );
        }
        (
            base.ok() && traced.ok() && valid,
            traced.attempted(),
            traced.attempted() - traced.commits(),
            per_layer,
        )
    };
    let _ = std::fs::remove_dir_all(&work);
    if !correct {
        println!("correctness gate FAILED for {}", w.name);
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let a = parse_args(&argv("--workload dist_udp --seed 9 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("dist_udp", 9, 5, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload local_rmw --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload local_rmw --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn result_line_shape() {
        let ms = [metric("a_us", 1.5, "us"), metric("b", f64::INFINITY, "us")];
        assert_eq!(
            result_json(true, 10, 1, &ms),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"a_us\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 1e18, \"unit\": \"us\"}}}"
        );
    }

    /// Every metric BENCHMARK.json names is one this program emits.
    #[test]
    fn benchmark_json_names_match() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let mut emitted = layers::names();
        emitted.extend(
            [
                "txn_p50_us",
                "commit_p50_us",
                "setup_s",
                "recovery_s",
                "log_bytes_per_commit",
            ]
            .map(String::from),
        );
        for part in text.split("\"name\": \"").skip(1) {
            let name = &part[..part.find('"').unwrap()];
            if WORKLOADS.iter().any(|w| w.name == name) {
                continue;
            }
            assert!(emitted.iter().any(|e| e == name), "{name} is not emitted");
        }
    }
}
