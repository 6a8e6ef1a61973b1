//! `camelot-load`: open-loop contention harness for the two execution
//! modes.
//!
//! The closed-loop benches (`fig4`, `rt_scaling`) self-throttle: each
//! client waits for its transaction before issuing the next, so past
//! the saturation knee the *offered* load silently drops and the
//! latency blow-up never shows. This harness drives the real-thread
//! runtime **open-loop** through the shared ladder driver
//! ([`camelot_bench::driver`]): transaction `i` of a run at rate λ is
//! due at `start + i/λ` no matter how the previous ones fared, keys
//! come from a seeded Zipfian distribution, and latency is measured
//! from the *scheduled* arrival.
//!
//! For each execution mode ([`ExecMode::LockBased`] and
//! [`ExecMode::Queued`]) the harness sweeps a ladder of offered rates
//! on a 2-site in-process cluster and reports, per point, the driver's
//! outcome counts, latency percentiles and **commit-overhead %**, plus
//! this binary's own lock-manager and shard-queue counters and
//! per-protocol commit latencies. Results land in
//! `BENCH_load_curves.json` at the workspace root, stamped with the git
//! SHA and a config hash, with the queued/lock-based saturation ratio.
//!
//! After the sweep, the protocol-cost auditor replays one clean traced
//! transaction per protocol *in queued mode* and checks the paper's
//! primitive budgets still hold — queueing must change where time
//! goes, never how many forces and datagrams the protocol costs. A
//! violation exits 1.
//!
//! Usage: `cargo run --release --bin camelot-load -- [--mode
//! queued|lock|both] [--rates 100,200,400] [--theta 0.99] [--keys 256]
//! [--duration-ms 4000] [--read-pct 40] [--dist-pct 20] [--nb-pct 10]
//! [--seed 7] [--out PATH]`. `QUICK=1` shrinks the ladder for CI.

use std::time::Duration as StdDuration;

use camelot_bench::audit::protocol_audit;
use camelot_bench::driver::{hist_json, InprocSession, Ladder, LadderArgs, Point};
use camelot_bench::quick;
use camelot_rt::{Cluster, ExecMode, Histogram, Phase, RtConfig};

const SITES: u32 = 2;
const TM_THREADS: usize = 4;

const LADDER: Ladder = Ladder {
    bench: "load_curves",
    kind: "mode",
    file: "BENCH_load_curves.json",
    workers: (16, 128),
};

#[derive(Debug, Clone)]
struct Args {
    modes: Vec<ExecMode>,
    ladder: LadderArgs,
}

impl Args {
    fn defaults(quick: bool) -> Args {
        Args {
            modes: vec![ExecMode::LockBased, ExecMode::Queued],
            ladder: if quick {
                LadderArgs::new(vec![50.0, 150.0], 256, 1000)
            } else {
                LadderArgs::new(vec![100.0, 200.0, 400.0, 800.0, 1600.0], 256, 4000)
            },
        }
    }

    fn parse() -> Args {
        let mut args = Args::defaults(quick());
        let modes = &mut args.modes;
        args.ladder.parse(|flag, val| {
            if flag != "--mode" {
                return false;
            }
            *modes = match val {
                "queued" => vec![ExecMode::Queued],
                "lock" | "lock_based" => vec![ExecMode::LockBased],
                "both" => vec![ExecMode::LockBased, ExecMode::Queued],
                other => panic!("unknown --mode {other}"),
            };
            true
        });
        args
    }

    /// Canonical config rendering, hashed into the stamp.
    fn config_text(&self) -> String {
        format!(
            "sites={SITES} tm_threads={TM_THREADS} {}",
            self.ladder.config_text()
        )
    }
}

fn rt_config(mode: ExecMode) -> RtConfig {
    RtConfig {
        datagram_delay: StdDuration::from_micros(100),
        platter_delay: StdDuration::from_millis(2),
        lazy_flush: StdDuration::from_millis(10),
        tm_threads: TM_THREADS,
        tm_service_time: StdDuration::from_micros(50),
        call_timeout: StdDuration::from_secs(2),
        exec_mode: mode,
        data_shards: 4,
        queued_vote_timeout: StdDuration::from_millis(500),
        ..RtConfig::default()
    }
}

/// Per-protocol commit-latency percentiles from the run's protocol-
/// keyed phase histograms (one mixed workload, broken out by the
/// Tables 1–3 protocol actually run).
fn proto_json(cluster: &Cluster) -> String {
    let snap = cluster.stats().protocol_phases();
    let mut parts = Vec::new();
    for (proto, phases) in snap.non_empty() {
        let mut merged = Histogram::default();
        merged.merge(phases.get(Phase::Commit2pc));
        merged.merge(phases.get(Phase::CommitNb));
        if merged.is_empty() {
            continue;
        }
        parts.push(format!("\"{}\": {}", proto.name(), hist_json(&merged)));
    }
    format!("{{{}}}", parts.join(", "))
}

/// One (mode, rate) point: build a cluster, run the ladder point on
/// it, and append the lock, queue and trace counters.
fn run_point(args: &LadderArgs, mode: ExecMode, rate: f64) -> Point {
    let cluster = Cluster::new(SITES, rt_config(mode));
    let mut p = LADDER.run_point(args, SITES, rate, || InprocSession::new(&cluster, SITES));
    let stats = cluster.stats();
    let servers = stats.total_server_stats();
    // Trace-ring drops across all sites: nonzero means the point's
    // protocol trace is incomplete and any audit over it is unsound.
    let trace_dropped = stats.total_trace_dropped();
    if trace_dropped > 0 {
        println!("  warning: {trace_dropped} trace events dropped at {rate}/s (rings too small)");
    }
    p.extra_json = format!(
        "\"lock_wait_ms\": {:.1}, \"server_lock_waits\": {}, \"deadlocks\": {}, \
         \"queue_ops\": {}, \"queue_vote_timeouts\": {}, \"queue_cascades\": {}, \
         \"queue_wait_p95_us\": {}, \"trace_dropped\": {}, \"protocol_phases\": {}",
        stats.total_lock_wait().as_secs_f64() * 1e3,
        servers.lock_waits,
        servers.deadlocks,
        stats.sites.iter().map(|s| s.queue_ops).sum::<u64>(),
        stats
            .sites
            .iter()
            .map(|s| s.queue_vote_timeouts)
            .sum::<u64>(),
        stats.sites.iter().map(|s| s.queue_cascades).sum::<u64>(),
        stats.phases().get(Phase::QueueWait).percentile(95.0),
        trace_dropped,
        proto_json(&cluster),
    );
    cluster.shutdown();
    p
}

fn main() {
    let args = Args::parse();
    let l = &args.ladder;
    println!(
        "camelot-load: open-loop, zipf theta={} over {} keys, {} ms per point, \
         mix {}% read-only / {}% distributed updates / {}% non-blocking",
        l.theta, l.keys, l.duration_ms, l.read_pct, l.dist_pct, l.nb_pct
    );
    let curves = LADDER.sweep(l, &args.modes, ExecMode::name, |mode, rate| {
        run_point(l, mode, rate)
    });

    // The headline ratio: queued vs lock-based saturation throughput.
    let sat_of = |m: ExecMode| {
        curves
            .iter()
            .find(|c| c.name == m.name())
            .map(|c| c.saturation)
    };
    let ratio = match (sat_of(ExecMode::Queued), sat_of(ExecMode::LockBased)) {
        (Some(q), Some(l)) if l > 0.0 => {
            let r = q / l;
            println!("\nqueued/lock_based saturation ratio: {r:.2}x");
            format!("{r:.2}")
        }
        _ => "null".to_string(),
    };

    println!("\nprotocol-cost audit on queued-mode traces:");
    let (audit, violated) = protocol_audit(&RtConfig {
        exec_mode: ExecMode::Queued,
        data_shards: 4,
        ..RtConfig::default()
    });

    LADDER.write(
        l,
        &args.config_text(),
        &format!("\"sites\": {SITES}, \"tm_threads\": {TM_THREADS}"),
        &curves,
        &[
            ("queued_over_lock_saturation", ratio),
            ("queued_audit", audit),
        ],
    );
    if violated {
        eprintln!("protocol-cost audit failed on queued-mode traces");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_scope::config_hash;

    #[test]
    fn default_configs_hash_to_the_committed_stamps() {
        // BENCH_load_curves.json records the full ladder.
        assert_eq!(
            config_hash(&Args::defaults(false).config_text()),
            "2fafc5e734c3c83c"
        );
        assert_eq!(
            config_hash(&Args::defaults(true).config_text()),
            "5f76b69f560dae1c"
        );
    }
}
