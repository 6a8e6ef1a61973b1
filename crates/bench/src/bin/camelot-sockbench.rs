//! `camelot-sockbench`: the `camelot-load` open-loop offered-rate
//! ladder, run by the same driver ([`camelot_bench::driver`]) against
//! three deployments of the same protocol stack:
//!
//! - **inproc** — the in-process real-thread runtime (`camelot-rt`
//!   `Cluster`), where inter-site datagrams are channel handoffs;
//! - **udp** — a localhost cluster of `camelot-site` OS processes
//!   moving datagrams over kernel UDP sockets (with the transport's
//!   reliable-channel machinery);
//! - **tcp** — the same cluster over framed TCP streams.
//!
//! Every transport sees the *same* seeded workload, paced open-loop so
//! backlog counts against the system, and reports saturation
//! throughput plus p50/p95/p99 total and commit latency per offered
//! rate. The gap between inproc and the socket rows is the paper's
//! conclusion-5 quantity made concrete for this codebase: the
//! serialization + syscall + kernel-buffering tax of real transports
//! (plus, for the socket rows, the control-plane round trips the
//! multi-process deployment needs to drive operations at all —
//! `commit_latency` is the cleaner cross-deployment comparison since
//! it brackets exactly one control round trip around the distributed
//! commit).
//!
//! Socket rows also snapshot each site's `TransportStats` (sends,
//! send failures, reconnects, queue drops/depths), so a ladder that
//! saturates shows *where* it saturated, and attach a critical-path
//! attribution of the point's commits from the merged cluster trace.
//!
//! Results land in `BENCH_socket.json`, stamped with git SHA + config
//! hash, with the collector's scrape series of every socket point in
//! `BENCH_socket_scrape.jsonl`. `QUICK=1` shrinks everything for CI
//! smoke. The `camelot-site` binary is found next to this one
//! (override with `CAMELOT_SITE_BIN`).
//!
//! Usage: `cargo run --release --bin camelot-sockbench --
//! [--transports inproc,udp,tcp] [--sites 3] [--rates 100,200,400]
//! [--theta 0.99] [--keys 64] [--duration-ms 3000] [--read-pct 40]
//! [--dist-pct 20] [--nb-pct 10] [--seed 7] [--out PATH]`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use camelot_bench::driver::{InprocSession, Ladder, LadderArgs, Point, SocketSession};
use camelot_bench::quick;
use camelot_net::TransportStats;
use camelot_node::procs::{
    distribute_peers, fast_engine, sibling_site_bin, wait_quiesce, SiteProc, SpawnSpec,
};
use camelot_rt::{Cluster, RtConfig};
use camelot_scope::{attribute, merge_skew_aware, parse_jsonl, Collector, ScrapeTarget};
use camelot_types::SiteId;

const LADDER: Ladder = Ladder {
    bench: "socket_transports",
    kind: "transport",
    file: "BENCH_socket.json",
    workers: (8, 64),
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    Inproc,
    Udp,
    Tcp,
}

impl Transport {
    fn name(self) -> &'static str {
        match self {
            Transport::Inproc => "inproc",
            Transport::Udp => "udp",
            Transport::Tcp => "tcp",
        }
    }

    fn parse(s: &str) -> Option<Transport> {
        match s {
            "inproc" => Some(Transport::Inproc),
            "udp" => Some(Transport::Udp),
            "tcp" => Some(Transport::Tcp),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct Args {
    transports: Vec<Transport>,
    sites: u32,
    ladder: LadderArgs,
}

impl Args {
    fn defaults(quick: bool) -> Args {
        Args {
            transports: vec![Transport::Inproc, Transport::Udp, Transport::Tcp],
            sites: if quick { 2 } else { 3 },
            ladder: if quick {
                LadderArgs::new(vec![30.0, 60.0], 64, 800)
            } else {
                LadderArgs::new(vec![100.0, 200.0, 400.0, 600.0, 800.0], 64, 3000)
            },
        }
    }

    fn parse() -> Args {
        let mut args = Args::defaults(quick());
        let (transports, sites) = (&mut args.transports, &mut args.sites);
        args.ladder.parse(|flag, val| {
            match flag {
                "--transports" => {
                    *transports = val
                        .split(',')
                        .map(|t| Transport::parse(t).unwrap_or_else(|| panic!("transport {t}")))
                        .collect()
                }
                "--sites" => *sites = val.parse().expect("sites"),
                _ => return false,
            }
            true
        });
        assert!(args.sites >= 2, "need at least 2 sites");
        args
    }

    fn config_text(&self) -> String {
        format!(
            "sites={} {} transports={:?}",
            self.sites,
            self.ladder.config_text(),
            self.transports
        )
    }
}

/// Inproc runtime config: identical engine/WAL/server shape to the
/// site processes (which run `--fast`), but datagrams cost nothing
/// beyond the channel handoff — that zero is exactly the baseline the
/// socket rows are measured against.
fn inproc_config() -> RtConfig {
    RtConfig {
        datagram_delay: StdDuration::ZERO,
        call_timeout: StdDuration::from_secs(2),
        trace: true,
        engine: fast_engine(),
        ..RtConfig::default()
    }
}

/// One point against the in-process runtime.
fn run_point_inproc(args: &Args, rate: f64) -> Point {
    let cluster = Cluster::new(args.sites, inproc_config());
    let mut p = LADDER.run_point(&args.ladder, args.sites, rate, || {
        InprocSession::new(&cluster, args.sites)
    });
    cluster.shutdown();
    p.extra_json = "\"transport\": null, \"scope\": null".to_string();
    p
}

/// One point against a freshly spawned cluster of site processes.
/// Also returns the scrape snapshots taken on a cadence during the
/// point, for `BENCH_socket_scrape.jsonl`.
fn run_point_sockets(args: &Args, transport: Transport, rate: f64) -> (Point, Option<String>) {
    let bin = sibling_site_bin().unwrap_or_else(|e| {
        eprintln!("camelot-sockbench: {e}");
        std::process::exit(1);
    });
    let extra = vec![
        "--call-timeout-ms".to_string(),
        "2000".to_string(),
        // Big enough that a whole point's trace survives un-drained;
        // the post-point drain feeds the latency attribution.
        "--trace-capacity".to_string(),
        "262144".to_string(),
    ];
    let mut sites: Vec<SiteProc> = (1..=args.sites)
        .map(|i| {
            SiteProc::spawn(&SpawnSpec {
                bin: &bin,
                site: SiteId(i),
                transport: transport.name(),
                log_dir: None,
                fast: true,
                extra: &extra,
            })
            .unwrap_or_else(|e| {
                eprintln!("camelot-sockbench: spawn site {i}: {e}");
                std::process::exit(1);
            })
        })
        .collect();
    distribute_peers(&mut sites).expect("distribute peers");
    let ctrl_addrs: Vec<_> = sites.iter().map(|s| s.handshake.ctrl).collect();

    // Scrape the cluster on a cadence for the whole point; the series
    // lands next to BENCH_socket.json so a ladder knee can be read
    // against queue depths and phase histograms, not just end counts.
    let targets: Vec<ScrapeTarget> = sites
        .iter()
        .map(|s| ScrapeTarget {
            site: s.id.0,
            addr: s.handshake.ctrl,
        })
        .collect();
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scrape_handle = {
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || {
            let mut collector = Collector::new();
            let mut series = String::new();
            loop {
                let snap = collector.scrape(&targets, None);
                series.push_str(&snap.to_json());
                series.push('\n');
                if stop.load(Ordering::Acquire) {
                    return series;
                }
                std::thread::sleep(StdDuration::from_millis(250));
            }
        })
    };

    let mut p = LADDER.run_point(&args.ladder, args.sites, rate, || {
        SocketSession::connect(&ctrl_addrs)
    });

    // Let in-flight resolutions land, then read the counters.
    wait_quiesce(&mut sites, StdDuration::from_secs(10));
    let mut agg = TransportStats::default();
    for s in sites.iter_mut() {
        if let Ok(st) = s.ctrl.transport_stats() {
            agg.sends += st.sends;
            agg.send_failures += st.send_failures;
            agg.connects += st.connects;
            agg.connect_failures += st.connect_failures;
            agg.enqueued += st.enqueued;
            agg.queue_drops += st.queue_drops;
            agg.queue_depth += st.queue_depth;
            agg.max_queue_depth = agg.max_queue_depth.max(st.max_queue_depth);
        }
    }
    // Final scrape (the stop flag forces one last sample), then drain
    // every ring and attribute the point's commit latency.
    scrape_stop.store(true, Ordering::Release);
    let scrape = scrape_handle.join().ok();
    let mut events = Vec::new();
    for s in sites.iter_mut() {
        if let Ok(trace) = s.ctrl.drain_trace() {
            events.extend(parse_jsonl(&trace));
        }
    }
    let attribution = attribute(&merge_skew_aware(events).events);
    for s in sites {
        s.shutdown();
    }
    p.extra_json = format!(
        "\"transport\": {}, \"scope\": {}",
        transport_json(&agg),
        attribution.to_json()
    );
    (p, scrape)
}

fn transport_json(t: &TransportStats) -> String {
    format!(
        "{{\"sends\": {}, \"send_failures\": {}, \"connects\": {}, \"connect_failures\": {}, \
         \"enqueued\": {}, \"queue_drops\": {}, \"queue_depth\": {}, \"max_queue_depth\": {}}}",
        t.sends,
        t.send_failures,
        t.connects,
        t.connect_failures,
        t.enqueued,
        t.queue_drops,
        t.queue_depth,
        t.max_queue_depth
    )
}

fn main() {
    let args = Args::parse();
    let l = &args.ladder;
    println!(
        "camelot-sockbench: {} sites, zipf theta={} over {} keys, {} ms per point, \
         mix {}% read-only / {}% distributed / {}% non-blocking",
        args.sites, l.theta, l.keys, l.duration_ms, l.read_pct, l.dist_pct, l.nb_pct
    );

    let mut scrape_series = format!("{}\n", Collector::header_json(&args.config_text()));
    let mut scraped_points = 0usize;
    let curves = LADDER.sweep(l, &args.transports, Transport::name, |transport, rate| {
        if transport == Transport::Inproc {
            return run_point_inproc(&args, rate);
        }
        let (p, scrape) = run_point_sockets(&args, transport, rate);
        if let Some(series) = scrape {
            scrape_series.push_str(&format!(
                "{{\"point\":{{\"transport\":\"{}\",\"offered_per_sec\":{:.1}}}}}\n",
                transport.name(),
                rate
            ));
            scrape_series.push_str(&series);
            scraped_points += 1;
        }
        p
    });

    // The headline: socket tax relative to the in-process baseline.
    // Latency compares commit p95 at the lowest offered rate: the
    // uncontended transport cost, before queueing noise.
    let find = |t: Transport| {
        curves.iter().find(|c| c.name == t.name()).map(|c| {
            let base_p95 = c.points.first().map(|p| p.commit_lat.percentile(95.0));
            (c.saturation, base_p95.unwrap_or(0))
        })
    };
    let mut tax_parts = Vec::new();
    if let Some((inproc_sat, inproc_p95)) = find(Transport::Inproc) {
        for t in [Transport::Udp, Transport::Tcp] {
            if let Some((sat, p95)) = find(t) {
                let sat_ratio = if sat > 0.0 { inproc_sat / sat } else { 0.0 };
                let lat_ratio = if inproc_p95 > 0 {
                    p95 as f64 / inproc_p95 as f64
                } else {
                    0.0
                };
                println!(
                    "{} tax: {:.2}x saturation, {:.2}x low-rate p95 commit latency",
                    t.name(),
                    sat_ratio,
                    lat_ratio
                );
                tax_parts.push(format!(
                    "\"{}\": {{\"saturation_ratio_inproc_over_socket\": {:.2}, \
                     \"low_rate_p95_commit_ratio_socket_over_inproc\": {:.2}}}",
                    t.name(),
                    sat_ratio,
                    lat_ratio
                ));
            }
        }
    }

    let out = LADDER.write(
        l,
        &args.config_text(),
        &format!("\"sites\": {}", args.sites),
        &curves,
        &[("tax", format!("{{{}}}", tax_parts.join(", ")))],
    );

    // The scrape series rides alongside the bench JSON: one header,
    // then a point-tag line followed by that point's snapshots.
    if scraped_points > 0 {
        let scrape_out = if let Some(stripped) = out.strip_suffix(".json") {
            format!("{stripped}_scrape.jsonl")
        } else {
            format!("{out}.scrape.jsonl")
        };
        std::fs::write(&scrape_out, scrape_series).expect("write scrape series");
        println!("wrote {scrape_out} ({scraped_points} scraped points)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_scope::config_hash;

    #[test]
    fn default_configs_hash_to_the_committed_stamps() {
        // BENCH_socket.json records the full ladder; the CI knee gate
        // compares QUICK runs against BENCH_socket_quick.json.
        assert_eq!(
            config_hash(&Args::defaults(false).config_text()),
            "8e9d2ce99ad7d9fe"
        );
        assert_eq!(
            config_hash(&Args::defaults(true).config_text()),
            "17a3889f948ba7ea"
        );
    }
}
