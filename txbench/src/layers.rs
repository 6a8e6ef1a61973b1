//! Per-layer metrics of a traced run: span percentiles around the
//! benchmark's calls into each layer, counters the program exposes
//! (`Cluster::stats()`, `SocketTransport::stats()`) differenced over
//! the paced phase, and critical-path attribution of the trace rings.

use camelot_obs::{Histogram, Phase};
use camelot_rt::{ClusterStats, SiteStats};

use crate::spans::{self_times, Span};
use crate::stats;
use crate::system::scope_events;
use crate::{metric, Metric, Pass};

/// Protocols `camelot_scope::attribute` classifies commits into.
const PROTOCOLS: [&str; 5] = [
    "2pc_standard",
    "2pc_delayed",
    "read_only",
    "non_blocking",
    "non_blocking_read",
];

const FIXED: [&str; 42] = [
    "cpu_us_per_commit",
    "gen.late_p99_us",
    "gen.cpu_us_per_txn",
    "rt.begin_p50_us",
    "rt.read_local_p50_us",
    "rt.read_remote_p50_us",
    "rt.write_p50_us",
    "rt.commit_2pc_p50_us",
    "rt.commit_nb_p50_us",
    "rt.commit_ro_p50_us",
    "rt.txn_self_p50_us",
    "core.inputs_per_commit",
    "core.forces_per_commit",
    "core.lazy_appends_per_commit",
    "core.datagrams_per_commit",
    "core.piggybacked_per_commit",
    "core.shard_lock_wait_us_per_commit",
    "wal.records_per_commit",
    "wal.forces_effective_per_commit",
    "wal.platter_writes_per_commit",
    "wal.batch_mean",
    "wal.force_wait_mean_us",
    "wal.platter_write_mean_us",
    "wal.append_p50_us",
    "wal.force_p50_us",
    "wal.force_disk_p50_us",
    "server.ops_per_commit",
    "server.lock_waits_per_commit",
    "server.deadlocks",
    "queue.ops_per_commit",
    "queue.parked_per_commit",
    "queue.vote_timeouts",
    "queue.cascades",
    "queue.wait_mean_us",
    "net.sends_per_commit",
    "net.send_failures",
    "net.queue_drops",
    "net.max_queue_depth",
    "net.send_p50_us",
    "net.inject_p50_us",
    "obs.trace_overhead_pct",
    "obs.trace_dropped",
];

/// Every per-layer metric name, in output order.
pub fn names() -> Vec<String> {
    let mut v: Vec<String> = FIXED.iter().map(|s| s.to_string()).collect();
    for p in PROTOCOLS {
        for seg in camelot_scope::attr::SEGMENTS {
            v.push(format!("scope.{p}.{seg}_p50_us"));
        }
        v.push(format!("scope.{p}.residual_pct"));
    }
    v
}

/// Which end-to-end metric a layer metric should move, and where.
pub fn moves(name: &str) -> &'static str {
    let layer = name.split('.').next().unwrap_or("");
    match layer {
        "cpu_us_per_commit" => {
            "whole process (untraced pass): the capacity proxy every layer moves; all workloads"
        }
        "gen" | "obs" => "run validity only; all workloads",
        "rt" => "moves txn_p50_us; remote reads only in hot_mix_queued, NB only in dist_udp",
        "core" => {
            "moves cpu_us_per_commit, commit_p50_us; dist_udp most, no datagrams in local_rmw"
        }
        "wal"
            if name.starts_with("wal.append")
                || name.starts_with("wal.force_") && name.ends_with("p50_us") =>
        {
            "replay: turns wal.forces_effective_per_commit into device latency; all workloads"
        }
        "wal" => {
            "moves commit_p50_us on dist_udp and local_rmw; log_bytes_per_commit, recovery_s everywhere"
        }
        "server" => "moves txn_p90_us; local_rmw, dist_udp; bypassed by hot_mix_queued",
        "queue" => "moves txn_p50_us; hot_mix_queued only",
        "net" => "moves commit_p50_us, cpu_us_per_commit; dist_udp only",
        "scope" => "explains commit_p50_us; all workloads",
        _ => "",
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// p99 of how late the generator released arrivals (release − due).
pub fn late_p99_us(p: &Pass) -> f64 {
    let late: Vec<f64> = p
        .phase
        .arrivals
        .iter()
        .filter(|a| a.ran)
        .map(|a| us(a.release_ns.saturating_sub(a.due_ns)))
        .collect();
    stats::percentile(&stats::sorted(late), 0.99)
}

pub fn gen_cpu_us_per_txn(p: &Pass) -> f64 {
    us(p.phase.gen_busy_ns) / p.attempted().max(1) as f64
}

/// Sum over sites of a counter's growth across the paced phase.
fn delta(before: &ClusterStats, after: &ClusterStats, f: impl Fn(&SiteStats) -> u64) -> f64 {
    let sum = |c: &ClusterStats| c.sites.iter().map(&f).sum::<u64>();
    sum(after).saturating_sub(sum(before)) as f64
}

/// Log records appended per effective force over the paced phase.
pub fn records_per_force(p: &Pass) -> f64 {
    let recs = delta(&p.before, &p.after, |s| s.wal.records);
    let forces = delta(&p.before, &p.after, |s| s.wal.forces_effective);
    if forces == 0.0 {
        1.0
    } else {
        recs / forces
    }
}

/// Mean of the samples a histogram gained between two snapshots. The
/// histogram exposes only an integer mean, so this is within 1 µs.
fn delta_mean(before: &Histogram, after: &Histogram) -> f64 {
    let n = after.count().saturating_sub(before.count());
    if n == 0 {
        return 0.0;
    }
    let sum = |h: &Histogram| h.mean_us() as f64 * h.count() as f64;
    ((sum(after) - sum(before)) / n as f64).max(0.0)
}

fn span_p50_us(spans: &[Span], name: &str) -> f64 {
    stats::median(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.dur_ns()))
            .collect(),
    )
}

pub fn per_layer(base: &Pass, traced: &Pass, replay: &[Span]) -> Vec<Metric> {
    let (b, a) = (&traced.before, &traced.after);
    let commits = traced.commits().max(1) as f64;
    let per = |f: fn(&SiteStats) -> u64| delta(b, a, f) / commits;
    let count = |f: fn(&SiteStats) -> u64| delta(b, a, f);
    let hist = |phase: Phase| delta_mean(b.phases().get(phase), a.phases().get(phase));
    let spans = &traced.spans;
    let self_ns = self_times(spans);
    let txn_self = stats::median(
        spans
            .iter()
            .filter(|s| s.name == "rt.txn")
            .map(|s| us(self_ns[&s.id]))
            .collect(),
    );
    let (nb, na) = (&traced.net_before, &traced.net_after);
    let base_cpu = base.cpu_us_per_commit();
    let overhead = if base_cpu > 0.0 {
        (traced.cpu_us_per_commit() - base_cpu) / base_cpu * 100.0
    } else {
        0.0
    };

    let mut out = vec![
        metric(
            "cpu_us_per_commit",
            base.phase.quiet_cpu_us_per_commit().1,
            "us",
        ),
        metric("gen.late_p99_us", late_p99_us(base), "us"),
        metric("gen.cpu_us_per_txn", gen_cpu_us_per_txn(base), "us"),
        metric("rt.begin_p50_us", span_p50_us(spans, "rt.begin"), "us"),
        metric(
            "rt.read_local_p50_us",
            span_p50_us(spans, "rt.read_local"),
            "us",
        ),
        metric(
            "rt.read_remote_p50_us",
            span_p50_us(spans, "rt.read_remote"),
            "us",
        ),
        metric("rt.write_p50_us", span_p50_us(spans, "rt.write"), "us"),
        metric(
            "rt.commit_2pc_p50_us",
            span_p50_us(spans, "rt.commit_2pc"),
            "us",
        ),
        metric(
            "rt.commit_nb_p50_us",
            span_p50_us(spans, "rt.commit_nb"),
            "us",
        ),
        metric(
            "rt.commit_ro_p50_us",
            span_p50_us(spans, "rt.commit_ro"),
            "us",
        ),
        metric("rt.txn_self_p50_us", txn_self, "us"),
        metric("core.inputs_per_commit", per(|s| s.inputs), "count/commit"),
        metric(
            "core.forces_per_commit",
            per(|s| s.engine.forces),
            "count/commit",
        ),
        metric(
            "core.lazy_appends_per_commit",
            per(|s| s.engine.lazy_appends),
            "count/commit",
        ),
        metric(
            "core.datagrams_per_commit",
            per(|s| s.engine.datagrams),
            "count/commit",
        ),
        metric(
            "core.piggybacked_per_commit",
            per(|s| s.engine.piggybacked),
            "count/commit",
        ),
        metric(
            "core.shard_lock_wait_us_per_commit",
            per(|s| s.lock_wait.as_nanos() as u64) / 1e3,
            "us/commit",
        ),
        metric(
            "wal.records_per_commit",
            per(|s| s.wal.records),
            "count/commit",
        ),
        metric(
            "wal.forces_effective_per_commit",
            per(|s| s.wal.forces_effective),
            "count/commit",
        ),
        metric(
            "wal.platter_writes_per_commit",
            per(|s| s.platter_writes),
            "count/commit",
        ),
        metric(
            "wal.batch_mean",
            count(|s| s.forces_satisfied) / count(|s| s.platter_writes).max(1.0),
            "forces/write",
        ),
        metric("wal.force_wait_mean_us", hist(Phase::ForceWait), "us"),
        metric("wal.platter_write_mean_us", hist(Phase::PlatterWrite), "us"),
        metric("wal.append_p50_us", span_p50_us(replay, "wal.append"), "us"),
        metric("wal.force_p50_us", span_p50_us(replay, "wal.force"), "us"),
        metric(
            "wal.force_disk_p50_us",
            span_p50_us(replay, "wal.force_disk"),
            "us",
        ),
        metric(
            "server.ops_per_commit",
            per(|s| s.servers.reads + s.servers.writes),
            "count/commit",
        ),
        metric(
            "server.lock_waits_per_commit",
            per(|s| s.servers.lock_waits),
            "count/commit",
        ),
        metric("server.deadlocks", count(|s| s.servers.deadlocks), "count"),
        metric("queue.ops_per_commit", per(|s| s.queue_ops), "count/commit"),
        metric(
            "queue.parked_per_commit",
            per(|s| s.queue_parked),
            "count/commit",
        ),
        metric(
            "queue.vote_timeouts",
            count(|s| s.queue_vote_timeouts),
            "count",
        ),
        metric("queue.cascades", count(|s| s.queue_cascades), "count"),
        metric("queue.wait_mean_us", hist(Phase::QueueWait), "us"),
        metric(
            "net.sends_per_commit",
            na.sends.saturating_sub(nb.sends) as f64 / commits,
            "count/commit",
        ),
        metric(
            "net.send_failures",
            na.send_failures.saturating_sub(nb.send_failures) as f64,
            "count",
        ),
        metric(
            "net.queue_drops",
            na.queue_drops.saturating_sub(nb.queue_drops) as f64,
            "count",
        ),
        metric("net.max_queue_depth", na.max_queue_depth as f64, "count"),
        metric("net.send_p50_us", span_p50_us(spans, "net.send"), "us"),
        metric("net.inject_p50_us", span_p50_us(spans, "net.inject"), "us"),
        metric("obs.trace_overhead_pct", overhead, "%"),
        metric("obs.trace_dropped", traced.trace_dropped as f64, "count"),
    ];
    out.extend(scope_metrics(traced));
    debug_assert!(out.iter().map(|m| &m.name).eq(names().iter()));
    out
}

/// Per-protocol segment medians, and how far their sum is from the
/// client-measured commit median of the same protocol.
fn scope_metrics(traced: &Pass) -> Vec<Metric> {
    let events = scope_events(&traced.events, traced.udp);
    let attribution = camelot_scope::attribute(&events);
    let mut out = Vec::new();
    for p in PROTOCOLS {
        let found = attribution.protocols.iter().find(|a| a.protocol == p);
        for seg in camelot_scope::attr::SEGMENTS {
            let v = found
                .and_then(|a| a.segments.iter().find(|(n, _)| *n == seg))
                .map(|(_, s)| s.p50 as f64)
                .unwrap_or(0.0);
            out.push(metric(format!("scope.{p}.{seg}_p50_us"), v, "us"));
        }
        let client_span = match p {
            "2pc_standard" | "2pc_delayed" => Some("rt.commit_2pc"),
            "read_only" => Some("rt.commit_ro"),
            "non_blocking" => Some("rt.commit_nb"),
            _ => None,
        };
        let measured = client_span
            .map(|n| span_p50_us(&traced.spans, n))
            .unwrap_or(0.0);
        let residual = match found {
            Some(a) if measured > 0.0 => {
                (a.median_sum() as f64 - measured).abs() / measured * 100.0
            }
            _ => 0.0,
        };
        out.push(metric(format!("scope.{p}.residual_pct"), residual, "%"));
        if let Some(a) = found {
            println!(
                "scope {p}: {} families, segment medians sum {} us, client commit p50 {measured:.1} us, \
                 residual {residual:.1}% ({})",
                a.families,
                a.median_sum(),
                if residual <= 10.0 { "explained within 10%" } else { "NOT explained within 10%" }
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let n = names();
        let mut sorted = n.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), n.len());
        for name in &n {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(!moves(name).is_empty(), "{name}");
        }
    }
}
