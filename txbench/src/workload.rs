//! The workloads, their seeded transaction generator, and the paced
//! open-loop driver.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use camelot_bench::{OpenLoop, SplitMix64, Zipf};
use camelot_core::{CommitMode, ExecMode};
use camelot_net::Outcome;
use camelot_rt::TraceEvent;
use camelot_types::{ObjectId, SiteId};

use crate::check::{value, Status};
use crate::spans::Tracing;
use crate::system::{Shape, System, SITES, SRV};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Read-modify-write of one uniform key at the home site.
    LocalRmw,
    /// One uniform key written at every site; 10% non-blocking.
    DistWrite,
    /// Zipf keys: 70% read one key at home and one at the next site,
    /// 30% read-modify-write one home key.
    HotKeys,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub exec: ExecMode,
    pub mix: Mix,
    pub keys_per_site: u64,
    /// Offered arrivals per second.
    pub rate: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "local_rmw",
        shape: Shape::InProcess,
        exec: ExecMode::LockBased,
        mix: Mix::LocalRmw,
        keys_per_site: 10_000,
        rate: 3000.0,
    },
    Workload {
        name: "dist_udp",
        shape: Shape::Udp,
        exec: ExecMode::LockBased,
        mix: Mix::DistWrite,
        keys_per_site: 10_000,
        rate: 250.0,
    },
    Workload {
        name: "hot_mix_queued",
        shape: Shape::InProcess,
        exec: ExecMode::Queued,
        mix: Mix::HotKeys,
        keys_per_site: 64,
        rate: 600.0,
    },
];

const ZIPF_THETA: f64 = 0.99;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read { site: u32, key: u64 },
    Write { site: u32, key: u64 },
}

#[derive(Debug, Clone)]
pub struct TxnSpec {
    pub home: u32,
    pub ops: Vec<Op>,
    pub mode: CommitMode,
}

impl TxnSpec {
    pub fn writes(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.ops.iter().filter_map(|op| match *op {
            Op::Write { site, key } => Some((site, key)),
            Op::Read { .. } => None,
        })
    }

    /// Sites other than home that the transaction touches.
    fn others(&self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self
            .ops
            .iter()
            .map(|op| match *op {
                Op::Read { site, .. } | Op::Write { site, .. } => site,
            })
            .filter(|s| *s != self.home)
            .map(SiteId)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Which commit span a transaction's commit is timed under.
    fn commit_span_name(&self) -> &'static str {
        match (self.mode, self.writes().next().is_some()) {
            (CommitMode::NonBlocking, _) => "rt.commit_nb",
            (CommitMode::TwoPhase, true) => "rt.commit_2pc",
            (CommitMode::TwoPhase, false) => "rt.commit_ro",
        }
    }
}

/// The workload's transactions for `seed`, in arrival order.
pub fn generate(w: &Workload, seed: u64, n: u64) -> Vec<TxnSpec> {
    let mut rng = SplitMix64::new(seed);
    let zipf = Zipf::new(w.keys_per_site as usize, ZIPF_THETA);
    (0..n)
        .map(|i| {
            let home = (i % SITES as u64) as u32 + 1;
            let next = home % SITES + 1;
            let uniform = |rng: &mut SplitMix64| rng.next_below(w.keys_per_site);
            match w.mix {
                Mix::LocalRmw => {
                    let key = uniform(&mut rng);
                    TxnSpec {
                        home,
                        ops: vec![Op::Read { site: home, key }, Op::Write { site: home, key }],
                        mode: CommitMode::TwoPhase,
                    }
                }
                Mix::DistWrite => {
                    let ops = (1..=SITES)
                        .map(|site| Op::Write {
                            site,
                            key: uniform(&mut rng),
                        })
                        .collect();
                    let mode = if rng.next_below(10) == 0 {
                        CommitMode::NonBlocking
                    } else {
                        CommitMode::TwoPhase
                    };
                    TxnSpec { home, ops, mode }
                }
                Mix::HotKeys => {
                    let ops = if rng.next_below(100) < 70 {
                        vec![
                            Op::Read {
                                site: home,
                                key: zipf.sample(&mut rng) as u64,
                            },
                            Op::Read {
                                site: next,
                                key: zipf.sample(&mut rng) as u64,
                            },
                        ]
                    } else {
                        let key = zipf.sample(&mut rng) as u64;
                        vec![Op::Read { site: home, key }, Op::Write { site: home, key }]
                    };
                    TxnSpec {
                        home,
                        ops,
                        mode: CommitMode::TwoPhase,
                    }
                }
            }
        })
        .collect()
}

/// Writes every key once, in batched multi-key transactions at each
/// key's own site. Panics if a batch does not commit: a system that
/// cannot preload has no benchmark to run.
pub fn preload(sys: &System, keys_per_site: u64) {
    const BATCH: u64 = 500;
    for site in 1..=SITES {
        let client = sys.client(site);
        let mut first = 0;
        while first < keys_per_site {
            let last = (first + BATCH).min(keys_per_site);
            let tid = client.begin().expect("preload begin");
            for key in first..last {
                client
                    .write(
                        &tid,
                        SiteId(site),
                        SRV,
                        ObjectId(key),
                        value(None, site, key),
                    )
                    .expect("preload write");
            }
            let out = client
                .commit(&tid, CommitMode::TwoPhase)
                .expect("preload commit");
            assert_eq!(out, Outcome::Committed, "preload batch aborted");
            first = last;
        }
    }
}

/// One arrival's fate, times in ns from the phase's time base.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub due_ns: u64,
    /// When the generator released it (0 if it never ran).
    pub release_ns: u64,
    /// Time inside the commit call.
    pub commit_ns: u64,
    /// When its commit (or abort) returned.
    pub end_ns: u64,
    pub ran: bool,
    pub status: Status,
}

pub struct Phase {
    pub arrivals: Vec<Arrival>,
    /// Arrivals per measurement window: the phase is cut into
    /// windows of about [`WINDOW`] each, in arrival order.
    pub window_len: usize,
    /// Process CPU over the phase, all threads.
    pub cpu_us: u64,
    /// Process CPU per window, all threads.
    pub window_cpu_us: Vec<u64>,
    /// Wall time the generator spent outside sleeps and system calls.
    pub gen_busy_ns: u64,
    /// Share of the machine's CPU time the hypervisor took away during
    /// the phase; high values mean host contention shaped the run.
    pub steal_pct: f64,
    /// The same share per window.
    pub window_steal_pct: Vec<f64>,
}

impl Phase {
    pub fn commits(&self) -> u64 {
        self.arrivals
            .iter()
            .filter(|a| a.status == Status::Committed)
            .count() as u64
    }

    pub fn windows(&self) -> std::slice::Chunks<'_, Arrival> {
        self.arrivals.chunks(self.window_len)
    }

    /// Process CPU per commit, less the generator's own busy time.
    pub fn cpu_us_per_commit(&self) -> f64 {
        let own = self.cpu_us as f64 - self.gen_busy_ns as f64 / 1e3;
        own.max(0.0) / self.commits().max(1) as f64
    }

    /// Which windows the end-to-end figures are taken over: see
    /// [`crate::stats::quiet_windows`].
    pub fn quiet(&self) -> Vec<bool> {
        crate::stats::quiet_windows(&self.window_steal_pct)
    }

    /// [`Phase::cpu_us_per_commit`] per quiet window, and their
    /// summary by [`crate::stats::over_windows`].
    pub fn quiet_cpu_us_per_commit(&self) -> (Vec<f64>, f64) {
        let v: Vec<f64> = self
            .window_cpu_us_per_commit()
            .into_iter()
            .zip(self.quiet())
            .filter(|&(_, q)| q)
            .map(|(c, _)| c)
            .collect();
        let summary = crate::stats::over_windows(v.clone());
        (v, summary)
    }

    /// [`Phase::cpu_us_per_commit`] per window; the generator's busy
    /// time is shared out by arrivals.
    fn window_cpu_us_per_commit(&self) -> Vec<f64> {
        let gen_us_per_arrival = self.gen_busy_ns as f64 / 1e3 / self.arrivals.len().max(1) as f64;
        self.windows()
            .zip(&self.window_cpu_us)
            .map(|(w, &cpu)| {
                let commits = w.iter().filter(|a| a.status == Status::Committed).count();
                let own = cpu as f64 - gen_us_per_arrival * w.len() as f64;
                own.max(0.0) / commits.max(1) as f64
            })
            .collect()
    }
}

/// Target length of one measurement window. Latency figures are
/// taken per window and summarised over the windows the host left
/// quiet, so a host stall that hits some windows of a run does not
/// decide the run's figure.
pub const WINDOW: Duration = Duration::from_secs(2);

/// Arrivals not released by this long after the last one was due
/// count as unfinished.
const GRACE: Duration = Duration::from_secs(5);
/// Traced runs drain the trace rings this often.
const DRAIN_EVERY: Duration = Duration::from_millis(200);

/// Runs `specs` open-loop at `rate` arrivals per second on at most
/// two generator threads (each paces itself off a shared arrival
/// counter). Latency is measured from each arrival's due time.
pub fn paced(
    sys: &System,
    specs: &[TxnSpec],
    rate: f64,
    tracing: Option<&Tracing>,
    drained: &Mutex<Vec<TraceEvent>>,
) -> Phase {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 2);
    let total = specs.len() as u64;
    let base = Instant::now() + Duration::from_millis(20);
    let schedule = OpenLoop::new(base, rate, total);
    let cutoff = schedule.due_at(total.saturating_sub(1)) + GRACE;
    let next = AtomicU64::new(0);
    let ns = |t: Instant| t.saturating_duration_since(base).as_nanos() as u64;
    let windows = ((total as f64 / rate) / WINDOW.as_secs_f64())
        .round()
        .max(1.0) as u64;
    let window_len = total.div_ceil(windows).max(1);
    // Host steal and process CPU at the start of each window, taken by
    // whichever thread picks up the window's first arrival, before it
    // waits for that arrival's due time.
    let marks = Mutex::new(vec![None; total.div_ceil(window_len) as usize]);
    let mark = || {
        (
            crate::stats::machine_steal(),
            crate::stats::process_cpu_us(),
        )
    };
    let steal0 = crate::stats::machine_steal();
    let cpu0 = crate::stats::process_cpu_us();
    let per_thread: Vec<(Vec<(u64, Arrival)>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (schedule, next, marks) = (&schedule, &next, &marks);
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(specs.len() / threads + 1);
                    let mut busy_ns = 0u64;
                    let mut last_drain = Instant::now();
                    loop {
                        let top = Instant::now();
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let due = schedule.due_at(i);
                        if i % window_len == 0 {
                            marks.lock().expect("marks poisoned")[(i / window_len) as usize] =
                                Some(mark());
                        }
                        let mut arrival = Arrival {
                            due_ns: ns(due),
                            release_ns: 0,
                            commit_ns: 0,
                            end_ns: 0,
                            ran: false,
                            status: Status::NotCommitted,
                        };
                        let before_sleep = Instant::now();
                        if before_sleep < due {
                            std::thread::sleep(due - before_sleep);
                        }
                        let release = Instant::now();
                        let mut in_system = Duration::ZERO;
                        if release <= cutoff {
                            let (status, commit) = run_txn(sys, i, &specs[i as usize], tracing);
                            let end = Instant::now();
                            in_system = end - release;
                            arrival.release_ns = ns(release);
                            arrival.end_ns = ns(end);
                            arrival.commit_ns = commit.as_nanos() as u64;
                            arrival.ran = true;
                            arrival.status = status;
                        }
                        out.push((i, arrival));
                        if tracing.is_some() && t == 0 && last_drain.elapsed() >= DRAIN_EVERY {
                            drained
                                .lock()
                                .expect("drain buffer poisoned")
                                .extend(sys.drain_trace());
                            last_drain = Instant::now();
                        }
                        let slept = release - before_sleep;
                        busy_ns += (top.elapsed() - slept - in_system).as_nanos() as u64;
                    }
                    (out, busy_ns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let (steal1, cpu1) = mark();
    let cpu_us = cpu1 - cpu0;
    let steal_pct = crate::stats::steal_pct(steal0, steal1);
    let mut marks: Vec<_> = marks
        .into_inner()
        .expect("marks poisoned")
        .into_iter()
        .map(|m| m.expect("every window marked"))
        .collect();
    marks.push((steal1, cpu1));
    let window_steal_pct = marks
        .windows(2)
        .map(|m| crate::stats::steal_pct(m[0].0, m[1].0))
        .collect();
    let window_cpu_us = marks.windows(2).map(|m| m[1].1 - m[0].1).collect();
    let mut arrivals = vec![None; specs.len()];
    let mut gen_busy_ns = 0;
    for (out, busy) in per_thread {
        gen_busy_ns += busy;
        for (i, a) in out {
            arrivals[i as usize] = Some(a);
        }
    }
    Phase {
        arrivals: arrivals
            .into_iter()
            .map(|a| a.expect("every arrival recorded"))
            .collect(),
        window_len: window_len as usize,
        cpu_us,
        window_cpu_us,
        gen_busy_ns,
        steal_pct,
        window_steal_pct,
    }
}

/// Runs one transaction, aborting it on any error. Returns its status
/// and the time spent inside the commit call.
fn run_txn(sys: &System, i: u64, spec: &TxnSpec, tracing: Option<&Tracing>) -> (Status, Duration) {
    let home = sys.client(spec.home);
    let root = tracing.map(|t| (t, t.reserve()));
    let started = Instant::now();
    let call = |name: &'static str, f: &mut dyn FnMut() -> bool| -> bool {
        match root {
            Some((t, id)) => t.around_id(t.reserve(), name, Some(id), Some(i), f),
            None => f(),
        }
    };
    let mut tid = None;
    call("rt.begin", &mut || {
        tid = home.begin().ok();
        tid.is_some()
    });
    let Some(tid) = tid else {
        finish(root, i, started);
        return (Status::NotCommitted, Duration::ZERO);
    };
    if let Some((t, _)) = root {
        t.bind_family(tid.family, i);
    }
    let udp = sys.is_udp();
    let others = spec.others();
    let mut ok = true;
    for op in &spec.ops {
        let (site, key) = match *op {
            Op::Read { site, key } | Op::Write { site, key } => (site, key),
        };
        // Over sockets the application talks to each site directly;
        // in process, the home client reaches every site.
        let client = if udp { sys.client(site) } else { home };
        ok = match *op {
            Op::Read { .. } => {
                let name = if site == spec.home {
                    "rt.read_local"
                } else {
                    "rt.read_remote"
                };
                call(name, &mut || {
                    client.read(&tid, SiteId(site), SRV, ObjectId(key)).is_ok()
                })
            }
            Op::Write { .. } => call("rt.write", &mut || {
                client
                    .write(
                        &tid,
                        SiteId(site),
                        SRV,
                        ObjectId(key),
                        value(Some(i), site, key),
                    )
                    .is_ok()
            }),
        };
        if !ok {
            break;
        }
    }
    if !ok {
        let _ = if udp {
            home.abort_with(&tid, others)
        } else {
            home.abort(&tid)
        };
        finish(root, i, started);
        return (Status::NotCommitted, Duration::ZERO);
    }
    let commit_id = root.map(|(t, _)| {
        let id = t.reserve();
        t.set_commit_span(tid.family, Some(id));
        id
    });
    let commit_start = Instant::now();
    let out = if udp {
        home.commit_with(&tid, spec.mode, others.clone())
    } else {
        home.commit(&tid, spec.mode)
    };
    let commit_end = Instant::now();
    if let (Some((t, root_id)), Some(id)) = (root, commit_id) {
        t.set_commit_span(tid.family, None);
        t.record(
            id,
            Some(root_id),
            spec.commit_span_name(),
            Some(i),
            commit_start,
            commit_end,
        );
    }
    let status = match out {
        Ok(Outcome::Committed) => Status::Committed,
        Ok(Outcome::Aborted) => Status::NotCommitted,
        Err(_) => {
            let _ = if udp {
                home.abort_with(&tid, others)
            } else {
                home.abort(&tid)
            };
            Status::NotCommitted
        }
    };
    finish(root, i, started);
    (status, commit_end - commit_start)
}

fn finish(root: Option<(&Tracing, u32)>, i: u64, started: Instant) {
    if let Some((t, id)) = root {
        t.record(id, None, "rt.txn", Some(i), started, Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded() {
        for w in &WORKLOADS {
            let a = generate(w, 7, 200);
            let b = generate(w, 7, 200);
            let c = generate(w, 8, 200);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_ne!(format!("{a:?}"), format!("{c:?}"));
        }
    }

    #[test]
    fn mixes_have_their_shapes() {
        let hot = generate(&WORKLOADS[2], 1, 10_000);
        let ro = hot.iter().filter(|t| t.writes().next().is_none()).count();
        assert!((6_500..7_500).contains(&ro), "read-only share {ro}");
        assert!(hot.iter().flat_map(|t| &t.ops).all(|op| match *op {
            Op::Read { key, .. } | Op::Write { key, .. } => key < 64,
        }));
        let dist = generate(&WORKLOADS[1], 1, 10_000);
        let nb = dist
            .iter()
            .filter(|t| t.mode == CommitMode::NonBlocking)
            .count();
        assert!((800..1_200).contains(&nb), "non-blocking share {nb}");
        assert!(dist
            .iter()
            .all(|t| t.writes().count() == 3 && t.others().len() == 2));
        let local = generate(&WORKLOADS[0], 1, 300);
        assert!(local.iter().all(|t| t.others().is_empty()));
    }
}
