//! The open-loop ladder driver behind `camelot-load` and
//! `camelot-sockbench`.
//!
//! Both binaries sweep a ladder of offered rates over one seeded
//! workload and differ only in what executes it: lock-based versus
//! queued execution for `camelot-load`; the in-process runtime, UDP
//! and TCP site clusters for `camelot-sockbench`. Everything else
//! lives here, once:
//!
//! - the shared flags ([`LadderArgs`]);
//! - the seeded transaction generator, so every mode and transport
//!   replays the identical workload for a given (seed, rate);
//! - the [`OpenLoop`] pacer and the worker pool it feeds;
//! - the outcome sink, including the committed-only sums behind
//!   `commit_overhead_pct`;
//! - the transaction body, written against the five-call [`Session`]
//!   and implemented for the in-process [`Client`] set
//!   ([`InprocSession`]) and a site cluster's control plane
//!   ([`SocketSession`]);
//! - the point schema and the ladder loop that finds each curve's
//!   saturation and writes the stamped JSON report.
//!
//! A binary supplies its deployment: it builds the system for a point,
//! opens one session per worker, and appends its own fields to the
//! point's JSON.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use camelot_core::CommitMode;
use camelot_net::Outcome;
use camelot_node::ctrl::CtrlClient;
use camelot_obs::{AtomicHistogram, Histogram};
use camelot_rt::{Client, Cluster};
use camelot_scope::stamp_json;
use camelot_types::{ObjectId, Result, ServerId, SiteId, Tid};

use crate::{OpenLoop, SplitMix64, Zipf};

/// The data server every ladder transaction uses.
pub const SRV: ServerId = ServerId(1);

/// The flags both ladders share:
/// `--rates --theta --keys --duration-ms --read-pct --dist-pct --nb-pct
/// --seed --out`.
#[derive(Debug, Clone)]
pub struct LadderArgs {
    pub rates: Vec<f64>,
    pub theta: f64,
    pub keys: usize,
    pub duration_ms: u64,
    pub read_pct: u64,
    pub dist_pct: u64,
    pub nb_pct: u64,
    pub seed: u64,
    pub out: Option<String>,
}

impl LadderArgs {
    /// The binary's own rate ladder, key count and point length, plus
    /// the shared mix: Zipf θ=0.99, 40% read-only, 20% distributed
    /// updates, 10% non-blocking commits, seed 7.
    pub fn new(rates: Vec<f64>, keys: usize, duration_ms: u64) -> LadderArgs {
        LadderArgs {
            rates,
            theta: 0.99,
            keys,
            duration_ms,
            read_pct: 40,
            dist_pct: 20,
            nb_pct: 10,
            seed: 7,
            out: None,
        }
    }

    /// Applies the process arguments. Shared flags are handled here;
    /// any other `--flag value` pair goes to `own`, which returns
    /// `false` for a flag it does not know. Bad input panics.
    pub fn parse(&mut self, own: impl FnMut(&str, &str) -> bool) {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        self.parse_from(&argv, own);
    }

    fn parse_from(&mut self, argv: &[String], mut own: impl FnMut(&str, &str) -> bool) {
        for pair in argv.chunks(2) {
            let flag = pair[0].as_str();
            let val = || {
                pair.get(1)
                    .unwrap_or_else(|| panic!("{flag} needs a value"))
                    .as_str()
            };
            match flag {
                "--rates" => {
                    self.rates = val().split(',').map(|r| r.parse().expect("rate")).collect()
                }
                "--theta" => self.theta = val().parse().expect("theta"),
                "--keys" => self.keys = val().parse().expect("keys"),
                "--duration-ms" => self.duration_ms = val().parse().expect("duration-ms"),
                "--read-pct" => self.read_pct = val().parse().expect("read-pct"),
                "--dist-pct" => self.dist_pct = val().parse().expect("dist-pct"),
                "--nb-pct" => self.nb_pct = val().parse().expect("nb-pct"),
                "--seed" => self.seed = val().parse().expect("seed"),
                "--out" => self.out = Some(val().to_string()),
                other => {
                    if !own(other, val()) {
                        panic!("unknown flag {other}")
                    }
                }
            }
        }
    }

    /// Canonical rendering of the shared knobs; each binary wraps it
    /// with its own to form the text hashed into the stamp.
    pub fn config_text(&self) -> String {
        format!(
            "theta={} keys={} duration_ms={} read_pct={} dist_pct={} nb_pct={} seed={} rates={:?}",
            self.theta,
            self.keys,
            self.duration_ms,
            self.read_pct,
            self.dist_pct,
            self.nb_pct,
            self.seed,
            self.rates
        )
    }

    /// The report's `"config"` object: the binary's own fields
    /// (`head`), then the shared knobs.
    fn config_json(&self, head: &str) -> String {
        format!(
            "{{{head}, \"theta\": {}, \"keys\": {}, \"duration_ms\": {}, \"read_pct\": {}, \
             \"dist_pct\": {}, \"nb_pct\": {}, \"seed\": {}}}",
            self.theta,
            self.keys,
            self.duration_ms,
            self.read_pct,
            self.dist_pct,
            self.nb_pct,
            self.seed
        )
    }
}

/// One scheduled transaction, fully decided by the seeded generator
/// before release.
struct TxnSpec {
    idx: u64,
    due: Instant,
    home: SiteId,
    key: ObjectId,
    key2: ObjectId,
    read_only: bool,
    distributed: bool,
    mode: CommitMode,
}

/// The seeded workload stream of one point. Identical (seed, rate)
/// yields identical specs, whatever executes them.
struct Generator {
    rng: SplitMix64,
    zipf: Zipf,
    sites: u32,
    read_pct: u64,
    dist_pct: u64,
    nb_pct: u64,
}

impl Generator {
    fn new(args: &LadderArgs, sites: u32, rate: f64) -> Generator {
        Generator {
            rng: SplitMix64::new(args.seed ^ (rate as u64)),
            zipf: Zipf::new(args.keys, args.theta),
            sites,
            read_pct: args.read_pct,
            dist_pct: args.dist_pct,
            nb_pct: args.nb_pct,
        }
    }

    /// Draws arrival `idx`. The draw order is fixed: the read-only
    /// roll, the distributed roll (update transactions only), the
    /// non-blocking roll, then `key` and `key2`.
    fn spec(&mut self, idx: u64, due: Instant) -> TxnSpec {
        let read_only = self.rng.next_below(100) < self.read_pct;
        let distributed = !read_only && self.rng.next_below(100) < self.dist_pct;
        let mode = if self.rng.next_below(100) < self.nb_pct {
            CommitMode::NonBlocking
        } else {
            CommitMode::TwoPhase
        };
        TxnSpec {
            idx,
            due,
            home: SiteId((idx % self.sites as u64) as u32 + 1),
            key: ObjectId(self.zipf.sample(&mut self.rng) as u64),
            key2: ObjectId(self.zipf.sample(&mut self.rng) as u64),
            read_only,
            distributed,
            mode,
        }
    }
}

/// One worker's handle on the system under test: the five calls the
/// transaction body makes. `begin` opens a transaction homed at
/// `home`; reads and writes name the site that holds the key.
pub trait Session {
    fn begin(&mut self, home: SiteId) -> Result<Tid>;
    fn read(&mut self, tid: &Tid, site: SiteId, key: ObjectId) -> Result<Vec<u8>>;
    fn write(&mut self, tid: &Tid, site: SiteId, key: ObjectId, value: Vec<u8>) -> Result<Vec<u8>>;
    fn abort(&mut self, tid: &Tid);
    /// `Ok(true)` when the transaction committed, `Ok(false)` when it
    /// aborted.
    fn commit(&mut self, tid: &Tid, mode: CommitMode) -> Result<bool>;
}

/// The in-process runtime: one [`Client`] per site, and every call of
/// a transaction goes through its home site's client.
pub struct InprocSession {
    clients: Vec<Client>,
    home: usize,
}

impl InprocSession {
    pub fn new(cluster: &Cluster, sites: u32) -> InprocSession {
        InprocSession {
            clients: (1..=sites).map(|s| cluster.client(SiteId(s))).collect(),
            home: 0,
        }
    }
}

impl Session for InprocSession {
    fn begin(&mut self, home: SiteId) -> Result<Tid> {
        self.home = (home.0 - 1) as usize;
        self.clients[self.home].begin()
    }

    fn read(&mut self, tid: &Tid, site: SiteId, key: ObjectId) -> Result<Vec<u8>> {
        self.clients[self.home].read(tid, site, SRV, key)
    }

    fn write(&mut self, tid: &Tid, site: SiteId, key: ObjectId, value: Vec<u8>) -> Result<Vec<u8>> {
        self.clients[self.home].write(tid, site, SRV, key, value)
    }

    fn abort(&mut self, tid: &Tid) {
        let _ = self.clients[self.home].abort(tid);
    }

    fn commit(&mut self, tid: &Tid, mode: CommitMode) -> Result<bool> {
        Ok(self.clients[self.home].commit(tid, mode)? == Outcome::Committed)
    }
}

/// A cluster of site processes, driven over each site's control
/// socket. Each worker holds its own connection to every site, so the
/// control plane itself does not serialize the ladder. The site
/// processes do not track remote participants for the client, so the
/// session does and hands them to the home site at commit or abort.
pub struct SocketSession {
    ctrls: Vec<CtrlClient>,
    home: SiteId,
    participants: Vec<SiteId>,
}

impl SocketSession {
    /// Connects to every site's control address. Panics when a site
    /// does not answer.
    pub fn connect(addrs: &[SocketAddr]) -> SocketSession {
        SocketSession {
            ctrls: addrs
                .iter()
                .map(|a| CtrlClient::connect(*a).expect("ctrl connect"))
                .collect(),
            home: SiteId(1),
            participants: Vec::new(),
        }
    }

    fn ctrl(&mut self, site: SiteId) -> &mut CtrlClient {
        &mut self.ctrls[(site.0 - 1) as usize]
    }
}

impl Session for SocketSession {
    fn begin(&mut self, home: SiteId) -> Result<Tid> {
        self.home = home;
        self.participants.clear();
        self.ctrl(home).begin()
    }

    fn read(&mut self, tid: &Tid, site: SiteId, key: ObjectId) -> Result<Vec<u8>> {
        self.ctrl(site).read(tid, SRV, key)
    }

    fn write(&mut self, tid: &Tid, site: SiteId, key: ObjectId, value: Vec<u8>) -> Result<Vec<u8>> {
        let old = self.ctrl(site).write(tid, SRV, key, value)?;
        if site != self.home && !self.participants.contains(&site) {
            if self.participants.is_empty() {
                self.participants.push(self.home);
            }
            self.participants.push(site);
        }
        Ok(old)
    }

    fn abort(&mut self, tid: &Tid) {
        let (home, participants) = (self.home, self.participants.clone());
        let _ = self.ctrl(home).abort(tid, participants);
    }

    fn commit(&mut self, tid: &Tid, mode: CommitMode) -> Result<bool> {
        let (home, participants) = (self.home, self.participants.clone());
        self.ctrl(home)
            .commit(tid, mode == CommitMode::NonBlocking, participants)
    }
}

/// Outcome counters and latency histograms of one point, shared by
/// its workers. Latency runs from the scheduled arrival, so backlog in
/// the driver counts against the system.
#[derive(Default)]
struct Sink {
    total: AtomicHistogram,
    commit: AtomicHistogram,
    commits: AtomicU64,
    aborts: AtomicU64,
    errors: AtomicU64,
    /// Sums over *committed* transactions only, for the overhead
    /// ratio (commit time / total time).
    commit_us_sum: AtomicU64,
    total_us_sum: AtomicU64,
}

impl Sink {
    fn committed(&self, due: Instant, commit_started: Instant) {
        let commit_us = commit_started.elapsed().as_micros() as u64;
        let total_us = due.elapsed().as_micros() as u64;
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.commit.record_us(commit_us);
        self.total.record_us(total_us);
        self.commit_us_sum.fetch_add(commit_us, Ordering::Relaxed);
        self.total_us_sum.fetch_add(total_us, Ordering::Relaxed);
    }

    /// A transaction that ended without committing: bumps `counter`
    /// (aborts or errors) and records its total latency.
    fn ended(&self, due: Instant, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
        self.total.record(due.elapsed());
    }
}

/// Executes one spec and records its outcome. A failed `begin` counts
/// as an error with no latency; a failed operation aborts; a failed
/// commit call aborts and counts as an error.
fn run_txn<S: Session>(s: &mut S, spec: &TxnSpec, sites: u32, sink: &Sink) {
    let Ok(tid) = s.begin(spec.home) else {
        sink.errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    if txn_body(s, &tid, spec, sites).is_err() {
        s.abort(&tid);
        sink.ended(spec.due, &sink.aborts);
        return;
    }
    let commit_started = Instant::now();
    match s.commit(&tid, spec.mode) {
        Ok(true) => sink.committed(spec.due, commit_started),
        Ok(false) => sink.ended(spec.due, &sink.aborts),
        Err(_) => {
            s.abort(&tid);
            sink.ended(spec.due, &sink.errors);
        }
    }
}

/// Read-only: two reads at home. Update: a read-modify-write on a
/// Zipfian hot key at home (the shape that makes lock-based servers
/// convoy on the S→X upgrade and queued mode pipeline), plus, when
/// distributed, a blind write at the next site.
fn txn_body<S: Session>(s: &mut S, tid: &Tid, spec: &TxnSpec, sites: u32) -> Result<()> {
    if spec.read_only {
        s.read(tid, spec.home, spec.key)?;
        s.read(tid, spec.home, spec.key2)?;
        return Ok(());
    }
    let mut next = s.read(tid, spec.home, spec.key)?;
    next.extend_from_slice(&spec.idx.to_le_bytes());
    next.truncate(8);
    s.write(tid, spec.home, spec.key, next)?;
    if spec.distributed {
        let remote = SiteId(spec.home.0 % sites + 1);
        s.write(tid, remote, spec.key2, spec.idx.to_le_bytes().to_vec())?;
    }
    Ok(())
}

/// JSON for one latency histogram.
pub fn hist_json(h: &Histogram) -> String {
    format!(
        "{{\"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"mean_us\": {}, \
         \"max_us\": {}}}",
        h.count(),
        h.percentile(50.0),
        h.percentile(95.0),
        h.percentile(99.0),
        h.mean_us(),
        h.max_us()
    )
}

/// One measured ladder point.
pub struct Point {
    pub offered_per_sec: f64,
    pub arrivals: u64,
    pub commits: u64,
    pub aborts: u64,
    pub errors: u64,
    pub elapsed_s: f64,
    pub achieved_commits_per_sec: f64,
    /// The share of a committed transaction's life spent inside the
    /// commit call (the paper's §4.1 accounting, applied per
    /// transaction), over committed transactions only.
    pub commit_overhead_pct: f64,
    pub total_lat: Histogram,
    pub commit_lat: Histogram,
    /// The binary's own fields (`"key": value, ...`), appended to the
    /// point's JSON object.
    pub extra_json: String,
}

impl Point {
    fn to_json(&self) -> String {
        let sep = if self.extra_json.is_empty() { "" } else { ", " };
        format!(
            "    {{\"offered_per_sec\": {:.1}, \"arrivals\": {}, \"commits\": {}, \"aborts\": {}, \
             \"errors\": {}, \"elapsed_s\": {:.3}, \"achieved_commits_per_sec\": {:.1}, \
             \"commit_overhead_pct\": {:.1}, \"total_latency\": {}, \"commit_latency\": {}{sep}{}}}",
            self.offered_per_sec,
            self.arrivals,
            self.commits,
            self.aborts,
            self.errors,
            self.elapsed_s,
            self.achieved_commits_per_sec,
            self.commit_overhead_pct,
            hist_json(&self.total_lat),
            hist_json(&self.commit_lat),
            self.extra_json,
        )
    }
}

/// One curve of a ladder: a mode or transport swept over every rate.
pub struct Curve {
    pub name: &'static str,
    /// The highest achieved commit rate on the curve: its knee.
    pub saturation: f64,
    pub points: Vec<Point>,
}

/// What distinguishes one ladder binary's report from the other's.
pub struct Ladder {
    /// The report's `"bench"` field.
    pub bench: &'static str,
    /// What a curve varies (`"mode"`, `"transport"`): labels each curve
    /// in the report and the printed table.
    pub kind: &'static str,
    /// Default report file, at the workspace root.
    pub file: &'static str,
    /// Worker-pool size bounds: a point at rate λ runs λ/4 workers,
    /// clamped to this range.
    pub workers: (usize, usize),
}

impl Ladder {
    /// Runs one point: a pool of workers, each with its own session
    /// from `open`, executes the arrivals this thread paces open-loop
    /// at `rate` for `args.duration_ms`. Returns once every released
    /// transaction has finished; `extra_json` is left empty.
    pub fn run_point<S: Session>(
        &self,
        args: &LadderArgs,
        sites: u32,
        rate: f64,
        open: impl Fn() -> S + Sync,
    ) -> Point {
        let total = ((args.duration_ms as f64 / 1e3) * rate).max(1.0) as u64;
        let workers = ((rate / 4.0) as usize).clamp(self.workers.0, self.workers.1);
        let mut gen = Generator::new(args, sites, rate);
        let sink = Sink::default();
        let (tx, rx) = mpsc::channel::<TxnSpec>();
        let rx = Mutex::new(rx);
        let start = std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut session = open();
                    loop {
                        // The lock is held only for the hand-off.
                        let next = rx.lock().expect("work queue").recv();
                        let Ok(spec) = next else { return };
                        run_txn(&mut session, &spec, sites, &sink);
                    }
                });
            }
            let start = Instant::now();
            let mut ol = OpenLoop::new(start, rate, total);
            while !ol.done() {
                if let Some(due) = ol.next_due() {
                    let now = Instant::now();
                    if due > now {
                        // ≤1 ms granularity keeps release bursts tight.
                        std::thread::sleep(due.duration_since(now).min(Duration::from_millis(1)));
                        continue;
                    }
                }
                let released = ol.released();
                for idx in released..released + ol.due_now(Instant::now()) {
                    if tx.send(gen.spec(idx, ol.due_at(idx))).is_err() {
                        break;
                    }
                }
            }
            drop(tx);
            start
        });
        let elapsed = start.elapsed().as_secs_f64();
        let commits = sink.commits.load(Ordering::Relaxed);
        let total_sum = sink.total_us_sum.load(Ordering::Relaxed);
        let commit_sum = sink.commit_us_sum.load(Ordering::Relaxed);
        Point {
            offered_per_sec: rate,
            arrivals: total,
            commits,
            aborts: sink.aborts.load(Ordering::Relaxed),
            errors: sink.errors.load(Ordering::Relaxed),
            elapsed_s: elapsed,
            achieved_commits_per_sec: commits as f64 / elapsed.max(1e-9),
            commit_overhead_pct: if total_sum == 0 {
                0.0
            } else {
                100.0 * commit_sum as f64 / total_sum as f64
            },
            total_lat: sink.total.snapshot(),
            commit_lat: sink.commit.snapshot(),
            extra_json: String::new(),
        }
    }

    /// Sweeps `args.rates` once per variant, printing a row per point,
    /// and returns one curve per variant. `point` measures one
    /// (variant, rate) pair.
    pub fn sweep<V: Copy>(
        &self,
        args: &LadderArgs,
        variants: &[V],
        name: impl Fn(V) -> &'static str,
        mut point: impl FnMut(V, f64) -> Point,
    ) -> Vec<Curve> {
        let mut curves = Vec::new();
        for &v in variants {
            println!("\n== {}: {} ==", self.kind, name(v));
            println!(
                "offered/s commits/s   aborts  errors    p95_tot    p50_cmt    p95_cmt  overhead%"
            );
            let mut points = Vec::new();
            for &rate in &args.rates {
                let p = point(v, rate);
                println!(
                    "{:>9.0} {:>9.1} {:>8} {:>7} {:>8}us {:>8}us {:>8}us {:>9.1}%",
                    p.offered_per_sec,
                    p.achieved_commits_per_sec,
                    p.aborts,
                    p.errors,
                    p.total_lat.percentile(95.0),
                    p.commit_lat.percentile(50.0),
                    p.commit_lat.percentile(95.0),
                    p.commit_overhead_pct,
                );
                points.push(p);
            }
            let saturation = points
                .iter()
                .map(|p| p.achieved_commits_per_sec)
                .fold(0.0f64, f64::max);
            println!("saturation: {saturation:.1} commits/s");
            curves.push(Curve {
                name: name(v),
                saturation,
                points,
            });
        }
        curves
    }

    /// Writes the stamped report to `--out`, or to [`Ladder::file`] at
    /// the workspace root, and returns the path written. The stamp
    /// hashes `config_text`; `config_head` holds the binary's own
    /// `"config"` fields; `tail` holds its top-level fields, rendered
    /// in order after the curves.
    pub fn write(
        &self,
        args: &LadderArgs,
        config_text: &str,
        config_head: &str,
        curves: &[Curve],
        tail: &[(&str, String)],
    ) -> String {
        let curves = curves
            .iter()
            .map(|c| {
                let points = c.points.iter().map(Point::to_json).collect::<Vec<_>>();
                format!(
                    "  {{\"{}\": \"{}\", \"saturation_commits_per_sec\": {:.1}, \"points\": [\n{}\n  ]}}",
                    self.kind,
                    c.name,
                    c.saturation,
                    points.join(",\n")
                )
            })
            .collect::<Vec<_>>();
        let mut json = format!(
            "{{\n  \"bench\": \"{}\",\n  \"stamp\": {},\n  \"config\": {},\n  \"{}s\": [\n{}\n  ]",
            self.bench,
            stamp_json(config_text),
            args.config_json(config_head),
            self.kind,
            curves.join(",\n")
        );
        for (key, value) in tail {
            json.push_str(&format!(",\n  \"{key}\": {value}"));
        }
        json.push_str("\n}\n");
        let out = args.out.clone().unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(self.file)
                .to_string_lossy()
                .into_owned()
        });
        std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("wrote {out}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_flags_parse_and_the_rest_go_to_the_binary() {
        let mut args = LadderArgs::new(vec![1.0], 8, 10);
        let argv: Vec<String> = ["--rates", "5,10", "--seed", "9", "--mode", "queued"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut own = Vec::new();
        args.parse_from(&argv, |flag, val| {
            own.push(format!("{flag}={val}"));
            flag == "--mode"
        });
        assert_eq!((args.rates, args.seed), (vec![5.0, 10.0], 9));
        assert_eq!(own, vec!["--mode=queued"]);
    }

    #[test]
    fn hist_json_shape() {
        let h = AtomicHistogram::default();
        h.record_us(100);
        h.record_us(200);
        let j = hist_json(&h.snapshot());
        assert!(j.contains("\"count\": 2"), "{j}");
        assert!(j.contains("p99_us"), "{j}");
    }
}
