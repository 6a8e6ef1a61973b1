//! Tier-1 tests for the load-generator building blocks: the seeded
//! Zipfian sampler, the open-loop arrival schedule, and the ladder
//! driver's transaction stream. These gate the believability of every
//! `camelot-load` and `camelot-sockbench` curve — a skewless sampler,
//! a drifting pacer or a stream that differs between the two ladders
//! would invalidate their results silently.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use camelot_bench::driver::{Ladder, LadderArgs, Session};
use camelot_bench::{OpenLoop, SplitMix64, Zipf};
use camelot_core::CommitMode;
use camelot_types::{CamelotError, FamilyId, ObjectId, Result, SiteId, Tid};

#[test]
fn zipf_is_deterministic_for_a_seed() {
    let z = Zipf::new(512, 0.99);
    let draw = |seed: u64| -> Vec<usize> {
        let mut rng = SplitMix64::new(seed);
        (0..1000).map(|_| z.sample(&mut rng)).collect()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
}

#[test]
fn zipf_hot_key_frequency_matches_theory() {
    let z = Zipf::new(256, 0.99);
    let mut rng = SplitMix64::new(42);
    let n = 200_000;
    let mut counts = vec![0u64; z.keys()];
    for _ in 0..n {
        counts[z.sample(&mut rng)] += 1;
    }
    // The hottest key's empirical frequency should sit within 5%
    // (relative) of its theoretical mass at this sample size.
    let empirical = counts[0] as f64 / n as f64;
    let theory = z.hottest_mass();
    assert!(
        (empirical - theory).abs() / theory < 0.05,
        "hot key frequency {empirical:.4} vs theoretical {theory:.4}"
    );
    // Skew sanity: frequency decays along rank. Compare coarse rank
    // bands (individual adjacent ranks are too noisy in the tail).
    let band = |lo: usize, hi: usize| counts[lo..hi].iter().sum::<u64>();
    assert!(band(0, 4) > band(4, 16));
    assert!(band(4, 16) > band(64, 76));
    // And the skew is real: top-10 of 256 keys draws well over the
    // uniform share (10/256 ≈ 4%).
    assert!(band(0, 10) as f64 / n as f64 > 0.30);
}

#[test]
fn zipf_theta_zero_is_roughly_uniform() {
    let z = Zipf::new(64, 0.0);
    let mut rng = SplitMix64::new(9);
    let n = 64_000;
    let mut counts = vec![0u64; z.keys()];
    for _ in 0..n {
        counts[z.sample(&mut rng)] += 1;
    }
    let expected = n as f64 / 64.0;
    for (rank, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64 - expected).abs() / expected < 0.25,
            "rank {rank}: {c} vs uniform {expected}"
        );
    }
}

#[test]
fn open_loop_offered_rate_is_met_with_noop_consumer() {
    // Drive the schedule in real time against a no-op "engine" and
    // check the achieved release rate tracks the offered rate. A
    // drifting pacer here means every bench curve mislabels its
    // x-axis.
    let rate = 2000.0;
    let total = 1000u64; // 0.5 s of arrivals
    let start = Instant::now();
    let mut ol = OpenLoop::new(start, rate, total);
    let mut released = 0u64;
    while !ol.done() {
        if let Some(due) = ol.next_due() {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due.duration_since(now).min(Duration::from_millis(1)));
                continue;
            }
        }
        released += ol.due_now(Instant::now());
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(released, total);
    let achieved = total as f64 / elapsed;
    // Within 15% of offered: sleep granularity costs a little, but
    // the burst-release catch-up keeps the long-run rate honest.
    assert!(
        (achieved - rate).abs() / rate < 0.15,
        "achieved {achieved:.0}/s vs offered {rate:.0}/s"
    );
}

#[test]
fn open_loop_latency_is_measured_from_scheduled_arrival() {
    // due_at(i) must be start + i/rate exactly, independent of when
    // (or whether) the harness got around to releasing arrival i —
    // that is what makes backlog count against the system.
    let start = Instant::now();
    let ol = OpenLoop::new(start, 100.0, 50);
    for i in [0u64, 1, 10, 49] {
        let expect = start + Duration::from_secs_f64(i as f64 / 100.0);
        let got = ol.due_at(i);
        let delta = if got > expect {
            got.duration_since(expect)
        } else {
            expect.duration_since(got)
        };
        assert!(
            delta < Duration::from_micros(50),
            "arrival {i}: off by {delta:?}"
        );
    }
}

/// Logs every call the driver makes; commits everything except
/// transactions that write off their home site, whose remote write
/// fails so they abort.
struct Recorder<'a> {
    log: &'a Mutex<Vec<String>>,
    home: SiteId,
}

impl Recorder<'_> {
    fn log(&self, call: String) {
        self.log.lock().unwrap().push(call);
    }
}

impl Session for Recorder<'_> {
    fn begin(&mut self, home: SiteId) -> Result<Tid> {
        self.home = home;
        self.log(format!("begin {}", home.0));
        Ok(Tid::top_level(FamilyId {
            origin: home,
            seq: 1,
        }))
    }
    fn read(&mut self, _: &Tid, site: SiteId, key: ObjectId) -> Result<Vec<u8>> {
        self.log(format!("read {}:{}", site.0, key.0));
        Ok(vec![1, 2])
    }
    fn write(&mut self, _: &Tid, site: SiteId, key: ObjectId, v: Vec<u8>) -> Result<Vec<u8>> {
        self.log(format!("write {}:{} {v:?}", site.0, key.0));
        if site == self.home {
            Ok(vec![])
        } else {
            Err(CamelotError::SiteDown(site))
        }
    }
    fn abort(&mut self, _: &Tid) {
        self.log("abort".into());
    }
    fn commit(&mut self, _: &Tid, mode: CommitMode) -> Result<bool> {
        self.log(format!("commit {mode:?}"));
        Ok(true)
    }
}

/// An independent statement of the ladder workload: the calls the
/// driver must make for arrivals `0..n`. It pins the generator's draw
/// order (read-only roll, distributed roll for updates only,
/// non-blocking roll, key, key2), so the recorded ladders' stamped
/// workloads stay reproducible.
fn reference_calls(args: &LadderArgs, sites: u64, rate: f64, n: u64) -> Vec<String> {
    let zipf = Zipf::new(args.keys, args.theta);
    let mut rng = SplitMix64::new(args.seed ^ (rate as u64));
    let mut calls = Vec::new();
    for idx in 0..n {
        let roll = rng.next_below(100);
        let read_only = roll < args.read_pct;
        let distributed = !read_only && rng.next_below(100) < args.dist_pct;
        let nonblocking = rng.next_below(100) < args.nb_pct;
        let home = idx % sites + 1;
        let (key, key2) = (zipf.sample(&mut rng), zipf.sample(&mut rng));
        calls.push(format!("begin {home}"));
        calls.push(format!("read {home}:{key}"));
        if read_only {
            calls.push(format!("read {home}:{key2}"));
        } else {
            let mut next = vec![1, 2];
            next.extend_from_slice(&idx.to_le_bytes());
            next.truncate(8);
            calls.push(format!("write {home}:{key} {next:?}"));
            if distributed {
                let idx = idx.to_le_bytes().to_vec();
                calls.push(format!("write {}:{key2} {idx:?}", home % sites + 1));
                calls.push("abort".into());
                continue;
            }
        }
        let mode = if nonblocking {
            "NonBlocking"
        } else {
            "TwoPhase"
        };
        calls.push(format!("commit {mode}"));
    }
    calls
}

#[test]
fn one_seed_and_rate_yield_one_transaction_stream_for_both_ladders() {
    let rate = 20_000.0;
    // camelot-load's shape (2 sites, 256 keys), camelot-sockbench's
    // (3 sites, 64 keys) and its QUICK shape (2 sites, 64 keys).
    for (sites, keys) in [(2u32, 256), (3, 64), (2, 64)] {
        let args = LadderArgs::new(vec![rate], keys, 100);
        let expected = reference_calls(&args, sites as u64, rate, 2000);
        let aborts = expected.iter().filter(|c| *c == "abort").count() as u64;
        assert!(aborts > 0 && expected.iter().any(|c| c == "commit NonBlocking"));
        let mut sorted = expected.clone();
        sorted.sort();
        // One worker keeps the calls in arrival order; a pool of many
        // must still run every arrival exactly once.
        for workers in [(1, 1), (4, 8)] {
            let ladder = Ladder {
                bench: "test",
                kind: "mode",
                file: "unused.json",
                workers,
            };
            let log = Mutex::new(Vec::new());
            let p = ladder.run_point(&args, sites, rate, || Recorder {
                log: &log,
                home: SiteId(1),
            });
            let mut calls = log.into_inner().unwrap();
            assert_eq!(p.arrivals, 2000);
            assert_eq!((p.commits, p.aborts, p.errors), (2000 - aborts, aborts, 0));
            assert_eq!(p.total_lat.count(), 2000);
            assert_eq!(p.commit_lat.count(), p.commits);
            let want = if workers.1 > 1 {
                calls.sort();
                &sorted
            } else {
                &expected
            };
            assert_eq!(
                &calls, want,
                "sites={sites} keys={keys} workers={workers:?}"
            );
        }
    }
}
