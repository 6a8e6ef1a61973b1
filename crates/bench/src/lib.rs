//! Shared plumbing for the benchmark targets.
//!
//! Each `benches/*.rs` target reproduces one table or figure from the
//! paper via `camelot-harness` and prints the report. `QUICK=1` in the
//! environment shrinks repetition counts (useful in CI).
//!
//! The open-loop ladders `camelot-load` and `camelot-sockbench` share
//! one [`driver`]: flags, seeded generator, pacer, worker pool,
//! transaction body and report writer. Their knees are compared across
//! runs by [`diff`] (`camelot-bench-diff`); `camelot-load` and the
//! `rt_scaling` bench share the protocol-cost [`audit`]. The workload generator's
//! building blocks, [`OpenLoop`], [`SplitMix64`] and [`Zipf`], are
//! public for other load drivers.

pub mod audit;
pub mod diff;
pub mod driver;
pub mod openloop;
pub mod zipf;

pub use openloop::OpenLoop;
pub use zipf::{SplitMix64, Zipf};

/// True when the `QUICK` environment variable asks for short runs.
pub fn quick() -> bool {
    std::env::var("QUICK").map(|v| v == "1").unwrap_or(false)
}
