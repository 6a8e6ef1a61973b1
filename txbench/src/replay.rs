//! Device replay: append and force the workload's own log records
//! through `Wal<FileStore>` on the benchmark's filesystem and through
//! `Wal<MemStore>`, so the output shows what the device adds per force.

use std::path::Path;

use camelot_wal::{FileStore, LogRecord, MemStore, Wal};

use crate::spans::Tracing;

/// Records replayed per run.
const RECORDS: usize = 2_000;

/// Replays the last records of the log at `log`, forcing after every
/// `group` appends (the workload's records per effective force).
/// Spans: `wal.append` and `wal.force_disk` for the file-backed log,
/// `wal.force` for the in-memory one.
pub fn replay(
    log: &Path,
    scratch_file: &Path,
    group: usize,
    tracing: &Tracing,
) -> camelot_types::Result<()> {
    let records: Vec<LogRecord> = {
        let mut wal = Wal::new(FileStore::open(log)?);
        let all = wal.recover()?;
        let skip = all.len().saturating_sub(RECORDS);
        all.into_iter().skip(skip).map(|(_, r)| r).collect()
    };
    let _ = std::fs::remove_file(scratch_file);
    let mut disk = Wal::new(FileStore::open(scratch_file)?);
    let mut mem = Wal::new(MemStore::new());
    let span = |name, f: &mut dyn FnMut() -> camelot_types::Result<()>| {
        tracing.around_id(tracing.reserve(), name, None, None, f)
    };
    for chunk in records.chunks(group.max(1)) {
        for rec in chunk {
            span("wal.append", &mut || disk.append(rec).map(|_| ()))?;
            mem.append(rec)?;
        }
        span("wal.force", &mut || mem.force().map(|_| ()))?;
        span("wal.force_disk", &mut || disk.force().map(|_| ()))?;
    }
    drop(disk);
    let _ = std::fs::remove_file(scratch_file);
    Ok(())
}
