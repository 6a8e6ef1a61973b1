//! The correctness gate: every key's state must be the value of an
//! acknowledged write that no later acknowledged write superseded, and
//! must survive shutdown and recovery unchanged.
//!
//! Every write stores a value unique to its (transaction, key) pair,
//! so a value names the write that produced it.

use std::collections::HashMap;

/// How a transaction ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Committed,
    /// Aborted, errored, or never run: its writes must not survive.
    NotCommitted,
}

/// The value a transaction writes to `(site, key)`. `tag` is the
/// arrival index, or `None` for the preload.
pub fn value(tag: Option<u64>, site: u32, key: u64) -> Vec<u8> {
    match tag {
        Some(a) => format!("a{a}/s{site}/k{key}").into_bytes(),
        None => format!("p/s{site}/k{key}").into_bytes(),
    }
}

struct Write {
    start_ns: u64,
    end_ns: u64,
    status: Status,
    value: Vec<u8>,
}

/// Every write the benchmark issued, by key.
#[derive(Default)]
pub struct History {
    writes: HashMap<(u32, u64), Vec<Write>>,
}

impl History {
    /// Records a write made by a transaction that started (was
    /// released) at `start_ns` and whose commit returned at `end_ns`.
    pub fn add(
        &mut self,
        site: u32,
        key: u64,
        tag: Option<u64>,
        start_ns: u64,
        end_ns: u64,
        status: Status,
    ) {
        self.writes.entry((site, key)).or_default().push(Write {
            start_ns,
            end_ns,
            status,
            value: value(tag, site, key),
        });
    }

    /// Checks one key's observed value. The value must come from a
    /// committed write that was not followed, in real time, by another
    /// committed write to the key: the last acknowledged write, or one
    /// of the acknowledged writes that overlapped it.
    pub fn check_key(&self, site: u32, key: u64, observed: &[u8]) -> Result<(), String> {
        let empty = Vec::new();
        let writes = self.writes.get(&(site, key)).unwrap_or(&empty);
        let latest_start = writes
            .iter()
            .filter(|w| w.status == Status::Committed)
            .map(|w| w.start_ns)
            .max();
        let show = String::from_utf8_lossy(observed);
        let Some(latest_start) = latest_start else {
            return if observed.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "site {site} key {key}: holds {show:?}, but no write committed"
                ))
            };
        };
        match writes.iter().find(|w| w.value == observed) {
            Some(w) if w.status == Status::NotCommitted => Err(format!(
                "site {site} key {key}: holds {show:?} from a transaction that did not commit"
            )),
            Some(w) if w.end_ns < latest_start => Err(format!(
                "site {site} key {key}: holds {show:?}, lost a later acknowledged write"
            )),
            Some(_) => Ok(()),
            None => Err(format!(
                "site {site} key {key}: holds {show:?}, which no transaction wrote"
            )),
        }
    }
}

/// Collects mismatches, keeping the first few messages.
#[derive(Default)]
pub struct Verdict {
    pub checked: u64,
    pub mismatches: u64,
    pub first: Vec<String>,
}

impl Verdict {
    pub fn note(&mut self, r: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = r {
            self.mismatches += 1;
            if self.first.len() < 5 {
                self.first.push(e);
            }
        }
    }

    pub fn ok(&self) -> bool {
        self.mismatches == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> History {
        let mut h = History::default();
        // Preload, then: arrival 1 commits, arrival 2 aborts, arrivals
        // 3 and 4 overlap and both commit after arrival 1.
        h.add(1, 7, None, 0, 0, Status::Committed);
        h.add(1, 7, Some(1), 10, 20, Status::Committed);
        h.add(1, 7, Some(2), 22, 25, Status::NotCommitted);
        h.add(1, 7, Some(3), 30, 50, Status::Committed);
        h.add(1, 7, Some(4), 40, 60, Status::Committed);
        h
    }

    #[test]
    fn last_or_overlapping_acknowledged_write_passes() {
        let h = history();
        assert!(h.check_key(1, 7, &value(Some(3), 1, 7)).is_ok());
        assert!(h.check_key(1, 7, &value(Some(4), 1, 7)).is_ok());
    }

    #[test]
    fn planted_lost_write_fails() {
        let h = history();
        let e = h.check_key(1, 7, &value(Some(1), 1, 7)).unwrap_err();
        assert!(e.contains("lost"), "{e}");
        let e = h.check_key(1, 7, &value(None, 1, 7)).unwrap_err();
        assert!(e.contains("lost"), "{e}");
    }

    #[test]
    fn planted_aborted_value_fails() {
        let h = history();
        let e = h.check_key(1, 7, &value(Some(2), 1, 7)).unwrap_err();
        assert!(e.contains("did not commit"), "{e}");
    }

    #[test]
    fn unknown_and_unwritten_values_fail() {
        let h = history();
        assert!(h.check_key(1, 7, b"garbage").is_err());
        assert!(h.check_key(1, 7, b"").is_err());
        // A key nobody wrote must read empty.
        assert!(h.check_key(2, 7, b"").is_ok());
        assert!(h.check_key(2, 7, &value(Some(3), 1, 7)).is_err());
    }

    #[test]
    fn verdict_counts_mismatches() {
        let h = history();
        let mut v = Verdict::default();
        v.note(h.check_key(1, 7, &value(Some(4), 1, 7)));
        v.note(h.check_key(1, 7, &value(Some(2), 1, 7)));
        assert_eq!((v.checked, v.mismatches, v.ok()), (2, 1, false));
    }
}
