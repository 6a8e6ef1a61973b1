//! The router's delay queue: every in-flight intra-cluster datagram
//! and every armed engine timer, ordered by due time.
//!
//! A min-heap on `(at, seq)`, the discipline of `camelot_sim`'s
//! scheduler: the next wake-up is the head's deadline, and due entries
//! come out earliest first, ties in arrival order. Cancellation is
//! lazy — a cancelled timer stays in the heap and is skipped when it
//! comes due — because a cancel can reach the router before the timer
//! it names: the engine's actions are applied with no locks held, so
//! two workers' sends may land in either order.
//!
//! Timers are keyed by the site's crash incarnation as well as their
//! token. A restarted site's engines count tokens from the start
//! again, so a timer armed before the crash must neither fire into,
//! nor be cancelled by, a timer of the new incarnation that happens to
//! share its number. Datagrams carry no key: traffic in flight on the
//! network legitimately survives the receiver's restart.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::time::Instant;

use camelot_core::{Input, TimerToken};
use camelot_types::SiteId;

/// One engine timer, named unambiguously across crashes of its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TimerKey {
    pub site: SiteId,
    /// The site's incarnation when the timer was set or cancelled.
    pub incarnation: u64,
    pub token: TimerToken,
}

struct Entry {
    at: Instant,
    seq: u64,
    to: SiteId,
    input: Input,
    timer: Option<TimerKey>,
}

// `BinaryHeap` is a max-heap; the ordering is reversed so the earliest
// `(at, seq)` pops first. Only `at` and `seq` take part.
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Pending deliveries, earliest first, with lazy timer cancellation.
#[derive(Default)]
pub(crate) struct DelayQueue {
    heap: BinaryHeap<Entry>,
    cancelled: HashSet<TimerKey>,
    next_seq: u64,
}

impl DelayQueue {
    /// Queues `input` for delivery to `to` at `at`; `timer` names it
    /// if it is an engine timer firing.
    pub fn push(&mut self, at: Instant, to: SiteId, input: Input, timer: Option<TimerKey>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at,
            seq,
            to,
            input,
            timer,
        });
    }

    /// Cancels the timer `key`, whether or not it has been queued yet.
    pub fn cancel(&mut self, key: TimerKey) {
        self.cancelled.insert(key);
    }

    /// When the earliest entry (possibly a cancelled one) is due.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|e| e.at)
    }

    /// Removes and returns the earliest entry due at `now` that is
    /// still to be delivered, skipping cancelled timers and timers set
    /// in an incarnation of their site older than `incarnation(site)`.
    pub fn pop_due(
        &mut self,
        now: Instant,
        incarnation: impl Fn(SiteId) -> u64,
    ) -> Option<(SiteId, Input)> {
        while self.heap.peek().is_some_and(|e| e.at <= now) {
            let e = self.heap.pop().expect("peeked entry exists");
            if let Some(key) = e.timer {
                if self.cancelled.remove(&key) || key.incarnation < incarnation(key.site) {
                    continue;
                }
            }
            return Some((e.to, e.input));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const S1: SiteId = SiteId(1);
    const S2: SiteId = SiteId(2);

    fn fired(token: u64) -> Input {
        Input::TimerFired {
            token: TimerToken(token),
        }
    }

    fn key(site: SiteId, incarnation: u64, token: u64) -> TimerKey {
        TimerKey {
            site,
            incarnation,
            token: TimerToken(token),
        }
    }

    /// Arms timer `token` at `site` (incarnation 0) to fire at `at`.
    fn arm(q: &mut DelayQueue, at: Instant, site: SiteId, token: u64) {
        q.push(at, site, fired(token), Some(key(site, 0, token)));
    }

    /// Every token delivered at `now`, in delivery order, with every
    /// site at incarnation `inc`.
    fn drain(q: &mut DelayQueue, now: Instant, inc: u64) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some((_, input)) = q.pop_due(now, |_| inc) {
            match input {
                Input::TimerFired { token } => out.push(token.0),
                other => panic!("unexpected input {other:?}"),
            }
        }
        out
    }

    #[test]
    fn due_entries_come_out_by_deadline_then_arrival() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut q = DelayQueue::default();
        arm(&mut q, ms(30), S1, 1);
        arm(&mut q, ms(10), S2, 2);
        arm(&mut q, ms(20), S1, 3);
        arm(&mut q, ms(10), S1, 4);
        arm(&mut q, ms(10), S2, 5);
        arm(&mut q, ms(50), S1, 6);
        assert_eq!(q.next_deadline(), Some(ms(10)));
        // Nothing is due before the head's deadline.
        assert_eq!(drain(&mut q, ms(9), 0), Vec::<u64>::new());
        // Same deadline: arrival order, whatever the destination.
        assert_eq!(drain(&mut q, ms(10), 0), vec![2, 4, 5]);
        assert_eq!(drain(&mut q, ms(40), 0), vec![3, 1]);
        assert_eq!(q.next_deadline(), Some(ms(50)));
        assert_eq!(drain(&mut q, ms(50), 0), vec![6]);
        assert_eq!(q.next_deadline(), None);
    }

    #[test]
    fn cancel_before_its_timer_arrives_still_suppresses_it() {
        let t0 = Instant::now();
        let mut q = DelayQueue::default();
        q.cancel(key(S1, 0, 7));
        arm(&mut q, t0, S1, 7);
        arm(&mut q, t0, S1, 8);
        assert_eq!(drain(&mut q, t0, 0), vec![8]);
    }

    #[test]
    fn cancelled_head_neither_stalls_nor_reorders_later_entries() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut q = DelayQueue::default();
        arm(&mut q, ms(5), S1, 1);
        arm(&mut q, ms(6), S1, 2);
        arm(&mut q, ms(6), S2, 3);
        arm(&mut q, ms(7), S1, 4);
        q.cancel(key(S1, 0, 1));
        // The cancelled head still sets the wake-up…
        assert_eq!(q.next_deadline(), Some(ms(5)));
        // …and is skipped, not returned, when it comes due.
        assert_eq!(drain(&mut q, ms(5), 0), Vec::<u64>::new());
        assert_eq!(drain(&mut q, ms(7), 0), vec![2, 3, 4]);
    }

    #[test]
    fn a_cancel_suppresses_only_its_own_token() {
        let t0 = Instant::now();
        let mut q = DelayQueue::default();
        arm(&mut q, t0, S1, 1);
        arm(&mut q, t0, S1, 2);
        // Same token, other site: a different timer.
        arm(&mut q, t0, S2, 1);
        q.cancel(key(S1, 0, 1));
        assert_eq!(drain(&mut q, t0, 0), vec![2, 1]);
    }

    #[test]
    fn timers_of_an_older_incarnation_are_dropped() {
        let t0 = Instant::now();
        let mut q = DelayQueue::default();
        // Armed before a crash; the site has since restarted.
        q.push(t0, S1, fired(1), Some(key(S1, 0, 1)));
        // The restarted engine reuses token 1.
        q.push(t0, S1, fired(1), Some(key(S1, 1, 1)));
        assert_eq!(drain(&mut q, t0, 1), vec![1]);
        // The dropped entry's queue slot is gone, not merely hidden.
        assert_eq!(q.next_deadline(), None);
    }

    #[test]
    fn a_cancel_from_an_older_incarnation_spares_the_new_timer() {
        let t0 = Instant::now();
        let mut q = DelayQueue::default();
        // A cancel left behind by the previous incarnation (its timer
        // had already fired) must not swallow a reused token.
        q.cancel(key(S1, 0, 3));
        q.push(t0, S1, fired(3), Some(key(S1, 1, 3)));
        assert_eq!(drain(&mut q, t0, 1), vec![3]);
    }

    #[test]
    fn datagrams_survive_the_receivers_restart() {
        let t0 = Instant::now();
        let mut q = DelayQueue::default();
        // No timer key: delivered whatever the site's incarnation.
        q.push(t0, S1, fired(9), None);
        let due = q.pop_due(t0, |_| 5).map(|(to, _)| to);
        assert_eq!(due, Some(S1));
    }
}
