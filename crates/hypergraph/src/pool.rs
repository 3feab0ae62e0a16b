//! Shared worker-pool primitives for lock-free chunked parallelism.
//!
//! The work-stealing execution strategy of the restreaming engine and the
//! parallel coarsening matcher of the multilevel baseline share the same
//! skeleton: a slice of work items, a team of scoped threads, and a shared
//! atomic cursor handing out fixed-size chunks so fast workers naturally
//! *steal* the share a slow worker never claims. This module holds the two
//! pieces of that skeleton — [`ChunkCursor`] (the lock-free chunk
//! dispenser) and [`run_on_workers`] (spawn once, run the calling thread
//! as worker 0, join) — so both consumers spawn threads once per batch.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// A lock-free dispenser of fixed-size index chunks over `0..len`.
///
/// Every worker loops on [`ChunkCursor::claim`]; the single
/// `fetch_add` per claim is the only synchronisation, so the schedule is
/// self-balancing: a worker stalled on a heavy chunk simply claims fewer
/// chunks while its peers drain the rest.
#[derive(Debug)]
pub struct ChunkCursor {
    next: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl ChunkCursor {
    /// Creates a cursor over `0..len` handing out chunks of (at most)
    /// `chunk` indices. A zero `chunk` is rounded up to 1.
    pub fn new(len: usize, chunk: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
            chunk: chunk.max(1),
        }
    }

    /// Claims the next chunk, or `None` when the range is exhausted. The
    /// final chunk may be shorter than the configured size.
    pub fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        Some(start..(start + self.chunk).min(self.len))
    }

    /// Total number of indices the cursor dispenses.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cursor has nothing to dispense.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Runs `worker(id)` on `num_threads` workers: ids `1..num_threads` on
/// freshly spawned scoped threads and id `0` on the calling thread, then
/// joins. With `num_threads <= 1` no thread is spawned at all — the
/// closure just runs inline, so single-worker callers pay nothing.
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn run_on_workers<F>(num_threads: usize, worker: F)
where
    F: Fn(usize) + Sync,
{
    if num_threads <= 1 {
        worker(0);
        return;
    }
    thread::scope(|scope| {
        let handles: Vec<_> = (1..num_threads)
            .map(|id| {
                let worker = &worker;
                scope.spawn(move || worker(id))
            })
            .collect();
        worker(0);
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn cursor_covers_every_index_exactly_once() {
        let cursor = ChunkCursor::new(1003, 64);
        let mut seen = vec![false; 1003];
        while let Some(range) = cursor.claim() {
            for i in range {
                assert!(!seen[i], "index {i} dispensed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(cursor.claim().is_none());
    }

    #[test]
    fn cursor_handles_empty_and_tiny_ranges() {
        let empty = ChunkCursor::new(0, 16);
        assert!(empty.is_empty());
        assert!(empty.claim().is_none());
        let tiny = ChunkCursor::new(3, 0); // chunk rounded up to 1
        assert_eq!(tiny.len(), 3);
        assert_eq!(tiny.claim(), Some(0..1));
        assert_eq!(tiny.claim(), Some(1..2));
        assert_eq!(tiny.claim(), Some(2..3));
        assert!(tiny.claim().is_none());
    }

    #[test]
    fn workers_drain_a_shared_cursor_completely() {
        for threads in [1usize, 2, 4, 8] {
            let cursor = ChunkCursor::new(10_000, 32);
            let sum = AtomicU64::new(0);
            run_on_workers(threads, |_id| {
                while let Some(range) = cursor.claim() {
                    let local: u64 = range.map(|i| i as u64).sum();
                    sum.fetch_add(local, Ordering::Relaxed);
                }
            });
            assert_eq!(sum.load(Ordering::Relaxed), 9_999 * 10_000 / 2);
        }
    }

    #[test]
    fn single_worker_runs_inline_without_spawning() {
        // id 0 must run on the calling thread when num_threads == 1.
        let caller = thread::current().id();
        // The Fn + Sync bound forbids capturing &mut; go through a Mutex.
        let slot = std::sync::Mutex::new(None);
        run_on_workers(1, |id| {
            *slot.lock().unwrap() = Some((id, thread::current().id()));
        });
        let (id, tid) = slot.into_inner().unwrap().unwrap();
        assert_eq!(id, 0);
        assert_eq!(tid, caller);
    }
}
