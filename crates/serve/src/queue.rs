//! Bounded admission queue with explicit load shedding.
//!
//! The server admits work through this queue; when it is full the
//! request is *shed* — the client gets an immediate `overloaded`
//! response instead of waiting in an unbounded backlog. This is the
//! classic admission-control trade: bounded queueing delay and a fast
//! failure signal instead of ever-growing tail latency under
//! saturation.
//!
//! Closing the queue is graceful: already-admitted jobs drain to the
//! workers; only new pushes are refused. `pop` returns `None` once the
//! queue is both closed and empty, which is the workers' exit signal.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue was at capacity; the request should be shed.
    Full,
    /// The queue is draining for shutdown.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPMC queue: producers shed instead of blocking,
/// consumers block until work arrives or shutdown drains the queue.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

fn relock<G>(r: Result<G, PoisonError<G>>) -> G {
    // A panicking worker must not wedge the whole server; the queue's
    // only invariant is the VecDeque's own, which survives poison.
    r.unwrap_or_else(PoisonError::into_inner)
}

impl<T> AdmissionQueue<T> {
    /// Create a queue admitting at most `capacity` pending items
    /// (rounded up to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of pending items.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admit an item, or refuse immediately — never blocks.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = relock(self.inner.lock());
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until an item is available; `None` means the queue is
    /// closed and fully drained (worker exit signal).
    pub fn pop(&self) -> Option<T> {
        let mut inner = relock(self.inner.lock());
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = relock(self.ready.wait(inner));
        }
    }

    /// Current number of pending items.
    #[must_use]
    pub fn depth(&self) -> usize {
        relock(self.inner.lock()).items.len()
    }

    /// Refuse new pushes and wake all blocked consumers; pending items
    /// still drain.
    pub fn close(&self) {
        relock(self.inner.lock()).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn push_pop_fifo() {
        let q = AdmissionQueue::new(4);
        q.try_push(1).expect("push");
        q.try_push(2).expect("push");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_sheds_immediately() {
        let q = AdmissionQueue::new(2);
        q.try_push(1).expect("push");
        q.try_push(2).expect("push");
        assert_eq!(q.try_push(3), Err(PushError::Full));
        // Draining one slot re-opens admission.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).expect("push after drain");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = AdmissionQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).expect("push");
        assert_eq!(q.try_push(2), Err(PushError::Full));
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = AdmissionQueue::new(4);
        q.try_push(1).expect("push");
        q.try_push(2).expect("push");
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(AdmissionQueue::<u32>::new(4));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            })
            .collect();
        // Give the consumers a moment to block, then close.
        thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().expect("consumer thread"), None);
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_preserve_items() {
        let q = Arc::new(AdmissionQueue::new(8));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut sent = 0u32;
                    for i in 0..500u32 {
                        if q.try_push(t * 1000 + i).is_ok() {
                            sent += 1;
                        }
                        if i % 16 == 0 {
                            thread::yield_now();
                        }
                    }
                    sent
                })
            })
            .collect();
        let sent: u32 = producers
            .into_iter()
            .map(|h| h.join().expect("producer"))
            .sum();
        q.close();
        let received: usize = consumers
            .into_iter()
            .map(|h| h.join().expect("consumer").len())
            .sum();
        assert_eq!(received as u32, sent, "no admitted item may be lost");
    }
}
