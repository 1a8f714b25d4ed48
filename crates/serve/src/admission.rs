//! Admission control: a bounded connection queue between the acceptor
//! and the worker pool.
//!
//! The acceptor thread never blocks on request work; it pushes each
//! accepted connection into this queue. When the queue is full the
//! server *load-sheds*: the connection is answered straight from the
//! acceptor with a 503 + `Retry-After` and closed, so overload degrades
//! into fast, explicit rejections instead of unbounded latency. The
//! current depth is exported as the `serve.queue_depth` gauge.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at capacity — shed the connection.
    Full,
    /// The queue is closed (shutdown in progress).
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with blocking pop, built on `Mutex` + `Condvar`
/// (std-only).
pub struct BoundedQueue<T> {
    cap: usize,
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `cap` items (minimum 1).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Capacity the queue was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("admission mutex poisoned")
            .items
            .len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking push; on rejection the item is handed back so the
    /// caller can shed it (answer 503 and close, for connections).
    pub fn try_push(&self, item: T) -> Result<(), (T, AdmissionError)> {
        let mut state = self.state.lock().expect("admission mutex poisoned");
        if state.closed {
            return Err((item, AdmissionError::Closed));
        }
        if state.items.len() >= self.cap {
            return Err((item, AdmissionError::Full));
        }
        state.items.push_back(item);
        mcast_obs::gauge("serve.queue_depth").set(state.items.len() as i64);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once the queue is closed *and* drained —
    /// the worker-pool exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("admission mutex poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                mcast_obs::gauge("serve.queue_depth").set(state.items.len() as i64);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("admission mutex poisoned");
        }
    }

    /// Close the queue: future pushes fail, queued items still drain,
    /// and poppers wake up to observe the close.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("admission mutex poisoned");
        state.closed = true;
        drop(state);
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sheds_when_full_and_recovers() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err((3, AdmissionError::Full)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err((3, AdmissionError::Closed)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_poppers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.try_push(7).unwrap();
        q.close();
        let mut got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(7)]);
    }
}
