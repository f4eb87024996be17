//! Fixed-capacity event ring buffer.
//!
//! A machine with an attached event ring stores the most recent events
//! in a preallocated ring: pushes never allocate after construction,
//! and when the ring is full the oldest event is overwritten (the
//! `dropped` counter records how many were lost). This bounds tracing
//! memory on billion-instruction runs while keeping the interesting
//! tail — the steady state — intact.

use crate::event::TraceEvent;

/// Default ring capacity: the 64 Ki most recent events.
pub const DEFAULT_CAPACITY: usize = 64 << 10;

/// A wraparound buffer of the most recent [`TraceEvent`]s.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the slot the next push writes.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        EventRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever pushed (retained + dropped).
    pub fn pushed(&self) -> u64 {
        self.dropped + self.buf.len() as u64
    }

    /// Records an event, overwriting the oldest one when full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.dropped += 1;
        }
        // Wrap with a branch, not `%`: a divide on every trace emit is
        // measurable on the hot path, the branch predicts perfectly.
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let split = if self.buf.len() < self.capacity {
            0
        } else {
            self.head
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// The retained events as a vector, oldest first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.iter().copied().collect()
    }

    /// Forgets all retained events (the drop counter is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(at: u64) -> TraceEvent {
        TraceEvent {
            at,
            kind: EventKind::L2Miss,
        }
    }

    #[test]
    fn fills_then_wraps() {
        let mut r = EventRing::new(4);
        for t in 0..4 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        let at: Vec<u64> = r.iter().map(|e| e.at).collect();
        assert_eq!(at, vec![0, 1, 2, 3]);

        // Two more: 0 and 1 are overwritten, order stays chronological.
        r.push(ev(4));
        r.push(ev(5));
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.pushed(), 6);
        let at: Vec<u64> = r.iter().map(|e| e.at).collect();
        assert_eq!(at, vec![2, 3, 4, 5]);
    }

    #[test]
    fn wraparound_many_times() {
        let mut r = EventRing::new(3);
        for t in 0..100 {
            r.push(ev(t));
        }
        assert_eq!(r.dropped(), 97);
        let at: Vec<u64> = r.to_vec().iter().map(|e| e.at).collect();
        assert_eq!(at, vec![97, 98, 99]);
    }

    #[test]
    fn partial_fill_iterates_in_order() {
        let mut r = EventRing::new(8);
        r.push(ev(10));
        r.push(ev(20));
        let at: Vec<u64> = r.iter().map(|e| e.at).collect();
        assert_eq!(at, vec![10, 20]);
        assert!(!r.is_empty());
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        EventRing::new(0);
    }
}
