//! A bounded blocking queue for sample chunks.
//!
//! The gateway pipeline moves sample chunks from the producer thread (which
//! owns the [`crate::source::StreamSource`] or the daemon's socket reader)
//! to the detector through a `Mutex<VecDeque<T>>` and two condition
//! variables: [`RingConsumer::pop`] parks on `not_empty`, a blocking
//! [`RingProducer::push`] on `not_full`. Nobody spins, so an idle stream
//! costs no CPU, and a chunk is thousands of samples, so one uncontended
//! lock per hand-off is noise beside the copy that fills it.
//!
//! Every operation runs under that lock, so the producer may also pop: the
//! drop-oldest policy ([`RingProducer::force_push`]) removes and counts the
//! oldest chunk of a full ring instead of blocking the socket reader.
//! Dropping the producer closes the ring (the consumer drains it, then sees
//! the end of stream); dropping the consumer fails every later push, and
//! one already parked on a full ring.

use netscatter_obs::{Counter, Gauge, Histogram};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Producer-side pressure telemetry for one ring, shared out with
/// [`RingProducer::set_telemetry`]. Only the producer (the one thread that
/// feels backpressure) records, so every write is an uncontended relaxed
/// atomic. The high-water mark answers "how close did this stream come to
/// dropping?"; the wait histogram prices [`OverflowPolicy::Block`].
#[derive(Debug, Default)]
pub struct RingTelemetry {
    /// Highest queue depth observed immediately after a push.
    pub occupancy_hwm: Gauge,
    /// Pushes that found every slot taken (then waited, or displaced).
    pub full_events: Counter,
    /// Nanoseconds a blocking [`RingProducer::push`] waited for a free
    /// slot, one observation per full event it outlasted.
    pub block_wait_ns: Histogram,
}

/// What the producer does when the ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Wait until the consumer frees a slot: lossless, and the policy of
    /// [`crate::pipeline::run_stream`], whose replayable source can wait.
    #[default]
    Block,
    /// Displace the oldest queued item and count it as dropped (lossy; the
    /// producer never blocks). The policy of the daemon's socket ingest,
    /// where blocking the reader would stall the TCP peer instead.
    DropOldest,
}

/// Everything the lock guards.
struct Queue<T> {
    items: VecDeque<T>,
    /// The producer is gone: `pop` ends the stream once `items` is empty.
    closed: bool,
    /// The consumer is gone: nobody will ever drain us, so pushes fail.
    consumer_gone: bool,
    /// Items displaced by [`RingProducer::force_push`] since creation.
    dropped: u64,
}

/// Shared state of one ring.
struct Shared<T> {
    queue: Mutex<Queue<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Takes the guard out of a lock or wait result. No user code runs under
/// the lock, so even a poisoned mutex guards a consistent queue.
fn guard<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// The producing half of a ring created by [`spsc_ring`].
pub struct RingProducer<T> {
    ring: Arc<Shared<T>>,
    telemetry: Arc<RingTelemetry>,
}

/// The consuming half of a ring created by [`spsc_ring`].
pub struct RingConsumer<T> {
    ring: Arc<Shared<T>>,
}

/// Creates a bounded blocking queue holding at most `capacity` items
/// (clamped to ≥ 1) and returns its single-producer/single-consumer halves.
pub fn spsc_ring<T: Send>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    let capacity = capacity.max(1);
    let ring = Arc::new(Shared {
        queue: Mutex::new(Queue {
            items: VecDeque::with_capacity(capacity),
            closed: false,
            consumer_gone: false,
            dropped: 0,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    let producer = RingProducer {
        ring: ring.clone(),
        telemetry: Arc::default(),
    };
    (producer, RingConsumer { ring })
}

impl<T: Send> RingProducer<T> {
    /// Records pressure into `telemetry` from now on instead of the private
    /// instance a new ring starts with; attach before the first push.
    pub fn set_telemetry(&mut self, telemetry: Arc<RingTelemetry>) {
        self.telemetry = telemetry;
    }

    /// Queues `item`, releases the lock and wakes a parked consumer.
    fn enqueue(&self, mut queue: MutexGuard<'_, Queue<T>>, item: T) {
        queue.items.push_back(item);
        let depth = queue.items.len() as u64;
        self.telemetry.occupancy_hwm.record_max(depth);
        drop(queue);
        self.ring.not_empty.notify_one();
    }

    /// Pushes `item`, parking while the ring is full. Gives the item back if
    /// the consumer handle was dropped, before the call or while it waited.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut queue = guard(self.ring.queue.lock());
        if queue.items.len() >= self.ring.capacity {
            self.telemetry.full_events.incr();
            let started = Instant::now();
            queue = guard(self.ring.not_full.wait_while(queue, |q| {
                q.items.len() >= self.ring.capacity && !q.consumer_gone
            }));
            if !queue.consumer_gone {
                let waited = started.elapsed();
                self.telemetry.block_wait_ns.record_duration(waited);
            }
        }
        if queue.consumer_gone {
            return Err(item);
        }
        self.enqueue(queue, item);
        Ok(())
    }

    /// Pushes `item` without ever blocking — the drop-oldest policy: a full
    /// ring gives up (and drops) its oldest item to make room. Returns how
    /// many items that displaced (0 or 1; [`RingProducer::dropped`] totals
    /// them), or the item back if the consumer handle was dropped.
    pub fn force_push(&self, item: T) -> Result<u64, T> {
        let mut queue = guard(self.ring.queue.lock());
        if queue.consumer_gone {
            return Err(item);
        }
        let mut oldest = None; // dropped on return, outside the lock
        if queue.items.len() >= self.ring.capacity {
            oldest = queue.items.pop_front();
            queue.dropped += 1;
            self.telemetry.full_events.incr();
        }
        self.enqueue(queue, item);
        Ok(u64::from(oldest.is_some()))
    }

    /// Items displaced by [`RingProducer::force_push`] since creation.
    pub fn dropped(&self) -> u64 {
        guard(self.ring.queue.lock()).dropped
    }

    /// Whether nothing is queued: the consumer has taken every item pushed
    /// so far that was not displaced.
    pub fn is_empty(&self) -> bool {
        guard(self.ring.queue.lock()).items.is_empty()
    }
}

impl<T> Drop for RingProducer<T> {
    fn drop(&mut self) {
        guard(self.ring.queue.lock()).closed = true;
        self.ring.not_empty.notify_one();
    }
}

impl<T: Send> RingConsumer<T> {
    /// Pops the next item, parking while the ring is empty. Returns `None`
    /// once the producer was dropped *and* every queued item is drained.
    pub fn pop(&self) -> Option<T> {
        let queue = guard(self.ring.queue.lock());
        let idle = |q: &mut Queue<T>| q.items.is_empty() && !q.closed;
        let mut queue = guard(self.ring.not_empty.wait_while(queue, idle));
        let item = queue.items.pop_front()?;
        drop(queue);
        self.ring.not_full.notify_one();
        Some(item)
    }
}

impl<T> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        guard(self.ring.queue.lock()).consumer_gone = true;
        self.ring.not_full.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn items_arrive_in_order_across_threads() {
        let (tx, rx) = spsc_ring::<u64>(4);
        let handle = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                tx.push(i).expect("consumer alive");
            }
            // tx drops here, closing the ring.
        });
        let mut next = 0u64;
        while let Some(v) = rx.pop() {
            assert_eq!(v, next);
            next += 1;
        }
        assert_eq!(next, 10_000);
        handle.join().unwrap();
    }

    #[test]
    fn capacity_one_ping_pong_loses_no_wakeup() {
        // One slot each way: every push parks until the peer pops and every
        // pop parks until the peer pushes, so a single lost wake-up in
        // either direction hangs this test instead of passing it.
        let (ping_tx, ping_rx) = spsc_ring::<u32>(1);
        let (pong_tx, pong_rx) = spsc_ring::<u32>(1);
        let echo = std::thread::spawn(move || {
            while let Some(v) = ping_rx.pop() {
                pong_tx.push(v).expect("main thread alive");
            }
        });
        for i in 0..10_000u32 {
            ping_tx.push(i).expect("echo thread alive");
            assert_eq!(pong_rx.pop(), Some(i));
        }
        drop(ping_tx);
        echo.join().unwrap();
        assert_eq!(pong_rx.pop(), None);
    }

    #[test]
    fn capacity_bounds_inflight_items_and_drains_after_close() {
        let (tx, rx) = spsc_ring::<usize>(3);
        for i in 0..3 {
            tx.push(i).unwrap();
        }
        drop(tx);
        assert_eq!(rx.pop(), Some(0));
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn parked_consumer_wakes_when_the_producer_drops() {
        let (tx, rx) = spsc_ring::<u8>(2);
        let consumer = std::thread::spawn(move || rx.pop());
        std::thread::sleep(Duration::from_millis(50)); // let it park
        drop(tx);
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn push_fails_once_the_consumer_is_gone() {
        let (tx, rx) = spsc_ring::<usize>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        drop(rx);
        assert_eq!(tx.push(3), Err(3));
        assert_eq!(tx.force_push(4), Err(4));
        assert_eq!(tx.dropped(), 0, "a refused push displaces nothing");
    }

    #[test]
    fn parked_producer_fails_when_the_consumer_drops_while_it_waits() {
        let (mut tx, rx) = spsc_ring::<usize>(1);
        let t = Arc::new(RingTelemetry::default());
        tx.set_telemetry(t.clone());
        tx.push(1).unwrap();
        let producer = std::thread::spawn(move || tx.push(2));
        // The full event is counted just before the producer parks.
        while t.full_events.get() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        drop(rx);
        assert_eq!(producer.join().unwrap(), Err(2));
        assert_eq!(t.block_wait_ns.snapshot().count(), 0);
    }

    #[test]
    fn force_push_displaces_the_oldest_and_counts_the_drops() {
        // The full-ring producer: with every slot taken, force_push drops
        // the *oldest* queued item (never the incoming one) and counts it.
        let (tx, rx) = spsc_ring::<usize>(3);
        for i in 0..3 {
            assert_eq!(tx.force_push(i), Ok(0), "room left, nothing displaced");
        }
        assert_eq!(tx.force_push(3), Ok(1), "full ring displaces one");
        assert_eq!(tx.force_push(4), Ok(1));
        assert_eq!(tx.dropped(), 2);
        drop(tx);
        // The two oldest items (0, 1) are gone; the newest survive in order.
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), Some(4));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn capacity_one_ring_holds_one_item_and_drops_oldest_at_depth_one() {
        // Capacities 0 and 1 both mean one slot: the clamp lives here only.
        for capacity in [0, 1] {
            let (mut tx, rx) = spsc_ring::<usize>(capacity);
            let t = Arc::new(RingTelemetry::default());
            tx.set_telemetry(t.clone());
            assert!(tx.is_empty());
            assert_eq!(tx.force_push(10), Ok(0));
            assert_eq!(tx.force_push(11), Ok(1), "the second item displaces");
            assert_eq!(tx.force_push(12), Ok(1));
            assert_eq!(tx.dropped(), 2);
            assert_eq!(t.occupancy_hwm.get(), 1);
            assert!(!tx.is_empty());
            assert_eq!(rx.pop(), Some(12));
            assert!(tx.is_empty(), "displaced items leave nothing queued");
            tx.push(13).unwrap();
            drop(tx);
            assert_eq!(rx.pop(), Some(13));
            assert_eq!(rx.pop(), None);
        }
    }

    #[test]
    fn force_push_races_a_draining_consumer_without_loss_or_dup() {
        // Producer force-pushing into a tiny ring while the consumer drains
        // flat out: every popped value must be strictly increasing (no
        // duplicates, no reordering), and pops + drops must account for
        // every push exactly once.
        let (tx, rx) = spsc_ring::<u64>(2);
        let producer = std::thread::spawn(move || {
            let mut displaced = 0u64;
            for i in 0..50_000u64 {
                displaced += tx.force_push(i).expect("consumer alive");
            }
            assert_eq!(tx.dropped(), displaced);
            displaced
        });
        let mut got = 0u64;
        let mut last: Option<u64> = None;
        while let Some(v) = rx.pop() {
            if let Some(prev) = last {
                assert!(v > prev, "out of order: {v} after {prev}");
            }
            last = Some(v);
            got += 1;
        }
        let displaced = producer.join().unwrap();
        assert_eq!(
            got + displaced,
            50_000,
            "pops + drops must cover every push"
        );
    }

    #[test]
    fn telemetry_records_high_water_and_full_events() {
        let (mut tx, rx) = spsc_ring::<usize>(3);
        let t = Arc::new(RingTelemetry::default());
        tx.set_telemetry(t.clone());
        tx.push(0).unwrap();
        tx.push(1).unwrap();
        assert_eq!(t.occupancy_hwm.get(), 2);
        assert_eq!(tx.force_push(2), Ok(0), "room left");
        assert_eq!(t.occupancy_hwm.get(), 3);
        assert_eq!(t.full_events.get(), 0);
        assert_eq!(tx.force_push(3), Ok(1), "full ring displaces");
        assert_eq!(t.full_events.get(), 1);
        // A blocking push into the full ring waits for the consumer and
        // times exactly that wait.
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let first = rx.pop();
            (first, rx)
        });
        tx.push(4).unwrap();
        assert_eq!(t.full_events.get(), 2);
        let wait = t.block_wait_ns.snapshot();
        assert_eq!(wait.count(), 1);
        assert!(wait.sum >= 10_000_000, "waited ~20 ms, saw {} ns", wait.sum);
        assert_eq!(t.occupancy_hwm.get(), 3);
        let (first, rx) = consumer.join().unwrap();
        assert_eq!(first, Some(1));
        // Consumer gone + full ring: the blocking push counts the full
        // event before giving up, and times no wait.
        drop(rx);
        assert_eq!(tx.push(9), Err(9));
        assert_eq!(t.full_events.get(), 3);
        assert_eq!(t.block_wait_ns.snapshot().count(), 1);
    }

    #[test]
    fn undrained_items_are_dropped_cleanly() {
        // An Arc payload would leak if queued items outlived the ring.
        let payload = Arc::new(42);
        let (tx, rx) = spsc_ring::<Arc<i32>>(4);
        tx.push(payload.clone()).unwrap();
        tx.push(payload.clone()).unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn displaced_items_are_dropped_cleanly() {
        let payload = Arc::new(7);
        let (tx, rx) = spsc_ring::<Arc<i32>>(2);
        tx.push(payload.clone()).unwrap();
        tx.push(payload.clone()).unwrap();
        assert_eq!(tx.force_push(payload.clone()), Ok(1));
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1);
    }
}
