//! Unbounded and bounded multi-producer multi-consumer FIFO channels.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Creates an unbounded MPMC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

/// Creates a bounded MPMC channel holding at most `cap` queued messages.
///
/// [`Sender::send`] blocks while the queue is full; [`Sender::try_send`]
/// fails fast with [`TrySendError::Full`] instead — the backpressure
/// primitive the ingestion service's accept queue is built on.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    channel(Some(cap))
}

fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        space: Condvar::new(),
        cap,
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (Sender { inner: Arc::clone(&inner) }, Receiver { inner })
}

struct Inner<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
    /// Signalled on every pop so bounded senders blocked in `send` retry.
    space: Condvar,
    /// `None` for unbounded channels.
    cap: Option<usize>,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

impl<T> Inner<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        // A panicking sender/receiver poisons the std mutex; the queue
        // itself is still structurally valid, so keep going.
        self.queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Error returned by [`Sender::send`] when every receiver is gone;
/// carries the unsent message back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Reason a [`Receiver::try_recv`] returned no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message queued right now; senders still exist.
    Empty,
    /// No message queued and every sender is gone.
    Disconnected,
}

impl std::fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Reason a [`Sender::try_send`] rejected the message; carries it back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The bounded queue is at capacity.
    Full(T),
    /// Every receiver has been dropped.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// Recovers the message that could not be enqueued.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(msg) | TrySendError::Disconnected(msg) => msg,
        }
    }

    /// True when the rejection was a full queue (not a disconnect).
    pub fn is_full(&self) -> bool {
        matches!(self, TrySendError::Full(_))
    }
}

impl<T> std::fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("sending on a full channel"),
            TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for TrySendError<T> {}

/// The sending half; cloneable for multiple producers.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Sender<T> {
    /// Enqueues a message.
    ///
    /// # Errors
    ///
    /// Returns the message if every receiver has been dropped.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        if self.inner.receivers.load(Ordering::Acquire) == 0 {
            return Err(SendError(msg));
        }
        let mut queue = self.inner.lock();
        if let Some(cap) = self.inner.cap {
            while queue.len() >= cap {
                if self.inner.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendError(msg));
                }
                queue =
                    self.inner.space.wait(queue).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        queue.push_back(msg);
        drop(queue);
        self.inner.ready.notify_one();
        Ok(())
    }

    /// Enqueues a message without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when a bounded queue is at capacity,
    /// [`TrySendError::Disconnected`] when every receiver is gone.
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        if self.inner.receivers.load(Ordering::Acquire) == 0 {
            return Err(TrySendError::Disconnected(msg));
        }
        let mut queue = self.inner.lock();
        if let Some(cap) = self.inner.cap {
            if queue.len() >= cap {
                return Err(TrySendError::Full(msg));
            }
        }
        queue.push_back(msg);
        drop(queue);
        self.inner.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.senders.fetch_add(1, Ordering::AcqRel);
        Sender { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender gone: wake all blocked receivers so they can
            // observe the disconnect. Receivers check the count under
            // the queue lock and release it only by parking, so passing
            // through the lock first means each one has either seen the
            // zero or is parked to get this wakeup; without it the
            // notify can fall between a check and its wait and be lost.
            drop(self.inner.lock());
            self.inner.ready.notify_all();
        }
    }
}

/// The receiving half; cloneable for multiple consumers.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or every sender disconnects.
    ///
    /// # Errors
    ///
    /// Fails once the channel is empty and every sender is dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut queue = self.inner.lock();
        loop {
            if let Some(msg) = queue.pop_front() {
                drop(queue);
                self.inner.space.notify_one();
                return Ok(msg);
            }
            if self.inner.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvError);
            }
            queue = self.inner.ready.wait(queue).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Pops a message without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is queued,
    /// [`TryRecvError::Disconnected`] after the last sender drops.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut queue = self.inner.lock();
        if let Some(msg) = queue.pop_front() {
            drop(queue);
            self.inner.space.notify_one();
            return Ok(msg);
        }
        if self.inner.senders.load(Ordering::Acquire) == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Blocking iterator that ends when the channel disconnects.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.receivers.fetch_add(1, Ordering::AcqRel);
        Receiver { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.inner.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last receiver gone: wake bounded senders blocked on space so
            // they can observe the disconnect. Through the queue lock for
            // the same reason as `Sender::drop`.
            drop(self.inner.lock());
            self.inner.space.notify_all();
        }
    }
}

/// Iterator returned by [`Receiver::iter`].
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_a_single_producer() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recv_errors_after_last_sender_drops() {
        let (tx, rx) = unbounded::<u8>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(7).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_last_receiver_drops() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn multi_consumer_partitions_messages() {
        let (tx, rx) = unbounded::<u32>();
        let rx2 = rx.clone();
        let total: u32 = 1000;
        let producer = std::thread::spawn(move || {
            for i in 0..total {
                tx.send(i).unwrap();
            }
        });
        let consumer = std::thread::spawn(move || rx2.iter().count());
        let mine = rx.iter().count();
        producer.join().unwrap();
        let theirs = consumer.join().unwrap();
        assert_eq!(mine + theirs, total as usize);
    }

    #[test]
    fn try_recv_distinguishes_empty_from_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn try_send_rejects_when_full_and_recovers_after_pop() {
        let (tx, rx) = bounded::<u8>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert!(tx.try_send(3).unwrap_err().is_full());
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn try_send_reports_disconnect_over_full() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert_eq!(tx.try_send(9), Err(TrySendError::Disconnected(9)));
        assert_eq!(TrySendError::Disconnected(9).into_inner(), 9);
    }

    #[test]
    fn bounded_send_blocks_until_space() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(0).unwrap();
        let producer = std::thread::spawn(move || {
            for i in 1..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = rx.iter().collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_send_errors_when_receiver_drops_mid_wait() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(1).unwrap();
        let blocked = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert_eq!(blocked.join().unwrap(), Err(SendError(2)));
    }
}
