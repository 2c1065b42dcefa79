//! Virtual-time-aware message channel.
//!
//! Wraps a `std::sync::mpsc` channel so that a receive never appears to
//! happen *before* (in virtual time) the corresponding send: each message
//! carries the sender's virtual timestamp, and the receiver's clock is
//! advanced to `send_time + ChannelTransfer`. Used by the Larson and
//! producer–consumer workloads, where objects are bled across threads.

use crate::clock;
use crate::cost::{self, Cost};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};

/// Sending half of a virtual-time channel.
#[derive(Debug, Clone)]
pub struct VSender<T> {
    inner: mpsc::Sender<(T, u64)>,
}

/// Receiving half of a virtual-time channel. Clones drain the same
/// queue: each message goes to exactly one of them.
#[derive(Debug, Clone)]
pub struct VReceiver<T> {
    inner: Arc<Mutex<mpsc::Receiver<(T, u64)>>>,
}

/// Create an unbounded virtual-time channel.
pub fn vchannel<T>() -> (VSender<T>, VReceiver<T>) {
    let (tx, rx) = mpsc::channel();
    let rx = Arc::new(Mutex::new(rx));
    (VSender { inner: tx }, VReceiver { inner: rx })
}

impl<T> VSender<T> {
    /// Send `value`, stamping it with the sender's current virtual time.
    ///
    /// # Errors
    ///
    /// Returns the value back if the receiving side has disconnected.
    pub fn send(&self, value: T) -> Result<(), T> {
        let stamp = clock::now();
        self.inner
            .send((value, stamp))
            .map_err(|mpsc::SendError((value, _))| value)
    }
}

impl<T> VReceiver<T> {
    /// The queue all clones share. No caller code runs under the lock, so
    /// a poisoned one still guards an intact queue.
    fn queue(&self) -> MutexGuard<'_, mpsc::Receiver<(T, u64)>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Receive a message, blocking in real time if necessary, and advance
    /// the receiver's virtual clock past the send time plus the transfer
    /// cost.
    ///
    /// # Errors
    ///
    /// Returns an error if the channel is empty and all senders have
    /// disconnected.
    pub fn recv(&self) -> Result<T, RecvClosed> {
        // A receiver blocked on an empty channel (or behind a clone that
        // is) is excluded from the ordering gate's minimum: its clock
        // advances only via the send.
        let (value, send_time) =
            crate::gate::while_blocked(|| self.queue().recv()).map_err(|_| RecvClosed)?;
        clock::set_clock(send_time + cost::get(Cost::ChannelTransfer));
        Ok(value)
    }

    /// Non-blocking receive; `Ok(None)` when the channel is currently
    /// empty but senders remain.
    ///
    /// # Errors
    ///
    /// Returns an error if the channel is empty and all senders have
    /// disconnected.
    pub fn try_recv(&self) -> Result<Option<T>, RecvClosed> {
        match self.queue().try_recv() {
            Ok((value, send_time)) => {
                clock::set_clock(send_time + cost::get(Cost::ChannelTransfer));
                Ok(Some(value))
            }
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(RecvClosed),
        }
    }
}

/// Error: all senders disconnected and the channel drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvClosed;

impl std::fmt::Display for RecvClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed: all senders disconnected")
    }
}

impl std::error::Error for RecvClosed {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{charge, now};

    #[test]
    fn recv_inherits_sender_time() {
        let (tx, rx) = vchannel::<u32>();
        // "Sender" far ahead in virtual time.
        std::thread::spawn(move || {
            charge(50_000);
            tx.send(7).unwrap();
        })
        .join()
        .unwrap();
        let t0 = now();
        assert!(t0 < 50_000);
        assert_eq!(rx.recv().unwrap(), 7);
        assert!(now() >= 50_000, "receiver must wait in virtual time");
    }

    #[test]
    fn recv_does_not_rewind_a_fast_receiver() {
        let (tx, rx) = vchannel::<u32>();
        tx.send(1).unwrap(); // sender at ~0
        charge(99_999);
        let t = now();
        rx.recv().unwrap();
        assert_eq!(now(), t, "receiver already past the send time");
    }

    #[test]
    fn try_recv_empty_and_closed() {
        let (tx, rx) = vchannel::<u32>();
        assert_eq!(rx.try_recv().unwrap(), None);
        tx.send(3).unwrap();
        assert_eq!(rx.try_recv().unwrap(), Some(3));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(RecvClosed));
        assert_eq!(rx.recv(), Err(RecvClosed));
    }

    #[test]
    fn cloned_receivers_drain_one_queue_exactly_once() {
        const MESSAGES: u64 = 2_000;
        let _model = cost::TEST_MODEL_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let transfer = cost::get(Cost::ChannelTransfer);
        let (tx, rx) = vchannel::<u64>();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        // Sent at 1000 * (v + 1), later than anything
                        // this consumer took before it.
                        assert_eq!(now(), 1_000 * (v + 1) + transfer);
                        got.push(v);
                    }
                    assert_eq!(rx.try_recv(), Err(RecvClosed));
                    got
                })
            })
            .collect();
        for v in 0..MESSAGES {
            crate::set_clock(1_000 * (v + 1));
            tx.send(v).unwrap();
        }
        drop(tx);
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().expect("consumer panicked"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..MESSAGES).collect::<Vec<_>>());
    }

    #[test]
    fn send_after_receiver_drop_errors_with_value() {
        let (tx, rx) = vchannel::<String>();
        drop(rx);
        assert_eq!(tx.send("x".to_string()), Err("x".to_string()));
    }
}
