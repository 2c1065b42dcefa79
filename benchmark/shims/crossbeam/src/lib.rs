//! Offline stand-in for the part of `crossbeam` the library crates use:
//! `crossbeam::channel` (multi-producer, multi-consumer; bounded and
//! unbounded) built on `std::sync::mpsc` with a cloneable receiver.

pub mod channel {
    use std::fmt;
    use std::sync::{mpsc, Arc, Mutex};

    enum Tx<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    /// Sending half; clone to add producers.
    pub struct Sender<T>(Tx<T>);

    /// Receiving half; clones share one queue, as in crossbeam.
    pub struct Receiver<T>(Arc<Mutex<mpsc::Receiver<T>>>);

    /// The channel is disconnected; carries the unsent message.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// All senders are gone and the queue is empty.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Why a non-blocking receive returned nothing.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(Tx::Unbounded(tx)), Receiver(Arc::new(Mutex::new(rx))))
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(Tx::Bounded(tx)), Receiver(Arc::new(Mutex::new(rx))))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match &self.0 {
                Tx::Unbounded(tx) => tx.send(value),
                Tx::Bounded(tx) => tx.send(value),
            }
            .map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    impl<T> Receiver<T> {
        fn queue(&self) -> std::sync::MutexGuard<'_, mpsc::Receiver<T>> {
            // A receiver that panicked mid-`recv` leaves the queue intact.
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            self.queue().recv().map_err(|_| RecvError)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.queue().try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }
    }

    impl<T> SendError<T> {
        pub fn into_inner(self) -> T {
            self.0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(match &self.0 {
                Tx::Unbounded(tx) => Tx::Unbounded(tx.clone()),
                Tx::Bounded(tx) => Tx::Bounded(tx.clone()),
            })
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }
}
