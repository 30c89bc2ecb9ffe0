//! The master ⇄ worker wire protocol.
//!
//! In the paper's deployment this is the parameter-server push/pull; here
//! it is a pair of `crossbeam` channels per worker. Parameters travel in an
//! `Arc` so an `m`-worker broadcast clones a pointer, not the vector —
//! mirroring the zero-copy broadcast of a real transport.

use std::sync::Arc;

use crate::collect::Reply;

/// Master → worker messages.
#[derive(Debug, Clone)]
pub enum ToWorker {
    /// Start one computation round on the given parameters.
    Round {
        /// The master's round tag, echoed back as the reply's `seq`.
        iteration: usize,
        /// Current model parameters (shared, read-only).
        params: Arc<Vec<f64>>,
    },
    /// Terminate the worker thread cleanly.
    Shutdown,
}

/// Worker → master result message: a [`Reply`] whose coded gradient is
/// shared rather than owned. The worker allocates it exactly once per
/// round (freezing its reusable scratch buffer into the `Arc`) and the
/// master moves the handle into its per-worker arrival slot — no
/// master-side clone, no second copy anywhere on the wire. The worker
/// echoes the round tag as `seq`; the transport fields (`wire_error`,
/// `payload_bytes`, `arrived`) stay zero/`None` in process.
pub type FromWorker = Reply<Arc<[f64]>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_shares_params() {
        let params = Arc::new(vec![1.0, 2.0]);
        let msg = ToWorker::Round {
            iteration: 1,
            params: Arc::clone(&params),
        };
        if let ToWorker::Round {
            params: p,
            iteration,
        } = msg
        {
            assert_eq!(iteration, 1);
            assert_eq!(*p, vec![1.0, 2.0]);
            assert_eq!(Arc::strong_count(&params), 2);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn from_worker_fields() {
        let m = FromWorker {
            worker: 2,
            seq: 5,
            coded: Arc::from([0.5].as_slice()),
            compute_seconds: 0.1,
            wire_error: 0.0,
            payload_bytes: 0,
            arrived: None,
        };
        assert_eq!(m.worker, 2);
        assert_eq!(m.seq, 5);
        assert_eq!(&m.coded[..], &[0.5]);
        // Cloning the message shares the payload, it does not copy it.
        let copy = m.clone();
        assert_eq!(Arc::strong_count(&m.coded), 2);
        assert_eq!(&copy.coded[..], &[0.5]);
    }

    #[test]
    fn messages_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ToWorker>();
        assert_send::<FromWorker>();
    }
}
