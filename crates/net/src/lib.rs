//! `hetgc-net`: the real TCP data plane for heterogeneity-aware gradient
//! coding — the same master round loop the threaded runtime runs, over
//! sockets and worker *processes* instead of channels and threads.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — the wire protocol: compact length-prefixed binary
//!   frames (handshake, per-round sequence-numbered coded-gradient
//!   chunks, recode/shutdown control). Pure bytes, no I/O.
//! * [`conn`] — blocking framed transport over `std::net::TcpStream`
//!   with persistent partial-frame buffering and shared byte counters.
//! * [`spec`] — wire-shippable mirrors of the runtime configuration
//!   (model, dataset, behaviour schedule, shard assignment) so a fresh
//!   worker process can rebuild its entire state from the handshake.
//! * [`worker`] / the `hetgc-worker` binary — the worker loop:
//!   newest-round fast-forward, the *identical* coded-gradient
//!   arithmetic as the in-process worker thread, chunked streaming
//!   replies.
//! * [`cluster`] — [`SocketCluster`]: the master. Handshake, dispatch,
//!   live re-coding onto surviving connections and real per-round byte
//!   metering; each round's collect (deadline, drain, escalation,
//!   decode) is `hetgc_runtime::RoundCollector`, the threaded master's
//!   own, and yields the same `ClusterRound`.
//! * [`engine`] — [`SocketEngine`]: `RoundEngine` + `PipelinedEngine`,
//!   so `hetgc::TrainDriver` and `hetgc::PipelinedDriver` drive TCP
//!   workers with no call-site changes.
//! * [`spawn`] — [`WorkerFleet`]: process lifecycle for tests and fault
//!   drills (spawn n workers, kill one mid-run, reap on drop).
//!
//! Because worker compute is operation-for-operation the threaded
//! worker's, a socket run over loopback decodes to **bitwise** the same
//! gradient trajectory as a threaded run under a code whose decode is
//! arrival-order-independent — the loopback tests pin exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod conn;
pub mod engine;
pub mod error;
pub mod frame;
pub mod spawn;
pub mod spec;
pub mod worker;

pub use cluster::{
    export_link_metrics, LinkStats, SocketCluster, SocketListener, DEFAULT_CHUNK_LEN,
};
pub use conn::Connection;
pub use engine::SocketEngine;
pub use error::{NetError, WireError};
pub use frame::{Frame, MAX_FRAME_LEN, VERSION};
pub use hetgc_comm::PayloadEncoding;
pub use spawn::WorkerFleet;
pub use spec::{AnyModel, BehaviorSpec, DatasetSpec, Handshake, ModelSpec, TargetsSpec};
pub use worker::{run_worker, run_worker_with_metrics};
