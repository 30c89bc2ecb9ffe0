//! # hetgc-runtime
//!
//! A real multi-threaded master/worker runtime executing coded distributed
//! gradient descent — the wall-clock counterpart of the `hetgc-sim`
//! discrete-event simulator. Workers are OS threads connected to the
//! master by `crossbeam` channels; heterogeneity is emulated by rate
//! throttling and straggler injection by per-worker delays and fail-stop
//! at a configured iteration.
//!
//! This is the piece that demonstrates the schemes end-to-end outside of
//! simulated time: the master compiles its strategy into a
//! `hetgc_coding::CompiledCodec`, streams arrivals through one reusable
//! `CodecSession` (reset per round) to decode at the earliest decodable
//! set, applies the exact aggregated gradient, and keeps iterating even
//! while injected workers are dead — the paper's fault-tolerance claim
//! made concrete.
//!
//! That per-round decode rule lives in one place, [`RoundCollector`]:
//! deadline, drain, escalation ladder, late timings and the decode over
//! the arrival slots, fed by a `crossbeam` channel of [`Reply`]s. The
//! threaded master ([`ThreadedCluster`]) and the TCP master in
//! `hetgc-net` both feed it and both return its [`ClusterRound`]; they
//! keep only spawning, dispatch, re-coding and teardown. Workers of
//! either kind compute their reply with [`compute_coded`].
//!
//! ```
//! use std::sync::Arc;
//!
//! use hetgc_coding::heter_aware;
//! use hetgc_ml::{synthetic, LinearRegression, Model};
//! use hetgc_runtime::{RuntimeConfig, ThreadedCluster};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let data = Arc::new(synthetic::linear_regression(120, 4, 0.05, &mut rng));
//! let code = heter_aware(&[1.0, 1.0, 2.0], 4, 1, &mut rng)?;
//! let model = Arc::new(LinearRegression::new(4));
//!
//! // One collect round: broadcast → gather → decode → combined gradient.
//! // (`hetgc::TrainDriver` loops this for you via `ThreadedEngine`.)
//! let mut cluster =
//!     ThreadedCluster::start(code, Arc::clone(&model), Arc::clone(&data), &RuntimeConfig::default())?;
//! let params = model.init_params(&mut rng);
//! let round = cluster.round(1, &params)?;
//! assert_eq!(round.gradient.len(), model.num_params());
//! assert_eq!(round.residual, 0.0, "exact decode within the budget");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collect;
mod config;
mod error;
mod executor;
mod message;
mod worker;

pub use collect::{ClusterRound, Reply, RoundCollector};
pub use config::{RuntimeConfig, WorkerBehavior};
pub use error::RuntimeError;
pub use executor::{build_codec, worker_shards, Shard, ThreadedCluster};
pub use message::{FromWorker, ToWorker};
pub use worker::compute_coded;
