//! [`SocketEngine`]: the socket cluster behind the same `RoundEngine` +
//! `PipelinedEngine` traits the threaded runtime implements, so
//! `hetgc::TrainDriver` and `hetgc::PipelinedDriver` run over real TCP
//! with **no call-site changes** — swap the engine, keep the loop.
//!
//! Both engines hand their `ClusterRound` to the one conversion,
//! `EngineRound::from_cluster`. What the real transport adds shows up in
//! the round's fields rather than in a second code path: each
//! `RoundSample` carries the *measured* master-side arrival time (the
//! threaded engine reads 0 there and falls back to compute end), and
//! each round reports the real `bytes_sent` / `bytes_received` moved
//! over the wire.

use hetgc::{scheme_from_estimates, EngineRound, PipelinedEngine, RoundEngine, SchemeKind};
use hetgc_ml::Model;
use hetgc_obs::Recorder;
use rand::RngCore;

use crate::cluster::SocketCluster;
use crate::error::NetError;

/// The driver traits' error type (structurally `hetgc`'s `BoxError`,
/// which is not re-exported).
type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// The TCP data plane as a driver engine. Construct a
/// [`SocketCluster`], wrap it, hand it to the driver.
#[derive(Debug)]
pub struct SocketEngine<M> {
    cluster: SocketCluster<M>,
    label: String,
    recode_spec: Option<(SchemeKind, usize)>,
    recodes: usize,
}

impl<M> SocketEngine<M>
where
    M: Model + Send + Sync + 'static,
{
    /// Wraps a started cluster (label `"socket"`).
    pub fn new(cluster: SocketCluster<M>) -> Self {
        SocketEngine {
            cluster,
            label: "socket".to_owned(),
            recode_spec: None,
            recodes: 0,
        }
    }

    /// Overrides the curve label (default `"socket"`).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Enables live re-coding: on [`RoundEngine::recode`] the engine
    /// rebuilds a `kind` scheme tolerating `stragglers` stragglers from
    /// the fresh estimates of the **surviving** workers and re-rows the
    /// live connections around it.
    pub fn with_recoding(mut self, kind: SchemeKind, stragglers: usize) -> Self {
        self.recode_spec = Some((kind, stragglers));
        self
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &SocketCluster<M> {
        &self.cluster
    }

    /// The underlying cluster, mutably — for pre-run observability
    /// wiring ([`SocketCluster::attach_codec_metrics`],
    /// [`SocketCluster::link_stats`], timeouts).
    pub fn cluster_mut(&mut self) -> &mut SocketCluster<M> {
        &mut self.cluster
    }

    /// How many times [`RoundEngine::recode`] installed a rebuilt code.
    pub fn recodes(&self) -> usize {
        self.recodes
    }
}

impl<M> RoundEngine for SocketEngine<M>
where
    M: Model + Send + Sync + 'static,
{
    fn workers(&self) -> usize {
        self.cluster.workers()
    }

    fn partitions(&self) -> usize {
        self.cluster.partitions()
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn round(
        &mut self,
        round: usize,
        params: &[f64],
        _rng: &mut dyn RngCore,
    ) -> Result<EngineRound, BoxError> {
        let r = self.cluster.round(round, params)?;
        let (codec, data) = (self.cluster.codec(), self.cluster.data());
        Ok(EngineRound::from_cluster(r, codec, data))
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.cluster.attach_recorder(recorder);
    }

    fn set_deadline(&mut self, deadline: f64) {
        // Same gating as the threaded engine: a deadline the escalation
        // ladder cannot act on would turn slow rounds into hard errors.
        if deadline.is_finite() && deadline > 0.0 && self.cluster.codec().can_escalate() {
            self.cluster
                .set_timeout(std::time::Duration::from_secs_f64(deadline));
        }
    }

    fn supports_recode(&self) -> bool {
        self.recode_spec.is_some()
    }

    fn recode(&mut self, estimates: &[f64], rng: &mut dyn RngCore) -> Result<bool, BoxError> {
        let Some((kind, stragglers)) = self.recode_spec else {
            return Ok(false);
        };
        // Rebuild around the survivors only: a dead link contributes no
        // estimate and gets no row. Fewer than two survivors cannot
        // carry a coded scheme — decline and keep limping.
        let live = self.cluster.live_rows();
        if live.len() < 2 {
            return Ok(false);
        }
        let survivors: Vec<f64> = live
            .iter()
            .filter_map(|&j| estimates.get(j).copied())
            .collect();
        if survivors.len() != live.len() {
            return Ok(false);
        }
        let Ok(scheme) = scheme_from_estimates(kind, &survivors, stragglers, None, rng) else {
            return Ok(false); // infeasible estimates: keep the old code
        };
        match self.cluster.recode(scheme.code) {
            Ok(()) => {
                self.recodes += 1;
                Ok(true)
            }
            // An unbuildable rebuild declines (the old regime keeps
            // running); only infrastructure failures abort the run.
            Err(NetError::InvalidConfig { .. }) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }
}

impl<M> PipelinedEngine for SocketEngine<M>
where
    M: Model + Send + Sync + 'static,
{
    fn dispatch(&mut self, _round: usize, params: &[f64]) -> Result<(), BoxError> {
        self.cluster.dispatch(params).map_err(Into::into)
    }

    fn collect(&mut self, round: usize) -> Result<EngineRound, BoxError> {
        let r = self.cluster.collect(round)?;
        let (codec, data) = (self.cluster.codec(), self.cluster.data());
        Ok(EngineRound::from_cluster(r, codec, data))
    }
}
