//! Delegating wrappers around the program's public layer boundaries —
//! `RoundEngine`, `Model`, `Optimizer` and `TrainDriver`'s record writer.
//! Each forwards every call unchanged; with a tracer attached it also
//! records a span around the call. Counters the engine hands back in
//! each `EngineRound` are summed on every run, traced or not.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use hetgc::{Dataset, EngineRound, Model, Optimizer, RoundEngine};
use hetgc_obs::Recorder;
use rand::RngCore;

use crate::trace::{span, Open, Tracer};

type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// A model whose gradient and loss calls are spans.
#[derive(Debug)]
pub struct TracedModel<M> {
    inner: M,
    tracer: Option<Arc<Tracer>>,
}

impl<M> TracedModel<M> {
    pub fn new(inner: M, tracer: Option<Arc<Tracer>>) -> Self {
        TracedModel { inner, tracer }
    }
}

impl<M: Model> Model for TracedModel<M> {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn loss(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> f64 {
        let _s = span(self.tracer.as_deref(), "ml.loss");
        self.inner.loss(params, data, range)
    }

    fn gradient(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> Vec<f64> {
        let _s = span(self.tracer.as_deref(), "ml.gradient");
        self.inner.gradient(params, data, range)
    }

    fn gradient_into(
        &self,
        params: &[f64],
        data: &Dataset,
        range: (usize, usize),
        out: &mut [f64],
    ) {
        let _s = span(self.tracer.as_deref(), "ml.gradient");
        self.inner.gradient_into(params, data, range, out)
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        self.inner.init_params(rng)
    }
}

/// An optimizer whose steps are spans.
#[derive(Debug)]
pub struct TracedOptimizer<O> {
    inner: O,
    tracer: Option<Arc<Tracer>>,
}

impl<O> TracedOptimizer<O> {
    pub fn new(inner: O, tracer: Option<Arc<Tracer>>) -> Self {
        TracedOptimizer { inner, tracer }
    }
}

impl<O: Optimizer> Optimizer for TracedOptimizer<O> {
    fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        let _s = span(self.tracer.as_deref(), "ml.opt_step");
        self.inner.step(params, grad)
    }

    fn learning_rate(&self) -> f64 {
        self.inner.learning_rate()
    }
}

/// Plan-cache counters of an engine's current codec.
pub trait PlanCounters {
    /// `(hits, misses, solves)` of the current codec since it was built.
    fn plan_counters(&self) -> (u64, u64, u64);
}

impl<M: Model + ?Sized> PlanCounters for hetgc::SimBspEngine<'_, M> {
    fn plan_counters(&self) -> (u64, u64, u64) {
        codec_counters(self.codec())
    }
}

impl<M: Model + Send + Sync + 'static> PlanCounters for hetgc::ThreadedEngine<M> {
    fn plan_counters(&self) -> (u64, u64, u64) {
        codec_counters(self.cluster().codec())
    }
}

impl<M: Model + Send + Sync + 'static> PlanCounters for hetgc_net::SocketEngine<M> {
    fn plan_counters(&self) -> (u64, u64, u64) {
        codec_counters(self.cluster().codec())
    }
}

fn codec_counters(codec: &hetgc::EscalatingCodec) -> (u64, u64, u64) {
    let c = codec.base().as_compiled();
    (c.cache_hits(), c.cache_misses(), c.plan_solves())
}

/// What the engine reported over a run, summed round by round.
#[derive(Debug, Clone, Default)]
pub struct EngineTally {
    pub bytes_saved: u64,
    pub wire_error: f64,
    /// Replies that reached the master after their round had decoded.
    pub late_replies: u64,
    /// Replies that reached the master in time or late.
    pub arrived_replies: u64,
    pub results_used: u64,
    pub worker_busy_s: f64,
    /// Reported compute seconds of each reply that made its round.
    pub on_time_busy_s: Vec<f64>,
    pub recodes: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_solves: u64,
}

/// A `RoundEngine` whose rounds and re-codes are spans, and whose
/// per-round reports are tallied.
pub struct TracedEngine<E> {
    pub inner: E,
    tracer: Option<Arc<Tracer>>,
    pub tally: EngineTally,
}

impl<E: RoundEngine + PlanCounters> TracedEngine<E> {
    pub fn new(inner: E, tracer: Option<Arc<Tracer>>) -> Self {
        TracedEngine {
            inner,
            tracer,
            tally: EngineTally::default(),
        }
    }

    /// Folds the current codec's plan counters into the tally; called
    /// before a re-code replaces the codec and once at the end of a run.
    pub fn harvest_plan_counters(&mut self) {
        let (hits, misses, solves) = self.inner.plan_counters();
        self.tally.plan_hits += hits;
        self.tally.plan_misses += misses;
        self.tally.plan_solves += solves;
    }
}

impl<E: RoundEngine + PlanCounters> RoundEngine for TracedEngine<E> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn partitions(&self) -> usize {
        self.inner.partitions()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn round(
        &mut self,
        round: usize,
        params: &[f64],
        rng: &mut dyn RngCore,
    ) -> Result<EngineRound, BoxError> {
        let er = {
            let _s = span(self.tracer.as_deref(), "core.engine_round");
            self.inner.round(round, params, rng)?
        };
        let t = &mut self.tally;
        t.bytes_saved += er.bytes_saved;
        t.wire_error += er.wire_error;
        for s in er.samples.iter().filter(|s| !s.failed) {
            t.arrived_replies += 1;
            if s.straggled {
                t.late_replies += 1;
            } else {
                t.on_time_busy_s.push(s.compute_seconds);
            }
        }
        t.results_used += er.results_used as u64;
        t.worker_busy_s += er.busy.iter().sum::<f64>();
        Ok(er)
    }

    fn after_step(&mut self, params: &[f64]) {
        self.inner.after_step(params)
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.inner.attach_recorder(recorder)
    }

    fn set_deadline(&mut self, deadline: f64) {
        self.inner.set_deadline(deadline)
    }

    fn supports_recode(&self) -> bool {
        self.inner.supports_recode()
    }

    fn recode(&mut self, estimates: &[f64], rng: &mut dyn RngCore) -> Result<bool, BoxError> {
        let (hits, misses, solves) = self.inner.plan_counters();
        let installed = {
            let _s = span(self.tracer.as_deref(), "core.recode");
            self.inner.recode(estimates, rng)?
        };
        if installed {
            self.tally.recodes += 1;
            self.tally.plan_hits += hits;
            self.tally.plan_misses += misses;
            self.tally.plan_solves += solves;
        }
        Ok(installed)
    }

    fn initial_estimates(&self) -> Option<Vec<f64>> {
        self.inner.initial_estimates()
    }

    fn worker_loads(&self) -> Option<Vec<usize>> {
        self.inner.worker_loads()
    }
}

/// `TrainDriver`'s record writer: stamps the moment each round record is
/// written (one line per completed round). With a tracer attached, the
/// interval between two stamps is a `core.round` span, parent of every
/// span the training thread opens in that round.
pub struct RoundClock {
    marks: Vec<Instant>,
    tracer: Option<Arc<Tracer>>,
    open: Option<Open>,
}

impl RoundClock {
    /// Starts the clock: the first round runs from now.
    pub fn start(tracer: Option<Arc<Tracer>>) -> Self {
        let open = tracer.as_ref().map(|t| t.open("core.round"));
        RoundClock {
            marks: vec![Instant::now()],
            tracer,
            open,
        }
    }

    /// Stops the clock, dropping the round that never started.
    pub fn finish(mut self) -> Vec<Instant> {
        if let (Some(t), Some(open)) = (&self.tracer, self.open.take()) {
            t.discard(open);
        }
        self.marks
    }

    /// Wall intervals between consecutive stamps, in milliseconds.
    pub fn intervals_ms(marks: &[Instant]) -> Vec<f64> {
        marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect()
    }
}

impl Write for RoundClock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for _ in buf.iter().filter(|&&b| b == b'\n') {
            self.marks.push(Instant::now());
            if let Some(t) = &self.tracer {
                if let Some(open) = self.open.take() {
                    t.close(open);
                }
                self.open = Some(t.open("core.round"));
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
