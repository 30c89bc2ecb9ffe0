//! The one collect round every wall-clock master runs.
//!
//! [`RoundCollector`] is the master's side of a round, whatever carries
//! the replies: worker threads over channels (`ThreadedCluster`) or
//! reader threads over TCP links (`hetgc-net`'s `SocketCluster`). Both
//! feed it the same [`Reply`] through a `crossbeam` channel, and it
//! applies the paper's decode rule to them:
//!
//! 1. stream in-time replies into one reusable `CodecSession` until the
//!    arrivals form the earliest decodable set;
//! 2. at the deadline (measured from the dispatch) drain whatever is
//!    already queued — an exact decode may be waiting there;
//! 3. hand the survivor set to the escalation ladder
//!    (`EscalatingCodec::fallback_plan`), and fail the round as
//!    [`RuntimeError::Undecodable`] when it declines;
//! 4. apply the plan straight over the per-row arrival slots
//!    (`DecodePlan::apply_rows_into`, no payload copy).
//!
//! Replies to an earlier round carry no gradient weight; their compute
//! time is kept as a late observation and reported once. Replies for a
//! row the current code does not have (sent before a re-code shrank it)
//! are dropped.

use std::ops::Deref;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use hetgc_coding::{CodecSession, EscalatingCodec, GradientCodec, PoolStats};
use hetgc_obs::{Phase, Recorder};

use crate::error::RuntimeError;

/// One worker reply as the master's collect loop sees it, whatever
/// transport carried it.
#[derive(Debug, Clone)]
pub struct Reply<P> {
    /// The replying worker's logical row.
    pub worker: usize,
    /// The round sequence number this reply answers; replies to earlier
    /// rounds become late-timing observations.
    pub seq: u64,
    /// The coded gradient `g̃_w = Σ_j b_wj·g_j`. It moves into the
    /// worker's arrival slot and is decoded in place: an `Arc<[f64]>`
    /// shared with a worker thread, or the `Vec<f64>` a socket reader
    /// reassembled.
    pub coded: P,
    /// Effective compute duration from round receipt to reply — native
    /// gradient time stretched by throttle emulation and injected delay.
    pub compute_seconds: f64,
    /// Worker-measured L2 quantization error of this reply (0.0 on
    /// lossless transports).
    pub wire_error: f64,
    /// Gradient payload bytes this reply occupied on the wire (0 for
    /// in-process replies).
    pub payload_bytes: u64,
    /// When the reply reached the master, if the transport observed it;
    /// `None` for in-process replies.
    pub arrived: Option<Instant>,
}

/// One completed collect round of a wall-clock master.
#[derive(Debug, Clone)]
pub struct ClusterRound {
    /// The decoded aggregated gradient `Σ_w a_w · g̃_w`, un-normalized
    /// (the caller divides by the dataset size).
    pub gradient: Vec<f64>,
    /// Decode residual of the round: `0.0` for exact decodes, positive
    /// when the escalation ladder's approximate stage rescued it.
    pub residual: f64,
    /// How many worker results carried decode weight.
    pub results_used: usize,
    /// Wall-clock duration of the round (dispatch → decoded gradient).
    pub elapsed: Duration,
    /// Per-worker compute seconds reported this round (0 for workers
    /// whose result never arrived).
    pub busy: Vec<f64>,
    /// Per-worker compute seconds of *late* results — replies from an
    /// earlier round that reached the master only after it had decoded
    /// (0 when none). Late results carry no gradient weight, but their
    /// timings are real observations: without them a consistent
    /// within-budget straggler would be invisible to throughput
    /// telemetry. Each late timing is reported exactly once, and only
    /// for workers that did not also reply in time.
    pub late_busy: Vec<f64>,
    /// Per-worker arrival offset in seconds from the dispatch, as the
    /// transport observed it. `0.0` for workers that never replied and
    /// for in-process replies, whose arrival the master does not see.
    pub arrivals: Vec<f64>,
    /// Bytes of coded-gradient payload this round consumed (one buffer
    /// per reply in an arrival slot — the data plane's only steady-state
    /// allocation). Surfaced as `RoundRecord.alloc_bytes`.
    pub alloc_bytes: u64,
    /// Decode-session buffer-pool hits this round (recycled elimination
    /// buffers). Surfaced as `RoundRecord.pool_hits`.
    pub pool_hits: u64,
    /// Real bytes written to worker links during this round (0 when no
    /// socket carries the round).
    pub bytes_sent: u64,
    /// Real bytes read from worker links during this round (0 when no
    /// socket carries the round).
    pub bytes_received: u64,
    /// Per physical link `(sent, received)` byte deltas of this round,
    /// in the socket master's accept order; empty without links.
    pub link_bytes: Vec<(u64, u64)>,
    /// Combined L2 quantization error of the replies absorbed this round
    /// (`sqrt(Σ_w err_w²)`: independent lossy links add in quadrature).
    /// `0.0` on lossless transports.
    pub wire_error: f64,
    /// Payload bytes the wire encodings saved this round versus shipping
    /// every absorbed reply as full-width `f64`.
    pub bytes_saved: u64,
}

/// What the collector keeps per logical row, reused round over round.
#[derive(Debug)]
struct Row<P> {
    /// The row's arrival slot: an arriving payload moves in (no clone)
    /// and is released when the next collect rearms the slot.
    coded: Option<P>,
    compute_seconds: f64,
    /// Compute seconds of a stale reply seen while waiting on the
    /// current round; survives the rearm until reported.
    late_compute_seconds: f64,
    arrival_seconds: f64,
    wire_error: f64,
    payload_bytes: u64,
}

impl<P> Row<P> {
    fn empty() -> Self {
        Row {
            coded: None,
            compute_seconds: 0.0,
            late_compute_seconds: 0.0,
            arrival_seconds: 0.0,
            wire_error: 0.0,
            payload_bytes: 0,
        }
    }

    /// Clears this round's observations; a pending late timing stays.
    fn rearm(&mut self) {
        *self = Row {
            late_compute_seconds: self.late_compute_seconds,
            ..Row::empty()
        };
    }
}

fn empty_rows<P>(m: usize) -> Vec<Row<P>> {
    std::iter::repeat_with(Row::empty).take(m).collect()
}

/// The master's round state: the escalation-wrapped codec, one reusable
/// decode session, the per-row arrival slots and the round in flight.
/// See the module docs for the rule it applies.
#[derive(Debug)]
pub struct RoundCollector<P> {
    codec: EscalatingCodec,
    session: CodecSession,
    /// Gradient dimension (the model's parameter count).
    dim: usize,
    timeout: Option<Duration>,
    /// Round tag, strictly increasing over the collector's life — the
    /// wire tag replies echo, so stale results from *any* earlier round
    /// (including a previous driver run) are filtered out regardless of
    /// the caller's numbering.
    seq: u64,
    /// The dispatched-but-not-yet-collected round: tag + dispatch time.
    inflight: Option<(u64, Instant)>,
    rows: Vec<Row<P>>,
    /// Flight recorder for dispatch/collect/decode spans and per-arrival
    /// instants; `None` until attached.
    recorder: Option<Recorder>,
}

impl<P> RoundCollector<P>
where
    P: Deref<Target = [f64]> + Sync,
{
    /// A collector decoding `dim`-wide gradients with `codec`, escalating
    /// at `timeout` after each dispatch (`None` waits until every sender
    /// hangs up).
    pub fn new(codec: EscalatingCodec, dim: usize, timeout: Option<Duration>) -> Self {
        RoundCollector {
            session: codec.session(),
            rows: empty_rows(codec.workers()),
            codec,
            dim,
            timeout,
            seq: 0,
            inflight: None,
            recorder: None,
        }
    }

    /// The escalation-wrapped codec the collector decodes with.
    pub fn codec(&self) -> &EscalatingCodec {
        &self.codec
    }

    /// The codec, mutably — to attach metric handles.
    pub fn codec_mut(&mut self) -> &mut EscalatingCodec {
        &mut self.codec
    }

    /// Snapshot of the decode session's buffer-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.session.pool().stats()
    }

    /// Replaces the round deadline.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = Some(timeout);
    }

    /// Installs a flight recorder for the dispatch/collect/decode spans
    /// and the per-arrival instants.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Whether a dispatched round awaits its collect.
    pub fn in_flight(&self) -> bool {
        self.inflight.is_some()
    }

    /// Starts the next round: `send` broadcasts it under the round tag it
    /// is given, and the deadline clock starts once it returns `Ok`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] when a round is already in flight
    /// (collect it first); otherwise whatever `send` returns.
    pub fn dispatch<E: From<RuntimeError>>(
        &mut self,
        send: impl FnOnce(u64) -> Result<(), E>,
    ) -> Result<(), E> {
        if self.inflight.is_some() {
            return Err(RuntimeError::InvalidConfig {
                reason: "dispatch while a round is in flight (collect it first)".into(),
            }
            .into());
        }
        let _dispatch_span = self.recorder.as_ref().map(|r| r.span(Phase::Dispatch));
        self.seq += 1;
        send(self.seq)?;
        self.inflight = Some((self.seq, Instant::now()));
        Ok(())
    }

    /// Collects the dispatched round from `replies`: decodes at the
    /// earliest decodable set, or at the deadline drains the queue and
    /// escalates. `iteration` is the caller's round number, used for
    /// error reporting only.
    ///
    /// The deadline runs from the *dispatch*, so a master that starts
    /// collecting late (after the overlapped work of a pipelined round)
    /// still gives the workers their full window: everything already
    /// queued is absorbed before the ladder is consulted.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidConfig`] when no round is in flight.
    /// * [`RuntimeError::Undecodable`] when the round cannot decode
    ///   within the deadline and the escalation ladder declines.
    /// * [`RuntimeError::Coding`] when a reply or the decode is malformed.
    pub fn collect(
        &mut self,
        iteration: usize,
        replies: &Receiver<Reply<P>>,
    ) -> Result<ClusterRound, RuntimeError> {
        let (seq, started) = self
            .inflight
            .take()
            .ok_or_else(|| RuntimeError::InvalidConfig {
                reason: "collect without a dispatched round".into(),
            })?;
        // A local clone, so the span guards do not borrow `self`.
        let recorder = self.recorder.clone();
        let collect_span = recorder.as_ref().map(|r| r.span(Phase::Collect));
        self.session.reset();
        let pool_hits_before = self.session.pool().hits();
        // Releasing the previous round's payloads is the slots' recycle
        // point.
        self.rows.iter_mut().for_each(Row::rearm);
        let mut decoded = false;
        while !decoded {
            let next = match self.timeout {
                Some(t) => t
                    .checked_sub(started.elapsed())
                    .and_then(|remaining| replies.recv_timeout(remaining).ok()),
                None => replies.recv().ok(),
            };
            let Some(reply) = next else { break };
            decoded = self.absorb(seq, started, reply)?;
        }
        // Deadline reached (or every sender hung up) without a decode:
        // replies already queued arrived in time, so drain them first.
        while !decoded {
            let Ok(reply) = replies.try_recv() else { break };
            decoded = self.absorb(seq, started, reply)?;
        }
        // `None` = the session decoded (its plan is borrowed below);
        // `Some` = the escalation ladder produced an owned fallback plan.
        let fallback = if decoded {
            None
        } else {
            let survivors: Vec<usize> = (0..self.rows.len())
                .filter(|&w| self.rows[w].coded.is_some())
                .collect();
            let received = survivors.len();
            let plan = self.codec.fallback_plan(&survivors);
            Some(plan.ok_or(RuntimeError::Undecodable {
                iteration,
                received,
            })?)
        };
        drop(collect_span);
        let plan = match fallback.as_ref() {
            Some(plan) => plan,
            None => self
                .session
                .decoded_plan()
                .expect("collect loop stopped on a decode"),
        };

        // g = Σ a_w · g̃_w (un-normalized), straight over the arrival
        // slots in one pass through the blocked decode kernel.
        let decode_span = recorder.as_ref().map(|r| r.span(Phase::Decode));
        let mut gradient = vec![0.0; self.dim];
        let rows = &self.rows;
        plan.apply_rows_into(|w| rows[w].coded.as_deref(), &mut gradient)?;
        drop(decode_span);

        let full_width = (self.dim * std::mem::size_of::<f64>()) as u64;
        let mut alloc_bytes = 0;
        let mut bytes_saved = 0;
        let mut wire_error_sq = 0.0;
        for row in rows {
            if let Some(coded) = &row.coded {
                alloc_bytes += std::mem::size_of_val(&**coded) as u64;
            }
            if row.payload_bytes > 0 {
                bytes_saved += full_width.saturating_sub(row.payload_bytes);
            }
            wire_error_sq += row.wire_error * row.wire_error;
        }
        let busy = rows.iter().map(|r| r.compute_seconds).collect();
        let arrivals = rows.iter().map(|r| r.arrival_seconds).collect();
        // Late timings are reported exactly once, and only for workers
        // that did not also reply in time this round.
        let late_busy = self
            .rows
            .iter_mut()
            .map(|row| {
                let late = std::mem::take(&mut row.late_compute_seconds);
                if row.compute_seconds == 0.0 {
                    late
                } else {
                    0.0
                }
            })
            .collect();
        Ok(ClusterRound {
            gradient,
            residual: plan.residual(),
            results_used: plan.len(),
            elapsed: started.elapsed(),
            busy,
            late_busy,
            arrivals,
            alloc_bytes,
            pool_hits: self.session.pool().hits() - pool_hits_before,
            bytes_sent: 0,
            bytes_received: 0,
            link_bytes: Vec::new(),
            wire_error: wire_error_sq.sqrt(),
            bytes_saved,
        })
    }

    /// Feeds one reply into the round; `Ok(true)` when it completed a
    /// decode.
    fn absorb(
        &mut self,
        seq: u64,
        started: Instant,
        reply: Reply<P>,
    ) -> Result<bool, RuntimeError> {
        let worker = reply.worker;
        let Some(row) = self.rows.get_mut(worker) else {
            return Ok(false); // a row from before a re-code shrank the code
        };
        if reply.seq != seq {
            // A late reply to an earlier round: no gradient weight, but
            // the timing is a real throughput observation.
            row.late_compute_seconds = reply.compute_seconds;
            return Ok(false);
        }
        row.compute_seconds = reply.compute_seconds;
        row.wire_error = reply.wire_error;
        row.payload_bytes = reply.payload_bytes;
        row.arrival_seconds = reply.arrived.map_or(0.0, |at| {
            at.saturating_duration_since(started).as_secs_f64()
        });
        row.coded = Some(reply.coded);
        if let Some(rec) = &self.recorder {
            rec.instant(Phase::Arrival, (worker + 1) as u64);
        }
        Ok(self.session.push_arrival(worker)?)
    }

    /// Installs a rebuilt codec: a fresh decode session and one empty
    /// slot row per worker of the new code. A round in flight is
    /// forgotten; the round tag keeps counting, so replies to rounds
    /// before the re-code stay stale.
    pub fn reshape(&mut self, codec: EscalatingCodec) {
        self.session = codec.session();
        self.rows = empty_rows(codec.workers());
        self.inflight = None;
        self.codec = codec;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::executor::build_codec;
    use crossbeam::channel::unbounded;
    use hetgc_coding::{heter_aware, CodecBackend};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const DIM: usize = 4;

    /// An exact-only (never escalating) collector over a 3-worker,
    /// 1-straggler code, plus the partial gradients its payloads encode.
    fn exact_collector(timeout: Option<Duration>) -> (RoundCollector<Vec<f64>>, Vec<Vec<f64>>) {
        let code = heter_aware(&[1.0; 3], 3, 1, &mut StdRng::seed_from_u64(5)).unwrap();
        let codec = build_codec(
            code,
            &RuntimeConfig::nominal(3).with_backend(CodecBackend::Exact),
        )
        .unwrap();
        assert!(!codec.can_escalate());
        let partials = (0..codec.partitions())
            .map(|j| (0..DIM).map(|i| (j * DIM + i) as f64 + 0.5).collect())
            .collect();
        (RoundCollector::new(codec, DIM, timeout), partials)
    }

    /// Worker `w`'s reply to round `seq`: its codec row applied to the
    /// partial gradients.
    fn reply(
        collector: &RoundCollector<Vec<f64>>,
        partials: &[Vec<f64>],
        worker: usize,
        seq: u64,
    ) -> Reply<Vec<f64>> {
        let compiled = collector.codec().base().as_compiled();
        let mut coded = vec![0.0; DIM];
        for (&p, &b) in compiled
            .support_of(worker)
            .iter()
            .zip(compiled.coefficients_of(worker))
        {
            for (c, g) in coded.iter_mut().zip(&partials[p]) {
                *c += b * g;
            }
        }
        Reply {
            worker,
            seq,
            coded,
            compute_seconds: 0.01 * (worker + 1) as f64,
            wire_error: 0.0,
            payload_bytes: 0,
            arrived: None,
        }
    }

    fn assert_full_gradient(round: &ClusterRound, partials: &[Vec<f64>]) {
        for (i, g) in round.gradient.iter().enumerate() {
            let want: f64 = partials.iter().map(|p| p[i]).sum();
            assert!((g - want).abs() < 1e-9, "element {i}: {g} vs {want}");
        }
    }

    #[test]
    fn replies_for_rows_outside_the_code_are_dropped() {
        let (mut collector, partials) = exact_collector(Some(Duration::from_secs(5)));
        let (tx, rx) = unbounded();
        collector.dispatch(|_| Ok::<_, RuntimeError>(())).unwrap();
        // Rows 3 and 7 belonged to a wider code before a re-code: one
        // reply to this round, one stale.
        for (worker, seq) in [(3, 1), (7, 0)] {
            tx.send(Reply {
                worker,
                ..reply(&collector, &partials, 0, seq)
            })
            .unwrap();
        }
        tx.send(reply(&collector, &partials, 0, 1)).unwrap();
        tx.send(reply(&collector, &partials, 2, 1)).unwrap();
        let round = collector.collect(1, &rx).unwrap();
        assert_eq!(round.residual, 0.0);
        assert_eq!(round.busy.len(), 3);
        assert_eq!(round.late_busy, vec![0.0; 3]);
        assert_full_gradient(&round, &partials);

        // A round fed only out-of-range rows fails as undecodable at the
        // deadline instead of panicking.
        let (mut collector, partials) = exact_collector(Some(Duration::from_millis(20)));
        collector.dispatch(|_| Ok::<_, RuntimeError>(())).unwrap();
        tx.send(Reply {
            worker: 9,
            ..reply(&collector, &partials, 1, 1)
        })
        .unwrap();
        assert_eq!(
            collector.collect(4, &rx).unwrap_err(),
            RuntimeError::Undecodable {
                iteration: 4,
                received: 0
            }
        );
    }

    #[test]
    fn a_passed_deadline_drains_the_queue_before_the_ladder() {
        // The deadline has expired before collect starts; the exact-only
        // ladder would decline an empty survivor set, so the round only
        // decodes if the queued replies are absorbed first.
        let (mut collector, partials) = exact_collector(Some(Duration::from_millis(1)));
        let (tx, rx) = unbounded();
        collector.dispatch(|_| Ok::<_, RuntimeError>(())).unwrap();
        for w in [2, 1, 0] {
            tx.send(reply(&collector, &partials, w, 1)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(10));
        let round = collector.collect(1, &rx).unwrap();
        assert_eq!(round.residual, 0.0, "exact decode, not a fallback");
        assert_eq!(round.results_used, 2);
        assert_eq!(round.busy[0], 0.0, "decoded before the third reply");
        assert_full_gradient(&round, &partials);
        // The unconsumed reply is still queued; next round it is stale.
        assert_eq!(rx.try_recv().map(|r| r.worker).ok(), Some(0));
    }

    #[test]
    fn wire_error_adds_in_quadrature_and_savings_count_arrivals_only() {
        let (mut collector, partials) = exact_collector(None);
        let (tx, rx) = unbounded();
        collector.dispatch(|_| Ok::<_, RuntimeError>(())).unwrap();
        let full_width = (DIM * 8) as u64;
        // A stale reply's error and payload belong to no round.
        tx.send(Reply {
            wire_error: 100.0,
            payload_bytes: 1,
            ..reply(&collector, &partials, 0, 0)
        })
        .unwrap();
        for (w, err) in [(1, 3.0), (2, 4.0)] {
            tx.send(Reply {
                wire_error: err,
                payload_bytes: 8,
                arrived: Some(Instant::now()),
                ..reply(&collector, &partials, w, 1)
            })
            .unwrap();
        }
        let round = collector.collect(1, &rx).unwrap();
        assert_eq!(round.wire_error, 5.0);
        // Two replies arrived at 8 bytes each; row 0 sent nothing this
        // round and saves nothing.
        assert_eq!(round.bytes_saved, 2 * (full_width - 8));
        assert_eq!(round.alloc_bytes, 2 * full_width);
        assert_eq!(round.arrivals[0], 0.0);
        assert!(round.arrivals[1] >= 0.0 && round.arrivals[2] >= round.arrivals[1]);
        assert_eq!(round.late_busy[0], 0.01, "stale timing surfaces once");
        assert_eq!((round.bytes_sent, round.bytes_received), (0, 0));
        assert!(round.link_bytes.is_empty());
    }
}
