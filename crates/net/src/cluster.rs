//! The socket master: [`SocketCluster`] keeps the life cycle of `m` TCP
//! links to `hetgc-worker` processes — accept and handshake, dispatch,
//! re-code onto the surviving connections, teardown — and hands every
//! round's collect to the same `hetgc_runtime::RoundCollector` the
//! threaded master uses.
//!
//! One reader thread per worker link reassembles chunked gradient frames
//! and forwards each completed reply into a single crossbeam channel:
//! that channel is the collector's reply source, so deadline, drain,
//! escalation, late-timing and decode are the threaded master's code,
//! not a copy of it. The differences are exactly the ones a real network
//! forces: a dead peer is detected (broken write / EOF) rather than
//! impossible, replies carry their real arrival instant, wire error and
//! payload size, each round's traffic is metered in real bytes, and
//! re-coding talks to the *surviving* connections instead of respawning
//! threads.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use hetgc_coding::{CodingMatrix, EscalatingCodec, GradientCodec};
use hetgc_comm::{AnyWireCodec, PayloadEncoding, WireCodec};
use hetgc_ml::{Dataset, Model};
use hetgc_obs::{MetricsRegistry, Phase, Recorder};
use hetgc_runtime::{
    build_codec, worker_shards, ClusterRound, Reply, RoundCollector, RuntimeConfig,
};

use crate::conn::Connection;
use crate::error::NetError;
use crate::frame::{Frame, VERSION};
use crate::spec::{BehaviorSpec, DatasetSpec, Handshake, ModelSpec};

/// Default gradient chunk granularity: 8192 `f64`s = 64 KiB of payload
/// per [`Frame::GradientChunk`] — large enough to amortize framing,
/// small enough that transfer overlaps the worker's ongoing serialization
/// and no frame approaches the protocol cap.
pub const DEFAULT_CHUNK_LEN: usize = 8192;

/// How long [`SocketCluster::start`] waits for all workers to connect.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(30);

/// Cloneable per-link traffic handles: the byte counters shared with the
/// link's writer and reader halves, plus master-side frame counters.
/// Clones share the same atomic cells, so a metrics refresh hook can
/// capture a snapshot-free handle and read live totals without touching
/// the cluster.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    sent_bytes: Arc<AtomicU64>,
    received_bytes: Arc<AtomicU64>,
    frames_sent: Arc<AtomicU64>,
    frames_received: Arc<AtomicU64>,
}

impl LinkStats {
    /// Bytes written to this link's socket since start.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes.load(Ordering::Relaxed)
    }

    /// Bytes read from this link's socket since start.
    pub fn received_bytes(&self) -> u64 {
        self.received_bytes.load(Ordering::Relaxed)
    }

    /// Frames the master wrote to this link (rounds, recodes, handshake).
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }

    /// Frames the master's reader thread decoded off this link.
    pub fn frames_received(&self) -> u64 {
        self.frames_received.load(Ordering::Relaxed)
    }
}

/// Publishes every link's live traffic totals into `registry` as gauges
/// labelled by link index — the pull half of the exposition endpoint:
/// capture `SocketCluster::link_stats` clones in a refresh hook and call
/// this before each scrape.
pub fn export_link_metrics(registry: &MetricsRegistry, links: &[LinkStats]) {
    for (i, link) in links.iter().enumerate() {
        let l = i.to_string();
        let labels = [("link", l.as_str())];
        registry
            .gauge(
                "hetgc_link_sent_bytes",
                "Bytes written to the link",
                &labels,
            )
            .set(link.sent_bytes() as f64);
        registry
            .gauge(
                "hetgc_link_received_bytes",
                "Bytes read from the link",
                &labels,
            )
            .set(link.received_bytes() as f64);
        registry
            .gauge(
                "hetgc_link_frames_sent",
                "Frames the master wrote to the link",
                &labels,
            )
            .set(link.frames_sent() as f64);
        registry
            .gauge(
                "hetgc_link_frames_received",
                "Frames decoded off the link",
                &labels,
            )
            .set(link.frames_received() as f64);
    }
}

/// A bound-but-not-yet-accepting master endpoint: bind first, learn the
/// port, hand the address to the worker processes, then accept.
#[derive(Debug)]
pub struct SocketListener {
    listener: TcpListener,
    addr: SocketAddr,
}

impl SocketListener {
    /// Binds an ephemeral loopback port.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind() -> Result<Self, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        Ok(SocketListener { listener, addr })
    }

    /// The address workers should connect to (`hetgc-worker <addr>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// A running socket worker pool: the master ends of `m` TCP links, one
/// reader thread per link, and the round collector the threaded cluster
/// uses too. Built by [`SocketCluster::start`] after
/// the worker processes have been pointed at a [`SocketListener`].
///
/// Logical coding-matrix rows and physical connections start out
/// identical; [`SocketCluster::recode`] may shrink the logical side to
/// the surviving connections, with `row_of` carrying the mapping.
#[derive(Debug)]
pub struct SocketCluster<M> {
    model: Arc<M>,
    data: Arc<Dataset>,
    config: RuntimeConfig,
    /// Writer side of each physical link, in accept order.
    conns: Vec<Connection>,
    /// Liveness per physical link — cleared by its reader thread on
    /// EOF/error, or by the master on a failed write.
    alive: Vec<Arc<AtomicBool>>,
    /// Logical row → physical connection index (identity at start).
    row_of: Vec<usize>,
    reply_rx: Receiver<Reply<Vec<f64>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    collector: RoundCollector<Vec<f64>>,
    chunk_len: usize,
    /// Per physical link traffic counters (writer + reader halves of link
    /// `c` share `links[c]`'s byte cells); aggregates are sums over this.
    links: Vec<LinkStats>,
    /// Per physical link negotiated payload encoding (accept order).
    encodings: Vec<PayloadEncoding>,
    /// Per-link `(sent, received)` totals snapshotted at the last
    /// dispatch, for per-round deltas.
    bytes_mark: Vec<(u64, u64)>,
}

impl<M> SocketCluster<M>
where
    M: Model + Send + Sync + 'static,
{
    /// Accepts `code.workers()` worker connections on `listener`,
    /// handshakes each (shipping `spec`, the dataset, the behaviour
    /// schedule and its codec row), and spawns one reader thread per
    /// link. Workers are assigned logical rows in accept order.
    ///
    /// `model` must be the model `spec` describes — the master uses it
    /// for decode sizing, the workers rebuild their own from the spec.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] on codec/partitioning/spec problems,
    /// [`NetError::Handshake`] when workers fail to connect (30 s accept
    /// deadline) or speak a different protocol version.
    pub fn start(
        listener: SocketListener,
        code: CodingMatrix,
        model: Arc<M>,
        spec: ModelSpec,
        data: Arc<Dataset>,
        config: &RuntimeConfig,
    ) -> Result<Self, NetError> {
        Self::start_with(listener, code, model, spec, data, config, DEFAULT_CHUNK_LEN)
    }

    /// [`SocketCluster::start`] with an explicit gradient chunk length
    /// (in `f64`s per [`Frame::GradientChunk`]).
    ///
    /// # Errors
    ///
    /// As for [`SocketCluster::start`].
    pub fn start_with(
        listener: SocketListener,
        code: CodingMatrix,
        model: Arc<M>,
        spec: ModelSpec,
        data: Arc<Dataset>,
        config: &RuntimeConfig,
        chunk_len: usize,
    ) -> Result<Self, NetError> {
        Self::start_encoded(
            listener,
            code,
            model,
            spec,
            data,
            config,
            chunk_len,
            PayloadEncoding::F64,
        )
    }

    /// [`SocketCluster::start_with`] with a requested gradient payload
    /// encoding. The encoding is *negotiated per link*: a worker that
    /// advertises the capability in its `Hello` is handshaken onto
    /// `encoding`; one that does not (an older peer) keeps full-width
    /// [`PayloadEncoding::F64`] — never a silent misinterpretation, the
    /// two sides always agree frame by frame. [`Self::link_encodings`]
    /// exposes the negotiation outcome.
    ///
    /// # Errors
    ///
    /// As for [`SocketCluster::start`].
    #[allow(clippy::too_many_arguments)]
    pub fn start_encoded(
        listener: SocketListener,
        code: CodingMatrix,
        model: Arc<M>,
        spec: ModelSpec,
        data: Arc<Dataset>,
        config: &RuntimeConfig,
        chunk_len: usize,
        encoding: PayloadEncoding,
    ) -> Result<Self, NetError> {
        let codec = build_codec(code, config)?;
        if spec.build().num_params() != model.num_params() {
            return Err(NetError::InvalidConfig {
                reason: "model spec does not match the master's model".into(),
            });
        }
        let m = codec.workers();
        let chunk_len = chunk_len.max(1);
        let shards = worker_shards(&codec, data.len())?;
        let dataset_spec = DatasetSpec::from_dataset(&data);
        let (reply_tx, reply_rx) = unbounded::<Reply<Vec<f64>>>();

        let mut conns = Vec::with_capacity(m);
        let mut alive = Vec::with_capacity(m);
        let mut handles = Vec::with_capacity(m);
        let mut links = Vec::with_capacity(m);
        let mut encodings = Vec::with_capacity(m);
        listener.listener.set_nonblocking(true)?;
        let accept_started = Instant::now();
        for (row, (ranges, coefficients)) in shards.into_iter().enumerate() {
            let link = LinkStats::default();
            let stream = accept_one(&listener.listener, accept_started)?;
            let mut conn = Connection::with_counters(
                stream,
                Arc::clone(&link.sent_bytes),
                Arc::clone(&link.received_bytes),
            );
            let negotiated = match conn.recv_deadline(Some(
                ACCEPT_DEADLINE.saturating_sub(accept_started.elapsed()),
            )) {
                Ok(Frame::Hello { version, encodings }) if version == VERSION => {
                    // Per-link negotiation: the requested encoding only
                    // if the worker advertised it; older peers that sent
                    // no capability bytes stay on full-width f64.
                    if encoding != PayloadEncoding::F64 && encodings.contains(&encoding.to_byte()) {
                        encoding
                    } else {
                        PayloadEncoding::F64
                    }
                }
                Ok(Frame::Hello { version, .. }) => {
                    return Err(NetError::Handshake(format!(
                        "worker speaks protocol v{version}, master v{VERSION}"
                    )))
                }
                Ok(other) => {
                    return Err(NetError::Handshake(format!(
                        "expected hello, got {other:?}"
                    )))
                }
                Err(e) => return Err(NetError::Handshake(format!("hello not received: {e}"))),
            };
            conn.send(&Frame::Handshake(Handshake {
                worker: row as u32,
                num_params: model.num_params() as u32,
                chunk_len: chunk_len as u32,
                ranges: wire_ranges(ranges),
                coefficients,
                behavior: BehaviorSpec::from(&config.behavior_of(row)),
                model: spec,
                dataset: dataset_spec.clone(),
                encoding: negotiated,
            }))?;
            link.frames_sent.fetch_add(1, Ordering::Relaxed); // the handshake
            let live = Arc::new(AtomicBool::new(true));
            let reader = Connection::with_counters(
                conn.stream().try_clone()?,
                Arc::default(), // readers never send
                Arc::clone(&link.received_bytes),
            );
            handles.push(spawn_reader(
                reader,
                model.num_params(),
                negotiated,
                reply_tx.clone(),
                Arc::clone(&live),
                Arc::clone(&link.frames_received),
            ));
            alive.push(live);
            conns.push(conn);
            links.push(link);
            encodings.push(negotiated);
        }
        drop(reply_tx); // master keeps only the receiver
        Ok(SocketCluster {
            collector: RoundCollector::new(codec, model.num_params(), config.effective_timeout()),
            model,
            data,
            config: config.clone(),
            conns,
            alive,
            row_of: (0..m).collect(),
            reply_rx,
            handles,
            chunk_len,
            links,
            encodings,
            bytes_mark: vec![(0, 0); m],
        })
    }

    /// Number of (logical) workers in the current code.
    pub fn workers(&self) -> usize {
        self.codec().workers()
    }

    /// Number of data partitions.
    pub fn partitions(&self) -> usize {
        self.codec().partitions()
    }

    /// The escalation-wrapped codec the master decodes with.
    pub fn codec(&self) -> &EscalatingCodec {
        self.collector.codec()
    }

    /// The model the workers compute gradients of.
    pub fn model(&self) -> &Arc<M> {
        &self.model
    }

    /// The training data.
    pub fn data(&self) -> &Arc<Dataset> {
        &self.data
    }

    /// Replaces the round deadline in place (learned-deadline hook).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.collector.set_timeout(timeout);
    }

    /// The gradient chunk granularity the workers were handshaken with
    /// (`f64`s per [`Frame::GradientChunk`]).
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Logical rows whose physical connection is still live.
    pub fn live_rows(&self) -> Vec<usize> {
        (0..self.row_of.len())
            .filter(|&j| self.alive[self.row_of[j]].load(Ordering::Relaxed))
            .collect()
    }

    /// Total real bytes written to worker sockets since start (the sum
    /// of every link's counter).
    pub fn bytes_sent(&self) -> u64 {
        self.links.iter().map(LinkStats::sent_bytes).sum()
    }

    /// Total real bytes read from worker sockets since start.
    pub fn bytes_received(&self) -> u64 {
        self.links.iter().map(LinkStats::received_bytes).sum()
    }

    /// Per physical link negotiated payload encoding, in accept order —
    /// the outcome of the `Hello` capability negotiation. A link shows
    /// [`PayloadEncoding::F64`] either because no compression was
    /// requested or because its worker did not advertise the requested
    /// encoding.
    pub fn link_encodings(&self) -> &[PayloadEncoding] {
        &self.encodings
    }

    /// Per physical link traffic handles (accept order). Clones share
    /// the live counters — capture them in a metrics refresh hook (see
    /// [`export_link_metrics`]) to publish per-link traffic without
    /// borrowing the cluster.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        self.links.clone()
    }

    /// Installs a flight recorder: every subsequent round emits
    /// dispatch/collect/decode spans, per-arrival instants (on the real
    /// arrival clock), and recode spans on hot swaps.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.collector.attach_recorder(recorder);
    }

    /// Attaches cache/solve metric handles to the decode codec (fanned
    /// out through the whole escalation ladder). As with the threaded
    /// cluster, [`SocketCluster::recode`] builds a fresh codec —
    /// re-attach after hot swaps if continuity matters.
    pub fn attach_codec_metrics(&mut self, metrics: hetgc_obs::CodecMetrics) {
        self.collector.codec_mut().attach_metrics(metrics);
    }

    /// Runs one collect round: broadcast, gather, decode or escalate.
    ///
    /// # Errors
    ///
    /// As for [`SocketCluster::dispatch`] and [`SocketCluster::collect`].
    pub fn round(&mut self, iteration: usize, params: &[f64]) -> Result<ClusterRound, NetError> {
        self.dispatch(params)?;
        self.collect(iteration)
    }

    /// Broadcasts `params` to every live worker and returns immediately —
    /// the first half of the split round cycle, encoded once and fanned
    /// out byte-identically to each link.
    ///
    /// Unlike the threaded dispatch, a failed send is **not** fatal: a
    /// real network must survive peer loss, so the link is marked dead
    /// (its worker simply never replies and the escalation ladder absorbs
    /// it) and the round proceeds. Only a fully dead fleet errors.
    ///
    /// # Errors
    ///
    /// * [`NetError::InvalidConfig`] when a round is already in flight.
    /// * [`NetError::WorkerLost`] when no live connection remains.
    pub fn dispatch(&mut self, params: &[f64]) -> Result<(), NetError> {
        self.collector.dispatch(|seq| {
            let encoded = Frame::Round {
                seq,
                params: params.to_vec(),
            }
            .encode();
            for (link, mark) in self.links.iter().zip(self.bytes_mark.iter_mut()) {
                *mark = (link.sent_bytes(), link.received_bytes());
            }
            let mut live = 0usize;
            let mut first_dead = 0usize;
            for &c in &self.row_of {
                if !self.alive[c].load(Ordering::Relaxed) {
                    first_dead = c;
                    continue;
                }
                match self.conns[c].send_encoded(&encoded) {
                    Ok(()) => {
                        live += 1;
                        self.links[c].frames_sent.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        // Broken pipe: the peer is gone. Demote the link
                        // and let the escalation ladder handle the missing
                        // reply.
                        self.alive[c].store(false, Ordering::Relaxed);
                        first_dead = c;
                    }
                }
            }
            if live == 0 {
                return Err(NetError::WorkerLost { worker: first_dead });
            }
            Ok(())
        })
    }

    /// Collects the round started by the last [`SocketCluster::dispatch`]
    /// through the shared [`RoundCollector::collect`], fed by the reader
    /// threads' reply channel, then adds the round's real per-link byte
    /// counts.
    ///
    /// # Errors
    ///
    /// * [`NetError::InvalidConfig`] when no round is in flight.
    /// * [`NetError::Undecodable`] when the round cannot decode within
    ///   the deadline and the ladder declines.
    pub fn collect(&mut self, iteration: usize) -> Result<ClusterRound, NetError> {
        let mut round = self.collector.collect(iteration, &self.reply_rx)?;
        round.link_bytes = self
            .links
            .iter()
            .zip(&self.bytes_mark)
            .map(|(link, &(sent0, recv0))| {
                (link.sent_bytes() - sent0, link.received_bytes() - recv0)
            })
            .collect();
        round.bytes_sent = round.link_bytes.iter().map(|&(s, _)| s).sum();
        round.bytes_received = round.link_bytes.iter().map(|&(_, r)| r).sum();
        Ok(round)
    }

    /// Hot-swaps a rebuilt coding strategy onto the **surviving**
    /// connections: the new matrix (which must have exactly one row per
    /// live link) is compiled into the configured backend + escalation
    /// policy, and each survivor receives a [`Frame::Recode`] carrying
    /// its new row, sample ranges and coefficients. TCP ordering makes an
    /// acknowledgement unnecessary: a worker applies the recode before
    /// any round dispatched after it, and replies to older rounds are
    /// already filtered by sequence number.
    ///
    /// Unlike the threaded hot-swap, nothing is respawned — the processes
    /// keep their dataset and behaviour; only row/shard/coefficients
    /// change. Behaviour schedules therefore stay pinned to the physical
    /// process, not the logical row.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] when the matrix does not match the
    /// live-connection count or cannot be compiled/partitioned — the old
    /// regime keeps running in that case. A send failure to a survivor
    /// surfaces as [`NetError::WorkerLost`].
    pub fn recode(&mut self, code: CodingMatrix) -> Result<(), NetError> {
        if self.collector.in_flight() {
            return Err(NetError::InvalidConfig {
                reason: "recode while a round is in flight (collect it first)".into(),
            });
        }
        let live: Vec<usize> = (0..self.alive.len())
            .filter(|&c| self.alive[c].load(Ordering::Relaxed))
            .collect();
        if code.workers() != live.len() {
            return Err(NetError::InvalidConfig {
                reason: format!(
                    "recode matrix has {} rows but {} live connections",
                    code.workers(),
                    live.len()
                ),
            });
        }
        let recorder = self.collector.recorder().cloned();
        let _recode_span = recorder.as_ref().map(|r| r.span(Phase::Recode));
        let codec = build_codec(code, &self.config)?;
        let shards = worker_shards(&codec, self.data.len())?;
        for ((j, &c), (ranges, coefficients)) in live.iter().enumerate().zip(shards) {
            let frame = Frame::Recode {
                row: j as u32,
                ranges: wire_ranges(ranges),
                coefficients,
            };
            if self.conns[c].send(&frame).is_err() {
                self.alive[c].store(false, Ordering::Relaxed);
                return Err(NetError::WorkerLost { worker: c });
            }
            self.links[c].frames_sent.fetch_add(1, Ordering::Relaxed);
        }
        self.collector.reshape(codec);
        self.row_of = live;
        Ok(())
    }

    /// Shuts the worker processes down (best-effort `Shutdown` frames),
    /// closes the links and joins the reader threads. Equivalent to
    /// dropping the cluster, but explicit.
    pub fn shutdown(self) {}
}

impl<M> Drop for SocketCluster<M> {
    fn drop(&mut self) {
        let goodbye = Frame::Shutdown.encode();
        for conn in &mut self.conns {
            let _ = conn.send_encoded(&goodbye);
            // Closing our end unblocks the reader thread on the cloned fd.
            let _ = conn.stream().shutdown(std::net::Shutdown::Both);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Sample ranges in the handshake's wire form.
fn wire_ranges(ranges: Vec<(usize, usize)>) -> Vec<(u32, u32)> {
    ranges
        .into_iter()
        .map(|(lo, hi)| (lo as u32, hi as u32))
        .collect()
}

/// Polls a nonblocking accept until a connection arrives or the accept
/// deadline (measured from `started`) passes.
fn accept_one(listener: &TcpListener, started: Instant) -> Result<TcpStream, NetError> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => return Ok(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if started.elapsed() > ACCEPT_DEADLINE {
                    return Err(NetError::Handshake(
                        "timed out waiting for workers to connect".into(),
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
}

/// An in-progress reply reassembly on one link.
struct PendingReply {
    seq: u64,
    worker: u32,
    buf: Vec<f64>,
    /// Contiguous prefix filled so far — enforced (and meaningful) only
    /// on encoded links, where chunks must arrive in offset order.
    filled: usize,
    /// Wire bytes of gradient payload accumulated for this reply.
    payload_bytes: u64,
}

/// Spawns the reader thread for one link: reassembles
/// [`Frame::GradientChunk`]s (or, on a lossy-negotiated link,
/// [`Frame::EncodedChunk`]s dequantized on arrival) into a gradient
/// buffer and forwards each [`Frame::RoundDone`] as a completed
/// [`Reply`], stamped with its arrival instant. Exits (marking the link dead) on EOF, transport error or
/// protocol violation — a chunk whose encoding contradicts the handshake
/// kills the link rather than risking a misinterpreted payload.
fn spawn_reader(
    mut conn: Connection,
    num_params: usize,
    encoding: PayloadEncoding,
    replies: Sender<Reply<Vec<f64>>>,
    alive: Arc<AtomicBool>,
    frames_received: Arc<AtomicU64>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let codec = AnyWireCodec::for_encoding(encoding);
        let mut pending: Option<PendingReply> = None;
        // EOF, broken link or garbage ends the loop: the peer is gone.
        while let Ok(frame) = conn.recv() {
            frames_received.fetch_add(1, Ordering::Relaxed);
            match frame {
                Frame::GradientChunk {
                    seq,
                    worker,
                    offset,
                    total,
                    data,
                } => {
                    if encoding != PayloadEncoding::F64 {
                        break; // handshake said encoded traffic: violation
                    }
                    if total as usize != num_params {
                        continue; // wrong regime/corrupt: drop
                    }
                    let resumes = matches!(&pending, Some(p) if p.seq == seq && p.worker == worker);
                    if !resumes {
                        pending = Some(PendingReply {
                            seq,
                            worker,
                            buf: vec![0.0; num_params],
                            filled: 0,
                            payload_bytes: 0,
                        });
                    }
                    let p = pending.as_mut().expect("set above");
                    let offset = offset as usize;
                    if offset + data.len() <= p.buf.len() {
                        p.buf[offset..offset + data.len()].copy_from_slice(&data);
                        p.payload_bytes += 8 * data.len() as u64;
                    }
                }
                Frame::EncodedChunk {
                    seq,
                    worker,
                    offset,
                    total,
                    encoding: chunk_encoding,
                    bytes,
                } => {
                    // Only the negotiated encoding is ever dequantized;
                    // anything else is a protocol violation, not a
                    // fallback opportunity.
                    if encoding == PayloadEncoding::F64 || chunk_encoding != encoding {
                        break;
                    }
                    if total as usize != num_params {
                        continue; // wrong regime/corrupt: drop
                    }
                    let resumes = matches!(&pending, Some(p) if p.seq == seq && p.worker == worker);
                    if !resumes {
                        pending = Some(PendingReply {
                            seq,
                            worker,
                            buf: vec![0.0; num_params],
                            filled: 0,
                            payload_bytes: 0,
                        });
                    }
                    let p = pending.as_mut().expect("set above");
                    let Ok(n) = codec.decoded_len(&bytes) else {
                        break; // corrupt codec payload: kill the link
                    };
                    let offset = offset as usize;
                    // Encoded chunks must tile the gradient in order —
                    // the worker streams them that way, and contiguity
                    // is what lets RoundDone verify full coverage.
                    if offset != p.filled || offset + n > p.buf.len() {
                        break;
                    }
                    if codec
                        .decode_into(&bytes, &mut p.buf[offset..offset + n])
                        .is_err()
                    {
                        break;
                    }
                    p.filled += n;
                    p.payload_bytes += bytes.len() as u64;
                }
                Frame::RoundDone {
                    seq,
                    worker,
                    compute_seconds,
                    wire_error,
                } => {
                    let done = match pending.take() {
                        Some(p) if p.seq == seq && p.worker == worker => p,
                        other => {
                            pending = other; // chunks belong elsewhere: keep them
                            continue; // no payload for this round: drop the reply
                        }
                    };
                    if encoding != PayloadEncoding::F64 && done.filled != num_params {
                        break; // encoded reply with holes: violation
                    }
                    let reply = Reply {
                        worker: worker as usize,
                        seq,
                        coded: done.buf,
                        compute_seconds,
                        wire_error: wire_error.unwrap_or(0.0),
                        payload_bytes: done.payload_bytes,
                        arrived: Some(Instant::now()),
                    };
                    if replies.send(reply).is_err() {
                        break; // master gone
                    }
                }
                Frame::Shutdown => break,
                _ => {} // masters ignore control frames meant for workers
            }
        }
        alive.store(false, Ordering::Relaxed);
    })
}
