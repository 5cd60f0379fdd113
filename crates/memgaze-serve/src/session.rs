//! Session lifecycle: create → feed → seal → query, with admission
//! control and live delta publication.
//!
//! A session owns an ordered sequence of shard uploads. Each upload is
//! a complete v2 MGZT container (header + shard frames + trailer) whose
//! frames are decoded through [`ShardReader`] and analyzed shard by
//! shard into [`PartialReport`] delta frames — the same per-shard
//! partials the store's result cache merges,
//! so the sealed report inherits their proven merge laws: folding the
//! per-shard partials in feed order and finishing once is bit-identical
//! to a resident [`StreamingAnalyzer`](memgaze_analysis::StreamingAnalyzer)
//! pass over the same shards.
//!
//! Every `watch_window_shards` shards close a rolling watch window: the
//! window's shard partials are merged once, the merged partial goes
//! through the session's [`WindowRing`] with the loads its shards
//! covered, and it replaces the shards in the list the seal merges.
//! Merge is associative over contiguous cuts, so the sealed report is
//! the same either way, and no partial is cloned. A shard covers the
//! loads since the previous one's last trigger time — watch's rule —
//! and an upload's first shard the rest of its trailer's `total_loads`.
//!
//! Concurrency discipline is a *combining lock*: uploads enter a
//! bounded FIFO queue under the session mutex, and whichever handler
//! finds no drainer active becomes the drainer, analyzing queued
//! uploads (lock released during analysis) until the queue is empty.
//! Shard order is strict, memory is bounded by `queue_depth` ×
//! `max_upload_bytes`, and no session ever needs a dedicated thread.

use crate::error::ServeError;
use crate::http::hex;
use crate::ServeConfig;
use memgaze_analysis::{
    AnomalyMark, PartialReport, StreamingAnalyzer, StreamingReport, WindowRing, WindowStats,
    ANOMALY_THRESHOLD,
};
use memgaze_model::{AuxAnnotations, ModelError, ShardReader, SymbolTable, TraceMeta};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Everything a seal produces, shared out read-only.
#[derive(Debug)]
pub struct SealedReport {
    /// The merged [`PartialReport`], encoded with the MGZP codec.
    pub partial_bytes: Vec<u8>,
    /// Accumulated trace metadata (header fields from the first upload,
    /// trailer totals summed across uploads).
    pub meta: TraceMeta,
    /// Shards fed across all uploads.
    pub shards: u64,
    /// Samples fed across all uploads.
    pub samples: u64,
}

impl SealedReport {
    /// Decode and finish into the final report — the client-side half
    /// of the bit-identity contract.
    pub fn finish(&self) -> Result<StreamingReport, String> {
        let partial = PartialReport::decode(&self.partial_bytes).map_err(|e| e.to_string())?;
        Ok(partial.finish(&self.meta))
    }
}

/// Point-in-time session status.
#[derive(Debug, Clone, Copy)]
pub struct SessionStatus {
    /// Whether the session has been sealed.
    pub sealed: bool,
    /// Shards analyzed so far.
    pub shards: u64,
    /// Samples analyzed so far.
    pub samples: u64,
    /// Upload bytes accepted so far (analyzed + queued).
    pub bytes: u64,
    /// Uploads waiting in the queue right now.
    pub queued: usize,
    /// High-water mark of `bytes` (equals `bytes`; uploads are never
    /// returned).
    pub peak_bytes: u64,
}

/// What one feed call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeedSummary {
    /// Shards this call analyzed (its own upload and any it drained for
    /// other callers).
    pub shards: u64,
    /// Samples this call analyzed.
    pub samples: u64,
    /// Uploads still queued when the call returned (nonzero only when
    /// another handler was draining).
    pub queued: usize,
}

/// Per-shard analysis output, before it is folded into session state.
struct UploadAnalysis {
    /// The header's fields and the trailer's totals.
    meta: TraceMeta,
    /// Each shard's partial and the loads it covered.
    shards: Vec<(PartialReport, u64)>,
}

struct SessionInner {
    sealed: Option<Arc<SealedReport>>,
    /// First decode failure; poisons the session (data completeness can
    /// no longer be guaranteed).
    error: Option<String>,
    queue: VecDeque<Vec<u8>>,
    queued_bytes: u64,
    /// True while some handler is the active drainer.
    draining: bool,
    accepted_bytes: u64,
    shards: u64,
    samples: u64,
    meta: Option<TraceMeta>,
    /// One merged partial per closed watch window, then the open
    /// window's per-shard partials from `window_start` on.
    partials: Vec<PartialReport>,
    window_start: usize,
    /// Loads the open window's shards covered.
    window_loads: u64,
    subscribers: Vec<TcpStream>,
    last_touch: Instant,
    /// Drift detection across this session's windows.
    ring: WindowRing,
}

/// One live analysis session.
pub struct Session {
    /// Session id, unique within the server.
    pub id: String,
    inner: Mutex<SessionInner>,
    idle: Condvar,
    /// Server-wide watch-event hub this session publishes windows to.
    hub: Arc<WatchHub>,
}

/// The server-wide `GET /watch/events` fan-out point: every session's
/// closed windows and anomaly marks are published to every subscriber.
#[derive(Default)]
pub struct WatchHub {
    subscribers: Mutex<Vec<TcpStream>>,
}

impl WatchHub {
    fn subs(&self) -> MutexGuard<'_, Vec<TcpStream>> {
        self.subscribers.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Register a live watch subscriber.
    pub fn subscribe(&self, stream: TcpStream) {
        self.subs().push(stream);
        memgaze_obs::counter!("serve.watch_subscribers").add(1);
    }

    /// Watch subscribers right now.
    pub fn subscriber_count(&self) -> usize {
        self.subs().len()
    }

    /// Publish one event to every watch subscriber.
    pub fn publish(&self, event: &str, data: &str) {
        publish(&mut self.subs(), event, data);
    }

    /// Publish the final `drained` event and close every subscriber.
    pub fn close(&self, sessions_sealed: usize) {
        let mut subs = self.subs();
        publish(
            &mut subs,
            "drained",
            &format!("{{\"sessions_sealed\":{sessions_sealed}}}"),
        );
        subs.clear();
    }
}

/// Poison-proof lock: a handler that panicked while holding the mutex
/// must not take the whole session (and with it the daemon's ability to
/// answer for this id) down with it.
fn lock(m: &Mutex<SessionInner>) -> MutexGuard<'_, SessionInner> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Session {
    fn new(id: String, hub: Arc<WatchHub>) -> Session {
        Session {
            id,
            inner: Mutex::new(SessionInner {
                sealed: None,
                error: None,
                queue: VecDeque::new(),
                queued_bytes: 0,
                draining: false,
                accepted_bytes: 0,
                shards: 0,
                samples: 0,
                meta: None,
                partials: Vec::new(),
                window_start: 0,
                window_loads: 0,
                subscribers: Vec::new(),
                last_touch: Instant::now(),
                ring: WindowRing::new(ANOMALY_THRESHOLD),
            }),
            idle: Condvar::new(),
            hub,
        }
    }

    /// Current status snapshot.
    pub fn status(&self) -> SessionStatus {
        let g = lock(&self.inner);
        SessionStatus {
            sealed: g.sealed.is_some(),
            shards: g.shards,
            samples: g.samples,
            bytes: g.accepted_bytes,
            queued: g.queue.len(),
            peak_bytes: g.accepted_bytes,
        }
    }

    /// Admission check + enqueue, without draining. Split out from
    /// [`feed`](Self::feed) so the rejection paths are directly
    /// testable.
    pub fn try_enqueue(&self, body: Vec<u8>, cfg: &ServeConfig) -> Result<usize, ServeError> {
        let mut g = lock(&self.inner);
        g.last_touch = Instant::now();
        if g.sealed.is_some() {
            return Err(ServeError::Sealed {
                id: self.id.clone(),
            });
        }
        if let Some(detail) = &g.error {
            return Err(ServeError::Decode {
                session: self.id.clone(),
                detail: detail.clone(),
            });
        }
        let would_hold = g.accepted_bytes + body.len() as u64;
        if would_hold > cfg.session_bytes {
            memgaze_obs::counter!("serve.rejected").add(1);
            return Err(ServeError::ByteBudget {
                session: self.id.clone(),
                budget: cfg.session_bytes,
                would_hold,
            });
        }
        if g.queue.len() >= cfg.queue_depth {
            memgaze_obs::counter!("serve.rejected").add(1);
            return Err(ServeError::QueueFull {
                session: self.id.clone(),
                depth: cfg.queue_depth,
            });
        }
        g.accepted_bytes = would_hold;
        g.queued_bytes += body.len() as u64;
        g.queue.push_back(body);
        Ok(g.queue.len())
    }

    /// Feed one uploaded container: enqueue, then drain the queue if no
    /// other handler is already doing so. Deltas are published to
    /// subscribers as each shard's partial lands.
    pub fn feed(&self, body: Vec<u8>, cfg: &ServeConfig) -> Result<FeedSummary, ServeError> {
        let mut span = memgaze_obs::span("serve.feed");
        if span.is_active() {
            span.set_label(format!("{} ({} bytes)", self.id, body.len()));
        }
        self.try_enqueue(body, cfg)?;
        let mut g = lock(&self.inner);
        if g.draining {
            // Another handler owns the drain; our upload keeps FIFO
            // order in its queue.
            return Ok(FeedSummary {
                queued: g.queue.len(),
                ..FeedSummary::default()
            });
        }
        g.draining = true;
        let outcome = self.drain_queue(g, cfg);
        let mut g = lock(&self.inner);
        g.draining = false;
        g.last_touch = Instant::now();
        drop(g);
        self.idle.notify_all();
        outcome
    }

    /// Drain the pending queue in FIFO order; the caller must have set
    /// `draining`. The lock is released while a batch is analyzed so
    /// concurrent feeds can still enqueue.
    fn drain_queue<'a>(
        &'a self,
        mut g: MutexGuard<'a, SessionInner>,
        cfg: &ServeConfig,
    ) -> Result<FeedSummary, ServeError> {
        let mut summary = FeedSummary::default();
        while let Some(upload) = g.queue.pop_front() {
            g.queued_bytes = g.queued_bytes.saturating_sub(upload.len() as u64);
            drop(g);
            let started = Instant::now();
            let analyzed = analyze_upload(&upload, cfg);
            memgaze_obs::histogram!("serve.feed_us")
                .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
            g = lock(&self.inner);
            match analyzed {
                Ok(an) => {
                    if let Err(e) = self.absorb(&mut g, an, &mut summary, cfg) {
                        g.error = Some(e.to_string());
                        return Err(e);
                    }
                }
                Err(e) => {
                    let err = ServeError::decode(&self.id, &e);
                    g.error = Some(err.to_string());
                    memgaze_obs::counter!("serve.decode_failures").add(1);
                    return Err(err);
                }
            }
        }
        Ok(summary)
    }

    /// Fold one analyzed upload into session state and publish deltas.
    fn absorb(
        &self,
        g: &mut MutexGuard<'_, SessionInner>,
        an: UploadAnalysis,
        summary: &mut FeedSummary,
        cfg: &ServeConfig,
    ) -> Result<(), ServeError> {
        match &mut g.meta {
            None => g.meta = Some(an.meta),
            Some(meta) => {
                if meta.workload != an.meta.workload {
                    return Err(ServeError::MetaMismatch {
                        detail: format!(
                            "upload workload {} vs session {}",
                            an.meta.workload, meta.workload
                        ),
                    });
                }
                // The totals are what the client's trailers claim; a sum
                // past `u64` is not a trace any client recorded.
                let sum = |session: u64, upload: u64, what: &str| {
                    session
                        .checked_add(upload)
                        .ok_or_else(|| ServeError::MetaMismatch {
                            detail: format!(
                                "{what}: the session's {session} plus the upload's {upload} \
                                 overflows u64"
                            ),
                        })
                };
                let total = sum(meta.total_loads, an.meta.total_loads, "total loads")?;
                let instrumented = sum(
                    meta.total_instrumented_loads,
                    an.meta.total_instrumented_loads,
                    "total instrumented loads",
                )?;
                meta.total_loads = total;
                meta.total_instrumented_loads = instrumented;
            }
        }
        for (partial, loads) in an.shards {
            let samples = partial.num_samples();
            let shard_no = g.shards;
            g.shards += 1;
            g.samples += samples;
            summary.shards += 1;
            summary.samples += samples;
            memgaze_obs::counter!("serve.shards_fed").add(1);
            if !g.subscribers.is_empty() {
                let data = format!(
                    "{{\"session\":\"{}\",\"shard\":{},\"samples\":{},\"partial\":\"{}\"}}",
                    self.id,
                    shard_no,
                    samples,
                    hex(&partial.encode())
                );
                publish(&mut g.subscribers, "shard", &data);
            }
            g.partials.push(partial);
            // At most the session's checked total loads.
            g.window_loads += loads;
            if g.partials.len() - g.window_start >= cfg.watch_window_shards.max(1) {
                self.close_watch_window(g, cfg)?;
            }
        }
        Ok(())
    }

    /// Merge the open window's shard partials into one, close it
    /// through the drift ring, keep the merged partial for the seal,
    /// and publish `window`/`anomaly` events on the server-wide watch
    /// hub.
    fn close_watch_window(
        &self,
        g: &mut SessionInner,
        cfg: &ServeConfig,
    ) -> Result<(), ServeError> {
        let merged = merge(g.partials.split_off(g.window_start), cfg)?;
        let (stats, marks) = g.ring.close(&merged, std::mem::take(&mut g.window_loads));
        g.partials.push(merged);
        g.window_start = g.partials.len();
        memgaze_obs::counter!("serve.watch_windows").add(1);
        self.hub.publish("window", &window_json(&self.id, &stats));
        for m in &marks {
            memgaze_obs::counter!("serve.watch_anomalies").add(1);
            self.hub.publish("anomaly", &anomaly_json(&self.id, m));
        }
        Ok(())
    }

    /// Seal the session: wait out any active drainer, drain whatever is
    /// still queued, merge all per-shard partials, and freeze the
    /// outcome. Idempotent — a second seal returns the same report.
    pub fn seal(&self, cfg: &ServeConfig) -> Result<Arc<SealedReport>, ServeError> {
        let mut span = memgaze_obs::span("serve.seal");
        if span.is_active() {
            span.set_label(self.id.clone());
        }
        let mut g = lock(&self.inner);
        while g.draining {
            g = self.idle.wait(g).unwrap_or_else(|p| p.into_inner());
        }
        if let Some(sealed) = &g.sealed {
            return Ok(Arc::clone(sealed));
        }
        if let Some(detail) = &g.error {
            return Err(ServeError::Decode {
                session: self.id.clone(),
                detail: detail.clone(),
            });
        }
        // Become the drainer for anything still queued.
        if !g.queue.is_empty() {
            g.draining = true;
            let outcome = self.drain_queue(g, cfg);
            g = lock(&self.inner);
            g.draining = false;
            self.idle.notify_all();
            outcome?;
        }

        // Flush a trailing partial watch window so the live view covers
        // the stream's tail before the final `sealed` event.
        if g.partials.len() > g.window_start {
            if let Err(e) = self.close_watch_window(&mut g, cfg) {
                g.error = Some(e.to_string());
                return Err(e);
            }
        }
        let partials = std::mem::take(&mut g.partials);
        let merged = merge(partials, cfg)?;
        let meta = g
            .meta
            .clone()
            .unwrap_or_else(|| TraceMeta::new("empty-session", 1, 0));
        let sealed = Arc::new(SealedReport {
            partial_bytes: merged.encode(),
            meta,
            shards: g.shards,
            samples: g.samples,
        });
        g.sealed = Some(Arc::clone(&sealed));
        g.last_touch = Instant::now();
        publish_sealed(&mut g.subscribers, &self.id, &sealed);
        // Closing the streams ends every subscriber's event loop.
        g.subscribers.clear();
        memgaze_obs::counter!("serve.sessions_sealed").add(1);
        Ok(sealed)
    }

    /// The sealed report, if the session has been sealed.
    pub fn sealed(&self) -> Result<Arc<SealedReport>, ServeError> {
        let g = lock(&self.inner);
        match &g.sealed {
            Some(s) => Ok(Arc::clone(s)),
            None => Err(ServeError::NotSealed {
                id: self.id.clone(),
            }),
        }
    }

    /// Register a live-delta subscriber. The stream receives one SSE
    /// `shard` event per future shard and a final `sealed` event.
    ///
    /// If a seal won the race between the route's sealed check and this
    /// registration (e.g. SIGTERM drain), the client already holds an
    /// open SSE stream — so the final `sealed` event is written to it
    /// directly before the socket closes, never a torn stream.
    pub fn subscribe(&self, stream: TcpStream) -> Result<(), ServeError> {
        let mut g = lock(&self.inner);
        if let Some(sealed) = &g.sealed {
            publish_sealed(&mut vec![stream], &self.id, sealed);
            return Ok(());
        }
        g.subscribers.push(stream);
        memgaze_obs::counter!("serve.subscribers").add(1);
        Ok(())
    }

    /// Live delta subscribers right now.
    pub fn subscriber_count(&self) -> usize {
        lock(&self.inner).subscribers.len()
    }

    /// Seconds since the session was last touched.
    pub fn idle_for(&self) -> std::time::Duration {
        lock(&self.inner).last_touch.elapsed()
    }
}

/// Fold partials in frame order; a failure is the seal's typed error.
fn merge(parts: Vec<PartialReport>, cfg: &ServeConfig) -> Result<PartialReport, ServeError> {
    PartialReport::merge_many(
        parts,
        cfg.analysis.footprint_block,
        cfg.analysis.reuse_block,
        &cfg.locality_sizes,
    )
    .map_err(|e| ServeError::BadRequest {
        detail: format!("merge failed: {e}"),
    })
}

/// Render one closed window as a watch-hub event payload.
fn window_json(session: &str, s: &WindowStats) -> String {
    format!(
        "{{\"session\":\"{session}\",\"window\":{},\"samples\":{},\"loads\":{},\"observed\":{},\
         \"f_hat_bytes\":{:.3},\"delta_f\":{:.6},\"df_irr_pct\":{:.3},\"a_const_pct\":{:.3},\
         \"mean_d\":{:.3},\"kappa\":{:.6}}}",
        s.window,
        s.samples,
        s.loads,
        s.observed,
        s.f_hat_bytes,
        s.delta_f,
        s.delta_f_irr_pct,
        s.a_const_pct,
        s.mean_d,
        s.kappa
    )
}

/// Render one anomaly mark as a watch-hub event payload.
fn anomaly_json(session: &str, m: &AnomalyMark) -> String {
    format!(
        "{{\"session\":\"{session}\",\"window\":{},\"metric\":\"{}\",\"ratio\":{:.3},\
         \"detail\":\"{}\"}}",
        m.window,
        m.kind.metric(),
        m.ratio,
        memgaze_obs::json::escape(&m.detail())
    )
}

/// Write one SSE event to every subscriber — formatted once, one write
/// each — dropping the dead ones.
fn publish(subscribers: &mut Vec<TcpStream>, event: &str, data: &str) {
    let _span = memgaze_obs::span("serve.publish");
    if !subscribers.is_empty() {
        let frame = format!("event: {event}\ndata: {data}\n\n");
        subscribers.retain_mut(|s| s.write_all(frame.as_bytes()).is_ok());
    }
    memgaze_obs::counter!("serve.deltas_published").add(1);
}

/// Write a session's final `sealed` event.
fn publish_sealed(subscribers: &mut Vec<TcpStream>, id: &str, sealed: &SealedReport) {
    let data = format!(
        "{{\"session\":\"{id}\",\"shards\":{},\"samples\":{}}}",
        sealed.shards, sealed.samples
    );
    publish(subscribers, "sealed", &data);
}

/// Decode one uploaded container and analyze each shard into its
/// partial — a transient [`StreamingAnalyzer`] per shard over empty
/// annotations (the wire protocol carries traces, not annotation
/// sidecars), the per-shard unit whose merges `partial_merge_matches_resident`
/// holds equal to a resident pass — beside the loads it covered. The shards' loads add up to the trailer's, whatever period
/// each was sampled at; a trigger that runs backwards across frames, or
/// a trailer below the loads the later frames cover, is a typed error.
fn analyze_upload(body: &[u8], cfg: &ServeConfig) -> Result<UploadAnalysis, ModelError> {
    let _span = memgaze_obs::span("serve.parse");
    let annots = AuxAnnotations::new();
    let symbols = SymbolTable::new();
    let mut reader = ShardReader::new(body)?;
    // The last trigger so far; the loads of the frames after the first.
    let (mut shards, mut last, mut later) = (Vec::new(), None, 0u64);
    for shard in reader.by_ref() {
        let shard = shard?;
        let mut sa = StreamingAnalyzer::new(&annots, &symbols, cfg.analysis)
            .with_locality_sizes(&cfg.locality_sizes);
        sa.ingest_shard(&shard.samples);
        let now = shard.samples.last().map(|s| s.trigger_time).or(last);
        let loads = last
            .zip(now)
            .map_or(Some(0), |(l, n)| n.checked_sub(l))
            .ok_or_else(|| ModelError::InShard {
                shard: shard.index,
                source: Box::new(ModelError::UnorderedSamples {
                    index: shard.samples.len().saturating_sub(1),
                }),
            })?;
        (last, later) = (now, later + loads);
        shards.push((sa.into_partial(), loads));
    }
    let meta = reader.meta().clone();
    if let Some((_, first)) = shards.first_mut() {
        let total_loads = meta.total_loads;
        *first = total_loads
            .checked_sub(later)
            .ok_or(ModelError::InconsistentTotals {
                total_loads,
                at_least: later,
            })?;
    }
    Ok(UploadAnalysis { meta, shards })
}

/// The server's session table: creation, lookup, idle reaping, and the
/// drain switch that turns new work away during shutdown.
pub struct Registry {
    /// Shared admission-control and analysis configuration.
    pub cfg: ServeConfig,
    sessions: Mutex<HashMap<String, Arc<Session>>>,
    next_id: AtomicU64,
    draining: AtomicBool,
    hub: Arc<WatchHub>,
}

impl Registry {
    /// A registry enforcing `cfg`'s limits.
    pub fn new(cfg: ServeConfig) -> Registry {
        Registry {
            cfg,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            hub: Arc::new(WatchHub::default()),
        }
    }

    /// The server-wide watch-event hub.
    pub fn watch_hub(&self) -> &Arc<WatchHub> {
        &self.hub
    }

    fn table(&self) -> MutexGuard<'_, HashMap<String, Arc<Session>>> {
        self.sessions.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Create a session, enforcing the live-session cap.
    pub fn create(&self) -> Result<Arc<Session>, ServeError> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(ServeError::Draining);
        }
        let mut table = self.table();
        if table.len() >= self.cfg.max_sessions {
            memgaze_obs::counter!("serve.rejected").add(1);
            return Err(ServeError::SessionLimit {
                limit: self.cfg.max_sessions,
            });
        }
        let id = format!("s{}", self.next_id.fetch_add(1, Ordering::SeqCst));
        let session = Arc::new(Session::new(id.clone(), Arc::clone(&self.hub)));
        table.insert(id, Arc::clone(&session));
        memgaze_obs::counter!("serve.sessions_created").add(1);
        memgaze_obs::gauge!("serve.live_sessions").set_max(table.len() as u64);
        Ok(session)
    }

    /// Look up a session by id.
    pub fn get(&self, id: &str) -> Result<Arc<Session>, ServeError> {
        self.table()
            .get(id)
            .cloned()
            .ok_or_else(|| ServeError::UnknownSession { id: id.to_string() })
    }

    /// Whether feeds should be refused because the server is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Remove a session (client delete or reaper). Handlers still
    /// holding its `Arc` finish safely; new lookups see 404.
    pub fn remove(&self, id: &str) -> bool {
        self.table().remove(id).is_some()
    }

    /// Session ids currently live, sorted.
    pub fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.table().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Drop sessions idle past the configured timeout. Returns how many
    /// were reaped.
    pub fn reap_idle(&self) -> usize {
        let timeout = self.cfg.idle_timeout;
        let mut table = self.table();
        let before = table.len();
        table.retain(|_, s| s.idle_for() < timeout);
        let reaped = before - table.len();
        if reaped > 0 {
            memgaze_obs::counter!("serve.sessions_reaped").add(reaped as u64);
        }
        reaped
    }

    /// Enter drain mode and seal every open session, flushing deltas.
    /// Returns `(sessions sealed, seal failures)`.
    pub fn seal_all(&self) -> (usize, usize) {
        self.draining.store(true, Ordering::SeqCst);
        let sessions: Vec<Arc<Session>> = self.table().values().cloned().collect();
        let mut sealed = 0usize;
        let mut failures = 0usize;
        for s in sessions {
            let already = s.status().sealed;
            match s.seal(&self.cfg) {
                Ok(_) if !already => sealed += 1,
                Ok(_) => {}
                Err(_) => failures += 1,
            }
        }
        // Watch subscribers get a final `drained` event, then close.
        self.hub.close(sealed);
        (sealed, failures)
    }
}
