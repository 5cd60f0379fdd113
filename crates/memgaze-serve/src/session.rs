//! Session lifecycle: create → feed → seal → query, with admission
//! control and live delta publication.
//!
//! A session owns an ordered sequence of uploads, and the upload is
//! its unit. Each upload is a complete v2 MGZT container (header +
//! shard frames + trailer) whose frames are decoded through
//! [`ShardReader`] and fed, in feed order, to the session's one running
//! [`StreamingAnalyzer`]: one fold over the session's frames, which is
//! what a resident pass computes. The rows the upload added close one
//! watch window through the session's [`WindowRing`] with the loads its
//! trailer counts; the seal is the analyzer's [`PartialReport`]. Only a
//! session with delta subscribers folds an upload twice, the second
//! time into the upload's own partial, which is its published delta.
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
use std::sync::{Arc, Condvar, LazyLock, Mutex, MutexGuard};
use std::time::Instant;

/// Everything a seal produces, shared out read-only.
#[derive(Debug)]
pub struct SealedReport {
    /// The session's [`PartialReport`], encoded with the MGZP codec.
    pub partial_bytes: Vec<u8>,
    /// Accumulated trace metadata (header fields from the first upload,
    /// trailer totals summed across uploads).
    pub(crate) meta: TraceMeta,
    /// Shards fed across all uploads.
    pub shards: u64,
    /// Samples fed across all uploads.
    pub(crate) samples: u64,
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
    pub(crate) sealed: bool,
    /// Shards analyzed so far.
    pub(crate) shards: u64,
    /// Samples analyzed so far.
    pub(crate) samples: u64,
    /// Upload bytes accepted so far (analyzed + queued).
    pub(crate) bytes: u64,
    /// Uploads waiting in the queue right now.
    pub(crate) queued: usize,
    /// High-water mark of `bytes` (equals `bytes`; uploads are never
    /// returned).
    pub peak_bytes: u64,
}

/// What one feed call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeedSummary {
    /// Shards this call analyzed (its own upload and any it drained for
    /// other callers).
    pub(crate) shards: u64,
    /// Samples this call analyzed.
    pub(crate) samples: u64,
    /// Uploads still queued when the call returned (nonzero only when
    /// another handler was draining).
    pub(crate) queued: usize,
}

/// One upload fed to the session's analyzer.
struct UploadAnalysis {
    /// The header's fields and the trailer's totals.
    meta: TraceMeta,
    /// Frames the upload carried.
    shards: u64,
    /// The upload's own partial, built for delta subscribers only.
    delta: Option<PartialReport>,
}

struct SessionInner {
    sealed: Option<Arc<SealedReport>>,
    /// First decode failure; poisons the session (data completeness can
    /// no longer be guaranteed).
    error: Option<String>,
    queue: VecDeque<Vec<u8>>,
    /// True while some handler is the active drainer.
    draining: bool,
    accepted_bytes: u64,
    shards: u64,
    samples: u64,
    meta: Option<TraceMeta>,
    /// The session's one fold, fed every upload in feed order; `None`
    /// while the drainer holds it, and for good if that drainer died.
    fold: Option<StreamingAnalyzer<'static>>,
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
    fn publish(&self, event: &str, data: &str) {
        publish(&mut self.subs(), event, data);
    }

    /// Publish the final `drained` event and close every subscriber.
    fn close(&self, sessions_sealed: usize) {
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
    fn new(id: String, hub: Arc<WatchHub>, cfg: &ServeConfig) -> Session {
        Session {
            id,
            inner: Mutex::new(SessionInner {
                sealed: None,
                error: None,
                queue: VecDeque::new(),
                draining: false,
                accepted_bytes: 0,
                shards: 0,
                samples: 0,
                meta: None,
                fold: Some(analyzer(cfg)),
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

    /// What a poisoned session answers every feed and seal with.
    fn poisoned(&self, g: &SessionInner) -> ServeError {
        ServeError::Decode {
            session: self.id.clone(),
            detail: g.error.clone().unwrap_or_default(),
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
        if g.error.is_some() {
            return Err(self.poisoned(&g));
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
        g.queue.push_back(body);
        Ok(g.queue.len())
    }

    /// Feed one uploaded container: enqueue, then drain the queue if no
    /// other handler is already doing so. Deltas are published to
    /// subscribers as each upload's partial lands.
    pub fn feed(&self, body: Vec<u8>, cfg: &ServeConfig) -> Result<FeedSummary, ServeError> {
        let mut span = memgaze_obs::span("serve.feed");
        if span.is_active() {
            span.set_label(format!("{} ({} bytes)", self.id, body.len()));
        }
        self.try_enqueue(body, cfg)?;
        let g = lock(&self.inner);
        if g.draining {
            // Another handler owns the drain; our upload keeps FIFO
            // order in its queue.
            return Ok(FeedSummary {
                queued: g.queue.len(),
                ..FeedSummary::default()
            });
        }
        self.drain_queue(g, cfg)
    }

    /// Become the drainer (the caller found none active) and drain the
    /// queue in FIFO order, with the analyzer taken out and the lock
    /// released while an upload is fed, so feeds can still enqueue.
    fn drain_queue<'a>(
        &'a self,
        g: MutexGuard<'a, SessionInner>,
        cfg: &ServeConfig,
    ) -> Result<FeedSummary, ServeError> {
        let _stand_down = StandDown(self);
        // Bound after the stand-down, so released before it runs.
        let mut g = g;
        g.draining = true;
        let mut summary = FeedSummary::default();
        while let Some(upload) = g.queue.pop_front() {
            let mut fold = g.fold.take().ok_or_else(|| self.poisoned(&g))?;
            let own = (!g.subscribers.is_empty()).then(|| analyzer(cfg));
            drop(g);
            let started = Instant::now();
            let analyzed = analyze_upload(&upload, &mut fold, own);
            memgaze_obs::histogram!("serve.feed_us")
                .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
            g = lock(&self.inner);
            let absorbed = analyzed
                .map_err(|e| {
                    memgaze_obs::counter!("serve.decode_failures").add(1);
                    ServeError::decode(&self.id, &e)
                })
                .and_then(|an| self.absorb(&mut g, &fold, an, cfg, &mut summary));
            g.fold = Some(fold);
            if let Err(e) = absorbed {
                g.error = Some(e.to_string());
                return Err(e);
            }
        }
        Ok(summary)
    }

    /// Take one fed upload into session state: the rows it added to the
    /// analyzer close one watch window with the loads its trailer counts,
    /// published on the watch hub beside its own partial, if built, as
    /// the upload's delta.
    fn absorb(
        &self,
        g: &mut MutexGuard<'_, SessionInner>,
        fold: &StreamingAnalyzer<'_>,
        an: UploadAnalysis,
        cfg: &ServeConfig,
        summary: &mut FeedSummary,
    ) -> Result<(), ServeError> {
        let loads = an.meta.total_loads;
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
        if an.shards == 0 {
            return Ok(());
        }
        // The fold's rows past the session's samples are the upload's.
        let (diags, reuse) = fold.sample_rows(g.samples as usize);
        let samples = diags.len() as u64;
        g.shards += an.shards;
        g.samples += samples;
        summary.shards += an.shards;
        summary.samples += samples;
        memgaze_obs::counter!("serve.shards_fed").add(an.shards);
        let block = cfg.analysis.footprint_block;
        let stats = g.ring.next_stats(diags, reuse, block, loads);
        let marks = g.ring.close_stats(stats);
        if let Some(delta) = an.delta.map(|p| p.encode()) {
            let data = format!(
                "{{\"session\":\"{}\",\"upload\":{},\"shards\":{},\"samples\":{},\
                 \"partial\":\"{}\"}}",
                self.id,
                stats.window,
                an.shards,
                samples,
                hex(&delta)
            );
            publish(&mut g.subscribers, "upload", &data);
        }
        memgaze_obs::counter!("serve.watch_windows").add(1);
        self.hub.publish("window", &window_json(&self.id, &stats));
        for m in &marks {
            memgaze_obs::counter!("serve.watch_anomalies").add(1);
            self.hub.publish("anomaly", &anomaly_json(&self.id, m));
        }
        Ok(())
    }

    /// Seal the session: wait out any active drainer, drain whatever is
    /// still queued, and freeze the session's analyzer into its partial.
    /// Idempotent — a second seal returns the same report.
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
        if g.error.is_some() {
            return Err(self.poisoned(&g));
        }
        // Become the drainer for anything still queued.
        if !g.queue.is_empty() {
            self.drain_queue(g, cfg)?;
            g = lock(&self.inner);
        }
        let fold = g.fold.take().ok_or_else(|| self.poisoned(&g))?;
        let meta = g
            .meta
            .clone()
            .unwrap_or_else(|| TraceMeta::new("empty-session", 1, 0));
        let sealed = Arc::new(SealedReport {
            // An analyzer fed nothing gives the empty partial.
            partial_bytes: fold.into_partial().encode(),
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
    pub(crate) fn sealed(&self) -> Result<Arc<SealedReport>, ServeError> {
        let g = lock(&self.inner);
        match &g.sealed {
            Some(s) => Ok(Arc::clone(s)),
            None => Err(ServeError::NotSealed {
                id: self.id.clone(),
            }),
        }
    }

    /// Register a live-delta subscriber. The stream receives one SSE
    /// `upload` event per future upload that carries frames, numbered
    /// like the watch window it closes, and a final `sealed` event.
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
    fn idle_for(&self) -> std::time::Duration {
        lock(&self.inner).last_touch.elapsed()
    }
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

/// The active drainer's stand-down, run however the drain ends,
/// unwinding included: it clears `draining` and wakes a waiting seal,
/// and a drainer that died holding the session's analyzer leaves the
/// session poisoned, so no seal freezes a fold missing an upload.
struct StandDown<'a>(&'a Session);

impl Drop for StandDown<'_> {
    fn drop(&mut self) {
        let mut g = lock(&self.0.inner);
        g.draining = false;
        g.last_touch = Instant::now();
        if g.fold.is_none() && g.sealed.is_none() {
            g.error.get_or_insert_with(|| "the drainer died".into());
        }
        self.0.idle.notify_all();
    }
}

/// An analyzer for `cfg` over empty annotations and symbols: the wire
/// protocol carries traces, not annotation sidecars.
pub(crate) fn analyzer(cfg: &ServeConfig) -> StreamingAnalyzer<'static> {
    static ANNOTS: LazyLock<AuxAnnotations> = LazyLock::new(AuxAnnotations::new);
    static SYMBOLS: LazyLock<SymbolTable> = LazyLock::new(SymbolTable::new);
    StreamingAnalyzer::new(&ANNOTS, &SYMBOLS, cfg.analysis).with_locality_sizes(&cfg.locality_sizes)
}

/// Decode one uploaded container and feed every frame to the session's
/// analyzer `fold`, and to `own`, if given, for the upload's own
/// partial. The trailer counts the upload's loads, whatever period each
/// frame was sampled at: a frame whose last trigger runs below the
/// previous frame's, or a trailer below the loads between the first and
/// the last frame's last trigger, is a typed error.
fn analyze_upload(
    body: &[u8],
    fold: &mut StreamingAnalyzer<'static>,
    mut own: Option<StreamingAnalyzer<'static>>,
) -> Result<UploadAnalysis, ModelError> {
    let _span = memgaze_obs::span("serve.parse");
    let mut reader = ShardReader::new(body)?;
    // The first and the latest frame's last trigger, and the frame count.
    let (mut first, mut last, mut shards) = (None, None, 0u64);
    for shard in reader.by_ref() {
        let shard = shard?;
        if let Some(now) = shard.samples.last().map(|s| s.trigger_time) {
            if last.is_some_and(|l| now < l) {
                return Err(ModelError::InShard {
                    shard: shard.index,
                    source: Box::new(ModelError::UnorderedSamples {
                        index: shard.samples.len() - 1,
                    }),
                });
            }
            first.get_or_insert(now);
            last = Some(now);
        }
        fold.ingest_shard(&shard.samples);
        if let Some(own) = &mut own {
            own.ingest_shard(&shard.samples);
        }
        shards += 1;
    }
    let meta = reader.meta().clone();
    let span = last.zip(first).map_or(0, |(l, f)| l - f);
    if meta.total_loads < span {
        return Err(ModelError::InconsistentTotals {
            total_loads: meta.total_loads,
            at_least: span,
        });
    }
    Ok(UploadAnalysis {
        meta,
        shards,
        delta: own.map(StreamingAnalyzer::into_partial),
    })
}

/// The server's session table: creation, lookup, idle reaping, and the
/// drain switch that turns new work away during shutdown.
pub struct Registry {
    /// Shared admission-control and analysis configuration.
    pub(crate) cfg: ServeConfig,
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
        let session = Arc::new(Session::new(id.clone(), Arc::clone(&self.hub), &self.cfg));
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
    pub(crate) fn remove(&self, id: &str) -> bool {
        self.table().remove(id).is_some()
    }

    /// Session ids currently live, sorted.
    pub(crate) fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.table().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Drop sessions idle past the configured timeout. Returns how many
    /// were reaped.
    pub(crate) fn reap_idle(&self) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A drainer that dies holding the session's analyzer poisons the
    /// session: no seal freezes a fold missing an upload, and neither a
    /// seal nor a feed waits on the dead drainer.
    #[test]
    fn a_drainer_that_dies_holding_the_fold_poisons_the_session() {
        let cfg = ServeConfig::default();
        let registry = Registry::new(cfg.clone());
        let session = registry.create().expect("create");
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _stand_down = StandDown(&session);
            let mut g = lock(&session.inner);
            g.draining = true;
            let fold = g.fold.take();
            drop(g);
            let _fed_halfway = fold;
            panic!("the drainer dies mid-feed");
        }));
        assert!(died.is_err());
        assert!(!lock(&session.inner).draining);
        let poisoned = |r: Result<(), ServeError>| match r {
            Err(ServeError::Decode { detail, .. }) => detail.contains("died"),
            _ => false,
        };
        assert!(poisoned(session.seal(&cfg).map(drop)));
        let body = crate::harness::container("dies", &[]);
        assert!(poisoned(session.feed(body, &cfg).map(drop)));
        assert!(!session.status().sealed);
    }
}
