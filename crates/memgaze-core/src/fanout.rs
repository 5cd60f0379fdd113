//! Multi-process fan-out coordinator: partition a trace's frames across
//! workers, retry crashed or hung workers, and fold the partial reports
//! in shard order into a [`StreamingReport`] that is bit-identical to
//! the resident analyzer.
//!
//! The frames come from one [`FrameSource`]: an indexed sharded
//! container, or a trace in a [`TraceStore`] whose ranges are analyzed
//! from the catalog and only the blobs they reference (per-frame result
//! cache first), so a retried range re-reads a few blobs rather than the
//! whole container. Both give the same per-frame sample counts, so the
//! partition, merge order and merged report do not depend on the source.
//!
//! Two backends run the ranges:
//!
//! * [`FanoutBackend::InProcess`] runs each range on a coordinator
//!   thread — no serialization, no processes; the reference backend for
//!   tests and the fallback when no worker binary is available;
//! * [`FanoutBackend::Subprocess`] runs ranges on **persistent**
//!   `<exe> analyze-shard` workers held in a [`FanoutPool`]: one
//!   subprocess per slot, spawned once, reopening the source from the
//!   flags it names and then answering length-prefixed range requests
//!   over stdin (`MGZQ` framing) with framed [`PartialReport`]s on
//!   stdout (`MGZW` framing) — the one [`worker_serve`] body. A worker
//!   that dies, produces garbage, or exceeds the per-range timeout is
//!   killed and **respawned**, and the range re-run on the fresh
//!   worker, up to [`FanoutConfig::max_attempts`] tries, without paying
//!   a process spawn and a source load per range.
//!
//! No production path fails on purpose. Tests reach the failure paths
//! from outside: a subprocess backend pointed at a wrapper executable
//! that misbehaves once, and an in-process attempt that panics once,
//! passed to the coordinator loop this module's unit tests call.
//!
//! The coordinator never panics on a worker's behalf: mutexes poisoned
//! by a panicking in-process worker are recovered (the protected data
//! is only ever mutated under short, non-panicking critical sections),
//! the panic itself is caught and routed through the same retry path as
//! a crashed subprocess, and malformed worker output is a typed
//! [`FanoutError::Protocol`].
//!
//! With observability on (`MEMGAZE_OBS`), the run records a
//! `fanout.run` span over per-range `fanout.range`/`fanout.attempt`
//! spans plus `fanout.retry`/`fanout.kill` marks and a
//! `fanout.spawn_worker` span per subprocess actually spawned; each
//! persistent worker writes its own JSONL event file into the scratch
//! directory (stitched to the coordinator via the spawn span's remote
//! parent), which the coordinator absorbs when the worker retires.

use memgaze_analysis::{
    analyze_frames, partition_by_samples, AnalysisConfig, PartialError, PartialReport,
    StreamingReport, WorkerSpec,
};
use memgaze_model::wire::{self, Reader, WireError};
use memgaze_model::{AuxAnnotations, FrameIndex, ModelError, ShardReader, SymbolTable, TraceMeta};
use memgaze_store::{Catalog, StoreConfig, StoreError, TraceStore};
use std::borrow::Cow;
use std::ffi::OsString;
use std::io::{Read, Write};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Magic framing a worker's stdout responses.
const WORKER_MAGIC: &[u8; 4] = b"MGZW";
/// Magic framing the coordinator's stdin requests to a persistent
/// worker.
const REQUEST_MAGIC: &[u8; 4] = b"MGZQ";
/// Fixed payload of a range request: `lo` and `hi` as `u64` LE.
const REQUEST_PAYLOAD_LEN: u32 = 16;
/// Sanity cap on a framed response payload; a length beyond this is a
/// protocol error, not an allocation request.
const MAX_RESPONSE_BYTES: u64 = 1 << 34;

/// The `analyze-shard` flags naming a container source.
const CONTAINER_FLAGS: [&str; 2] = ["container", "index"];
/// The `analyze-shard` flags naming a store source.
const STORE_FLAGS: [&str; 2] = ["store-root", "trace"];

/// Stderr bytes kept per worker; the rest is drained (so the child
/// cannot deadlock on a full pipe) but dropped, and the failure detail
/// notes how much was truncated.
const STDERR_KEEP: usize = 64 * 1024;

/// Recover a possibly-poisoned fan-out mutex. Poisoning here means a
/// worker thread panicked; the coordinator's critical sections only do
/// plain pushes/stores, so the data is still consistent and the run
/// must keep going rather than cascade the panic.
fn lock_live<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fan-out run parameters.
#[derive(Debug, Clone)]
pub struct FanoutConfig {
    /// Worker slots (and the target number of frame ranges).
    pub workers: usize,
    /// Attempts per range before the run fails.
    pub max_attempts: u32,
    /// Wall-clock budget per range request.
    pub timeout: Duration,
    /// Locality-vs-interval sizes to accumulate.
    pub locality_sizes: Vec<u64>,
}

impl Default for FanoutConfig {
    fn default() -> Self {
        FanoutConfig {
            workers: 4,
            max_attempts: 3,
            timeout: Duration::from_secs(120),
            locality_sizes: Vec::new(),
        }
    }
}

/// Where worker ranges execute.
#[derive(Debug, Clone)]
pub enum FanoutBackend {
    /// Coordinator threads calling [`analyze_frames`] directly.
    InProcess,
    /// Persistent `<exe> analyze-shard` subprocesses exchanging
    /// partials over pipes (a transient [`FanoutPool`]).
    Subprocess {
        /// The `memgaze` binary to spawn (usually
        /// `std::env::current_exe()`).
        exe: PathBuf,
    },
}

/// One failed worker attempt (the run may still succeed via retry).
#[derive(Debug, Clone)]
pub struct WorkerFailure {
    /// The frame range the attempt was assigned.
    pub range: (usize, usize),
    /// 1-based attempt number.
    pub attempt: u32,
    /// What went wrong.
    pub detail: String,
}

/// A fan-out run's result: the merged report plus scheduling facts.
#[derive(Debug)]
pub struct FanoutRunReport {
    /// The merged analysis, bit-identical to the resident analyzer.
    pub report: StreamingReport,
    /// Trace metadata with trailer-patched totals.
    pub meta: TraceMeta,
    /// The frame ranges that were dispatched.
    pub ranges: Vec<Range<usize>>,
    /// Worker attempts beyond the first, summed over ranges.
    pub retries: u32,
    /// Every failed attempt, in completion order.
    pub failures: Vec<WorkerFailure>,
    /// Subprocesses spawned *during this run* (0 for the in-process
    /// backend, and 0 for a pooled run fully served by warm workers).
    pub spawns: u32,
}

/// Fan-out failures.
#[derive(Debug)]
pub enum FanoutError {
    /// Container or index rejected by the model layer.
    Model(ModelError),
    /// A partial report failed to decode or merge.
    Partial(PartialError),
    /// A store-backed run failed to read the store.
    Store(StoreError),
    /// Scratch-file or pipe I/O failed.
    Io(std::io::Error),
    /// A frame range failed every attempt.
    RangeFailed {
        /// Range start (frame index).
        lo: usize,
        /// Range end (exclusive).
        hi: usize,
        /// Attempts made.
        attempts: u32,
        /// The last attempt's failure.
        last: String,
    },
    /// A worker spoke the protocol wrong (bad framing, bad arguments).
    Protocol {
        /// What was malformed.
        detail: String,
    },
}

impl std::fmt::Display for FanoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FanoutError::Model(e) => write!(f, "fan-out model error: {e}"),
            FanoutError::Partial(e) => write!(f, "fan-out partial-report error: {e}"),
            FanoutError::Store(e) => write!(f, "fan-out store error: {e}"),
            FanoutError::Io(e) => write!(f, "fan-out i/o error: {e}"),
            FanoutError::RangeFailed {
                lo,
                hi,
                attempts,
                last,
            } => write!(
                f,
                "frame range {lo}..{hi} failed all {attempts} attempts; last error: {last}"
            ),
            FanoutError::Protocol { detail } => write!(f, "fan-out protocol error: {detail}"),
        }
    }
}

impl std::error::Error for FanoutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FanoutError::Model(e) => Some(e),
            FanoutError::Partial(e) => Some(e),
            FanoutError::Store(e) => Some(e),
            FanoutError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for FanoutError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => FanoutError::Io(e),
            other => FanoutError::Protocol {
                detail: other.to_string(),
            },
        }
    }
}

impl From<StoreError> for FanoutError {
    fn from(e: StoreError) -> Self {
        FanoutError::Store(e)
    }
}

impl From<ModelError> for FanoutError {
    fn from(e: ModelError) -> Self {
        FanoutError::Model(e)
    }
}

impl From<PartialError> for FanoutError {
    fn from(e: PartialError) -> Self {
        FanoutError::Partial(e)
    }
}

impl From<std::io::Error> for FanoutError {
    fn from(e: std::io::Error) -> Self {
        FanoutError::Io(e)
    }
}

/// The frames a fan-out analyzes, as the coordinator, the pool and the
/// worker all see them.
pub enum FrameSource<'a> {
    /// An indexed sharded container and its [`FrameIndex`] sidecar.
    Container {
        /// The container bytes.
        container: Cow<'a, [u8]>,
        /// The index describing them.
        index: Cow<'a, FrameIndex>,
    },
    /// A trace in a [`TraceStore`]: each range fetches only the blobs
    /// it references.
    Store {
        /// The open store.
        store: TraceStore,
        /// The trace's catalog, loaded once.
        catalog: Catalog,
    },
}

impl<'a> FrameSource<'a> {
    /// A container source borrowing its bytes and index.
    pub fn container(container: &'a [u8], index: &'a FrameIndex) -> FrameSource<'a> {
        FrameSource::Container {
            container: Cow::Borrowed(container),
            index: Cow::Borrowed(index),
        }
    }

    /// The stored trace `trace_id` under `root`, catalog loaded.
    fn store(root: &Path, trace_id: &str) -> Result<FrameSource<'static>, FanoutError> {
        let store = TraceStore::open(StoreConfig::new(root))?;
        let catalog = store.catalog(trace_id)?;
        Ok(FrameSource::Store { store, catalog })
    }

    /// Reopen the source an `analyze-shard` worker was spawned with from
    /// its flags: exactly one complete source, `--container`/`--index`
    /// or `--store-root`/`--trace`. Both sources, or half of one, is a
    /// [`FanoutError::Protocol`] naming the flag — the only `Protocol`
    /// error this returns.
    pub fn from_flags<'f>(
        flag: impl Fn(&str) -> Option<&'f str>,
    ) -> Result<FrameSource<'static>, FanoutError> {
        let usage = |detail: String| FanoutError::Protocol { detail };
        let named = |[a, b]: [&str; 2]| match (flag(a), flag(b)) {
            (Some(x), Some(y)) => Ok(Some((x, y))),
            (None, None) => Ok(None),
            (Some(_), None) => Err(usage(format!("--{a} needs --{b}"))),
            (None, Some(_)) => Err(usage(format!("--{b} needs --{a}"))),
        };
        match (named(CONTAINER_FLAGS)?, named(STORE_FLAGS)?) {
            (Some((container, index)), None) => Ok(FrameSource::Container {
                container: Cow::Owned(std::fs::read(container)?),
                index: Cow::Owned(FrameIndex::decode(&std::fs::read(index)?)?),
            }),
            (None, Some((root, trace))) => FrameSource::store(Path::new(root), trace),
            (Some(_), Some(_)) => Err(usage(
                "--container and --store-root name two sources; give one".to_string(),
            )),
            (None, None) => Err(usage(
                "no source: give --container and --index, or --store-root and --trace".to_string(),
            )),
        }
    }

    /// The `analyze-shard` flags [`from_flags`](Self::from_flags)
    /// reopens this source from; a container source is written into
    /// `dir` for them.
    fn worker_flags(&self, dir: &Path) -> std::io::Result<Vec<OsString>> {
        let (names, values): (_, [OsString; 2]) = match self {
            FrameSource::Container { container, index } => {
                let [c, i] = CONTAINER_FLAGS.map(|name| dir.join(format!("{name}.bin")));
                std::fs::write(&c, container)?;
                std::fs::write(&i, index.encode())?;
                (CONTAINER_FLAGS, [c.into(), i.into()])
            }
            FrameSource::Store { store, catalog } => (
                STORE_FLAGS,
                [store.root().into(), catalog.trace_id.clone().into()],
            ),
        };
        Ok(names
            .into_iter()
            .zip(values)
            .flat_map(|(name, value)| [format!("--{name}").into(), value])
            .collect())
    }

    /// This source with its borrowed parts copied.
    fn into_owned(self) -> FrameSource<'static> {
        match self {
            FrameSource::Container { container, index } => FrameSource::Container {
                container: Cow::Owned(container.into_owned()),
                index: Cow::Owned(index.into_owned()),
            },
            FrameSource::Store { store, catalog } => FrameSource::Store { store, catalog },
        }
    }

    /// Reject stale input before anything is dispatched or served: a
    /// container must be the one its index describes. (A catalog decode
    /// is already FNV-checksummed, and every blob read self-verifies
    /// against its content hash.)
    fn validate(&self) -> Result<(), FanoutError> {
        match self {
            FrameSource::Container { container, index } => Ok(index.validate(container)?),
            FrameSource::Store { .. } => Ok(()),
        }
    }

    /// Trace metadata with trailer-final totals.
    fn meta(&self) -> Result<TraceMeta, FanoutError> {
        match self {
            FrameSource::Container { container, index } => {
                let mut meta = ShardReader::new(container.as_ref())?.meta().clone();
                meta.total_loads = index.total_loads;
                meta.total_instrumented_loads = index.total_instrumented_loads;
                Ok(meta)
            }
            FrameSource::Store { catalog, .. } => Ok(catalog.meta()?),
        }
    }

    /// Samples per frame: the weights the partition balances.
    fn sample_weights(&self) -> Vec<u64> {
        match self {
            FrameSource::Container { index, .. } => {
                index.entries.iter().map(|e| e.samples).collect()
            }
            FrameSource::Store { catalog, .. } => catalog.sample_weights(),
        }
    }

    fn frame_count(&self) -> usize {
        match self {
            FrameSource::Container { index, .. } => index.entries.len(),
            FrameSource::Store { catalog, .. } => catalog.frames.len(),
        }
    }

    /// Analyze `frames`. A range that is reversed or runs past the last
    /// frame is a [`FanoutError::Protocol`], raised before any analysis.
    fn analyze(
        &self,
        frames: Range<usize>,
        annots: &AuxAnnotations,
        symbols: &SymbolTable,
        cfg: AnalysisConfig,
        locality_sizes: &[u64],
    ) -> Result<PartialReport, FanoutError> {
        let count = self.frame_count();
        if frames.start > frames.end || frames.end > count {
            return Err(FanoutError::Protocol {
                detail: format!(
                    "frame range {}..{} out of bounds for {count} frames",
                    frames.start, frames.end
                ),
            });
        }
        match self {
            FrameSource::Container { container, index } => Ok(analyze_frames(
                container,
                index,
                frames,
                annots,
                symbols,
                cfg,
                locality_sizes,
            )?),
            FrameSource::Store { store, catalog } => Ok(store
                .analyze_frames(catalog, frames, annots, symbols, cfg, locality_sizes)?
                .0),
        }
    }
}

/// Monotonic scratch-directory discriminator within this process.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A pool's scratch directory — the worker spec, a container source's
/// files, the workers' obs event files — removed on drop, success or
/// failure.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let dir = std::env::temp_dir().join(format!(
            "memgaze-fanout-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A live persistent worker: the child process, its request pipe, and
/// the reader/stderr drain threads.
struct WorkerHandle {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Framed response payloads (or reader-side protocol errors) from
    /// the worker's stdout, one per range request.
    responses: Receiver<Result<Vec<u8>, String>>,
    reader: Option<std::thread::JoinHandle<()>>,
    stderr: Option<std::thread::JoinHandle<(Vec<u8>, usize)>>,
    obs_path: Option<PathBuf>,
}

/// A pool of persistent `analyze-shard` workers over one
/// [`FrameSource`]. Workers are spawned lazily (or via
/// [`prewarm`](Self::prewarm)), checked out by coordinator slot threads
/// for the duration of a run, and kept warm between
/// [`run`](Self::run) calls — so repeated fan-out analyses of the same
/// source pay the process spawn and source load once, not per range or
/// per run. Dropping the pool closes every worker's stdin (the
/// graceful-shutdown signal) and reaps the processes.
pub struct FanoutPool {
    exe: PathBuf,
    /// `analyze-shard` and its flags: the spec, then the source's own.
    args: Vec<OsString>,
    source: FrameSource<'static>,
    analysis: AnalysisConfig,
    cfg: FanoutConfig,
    scratch: Scratch,
    idle: Mutex<Vec<WorkerHandle>>,
    spawns: AtomicU64,
    worker_seq: AtomicU64,
}

impl FanoutPool {
    /// Build a pool over `source`. Writes the worker spec (and a
    /// container source's files) into a scratch directory every worker
    /// reads; no worker is spawned yet (see [`prewarm`](Self::prewarm)).
    pub fn new(
        exe: &Path,
        source: FrameSource<'_>,
        annots: &AuxAnnotations,
        symbols: &SymbolTable,
        analysis: AnalysisConfig,
        cfg: FanoutConfig,
    ) -> Result<FanoutPool, FanoutError> {
        source.validate()?;
        let scratch = Scratch::create()?;
        let spec = WorkerSpec {
            footprint_block: analysis.footprint_block,
            reuse_block: analysis.reuse_block,
            locality_sizes: cfg.locality_sizes.clone(),
            annots: annots.clone(),
            symbols: symbols.clone(),
        };
        let spec_path = scratch.dir.join("spec.bin");
        std::fs::write(&spec_path, spec.encode())?;
        let mut args = vec!["analyze-shard".into(), "--spec".into(), spec_path.into()];
        args.extend(source.worker_flags(&scratch.dir)?);
        Ok(FanoutPool {
            exe: exe.to_path_buf(),
            args,
            source: source.into_owned(),
            analysis,
            cfg,
            scratch,
            idle: Mutex::new(Vec::new()),
            spawns: AtomicU64::new(0),
            worker_seq: AtomicU64::new(0),
        })
    }

    /// Spawn workers until `workers` slots are warm, so a following
    /// [`run`](Self::run) pays no spawn inside its measured window.
    pub fn prewarm(&self) -> Result<(), FanoutError> {
        let want = self.cfg.workers.max(1);
        loop {
            {
                let idle = lock_live(&self.idle);
                if idle.len() >= want {
                    return Ok(());
                }
            }
            let w = self
                .spawn_worker()
                .map_err(|detail| FanoutError::Protocol { detail })?;
            lock_live(&self.idle).push(w);
        }
    }

    /// Subprocesses spawned over the pool's lifetime (prewarm included).
    pub fn spawn_count(&self) -> u64 {
        self.spawns.load(Ordering::Relaxed)
    }

    /// Run one fan-out analysis on the pool's source, reusing warm
    /// workers. The merged report is bit-identical to the resident
    /// analyzer; see [`run_fanout`].
    pub fn run(&self) -> Result<FanoutRunReport, FanoutError> {
        let spawns_before = self.spawn_count();
        let mut run = coordinate(
            &self.source,
            self.analysis,
            &self.cfg,
            Some(self),
            |slot, range| self.run_range(slot, range),
        )?;
        run.spawns = saturate_u32(self.spawn_count() - spawns_before);
        Ok(run)
    }

    /// Check a warm worker out of the pool, spawning if none is idle.
    fn checkout(&self) -> Result<WorkerHandle, String> {
        if let Some(w) = lock_live(&self.idle).pop() {
            return Ok(w);
        }
        self.spawn_worker()
    }

    /// Return a healthy worker for reuse by later ranges and runs.
    fn checkin(&self, worker: WorkerHandle) {
        lock_live(&self.idle).push(worker);
    }

    /// Run one range on the slot's worker (checking one out on first
    /// use). Any failure retires the worker — the retry will respawn —
    /// and comes back as a string detail enriched with the worker's
    /// exit status and stderr tail.
    fn run_range(
        &self,
        slot: &mut Option<WorkerHandle>,
        range: &Range<usize>,
    ) -> Result<PartialReport, String> {
        let mut worker = match slot.take() {
            Some(w) => w,
            None => self.checkout()?,
        };
        match request_range(&mut worker, range, self.cfg.timeout) {
            Ok(payload) => match PartialReport::decode(&payload) {
                Ok(partial) => {
                    *slot = Some(worker);
                    Ok(partial)
                }
                Err(e) => Err(self.retire_dead(worker, &e.to_string())),
            },
            Err(detail) => Err(self.retire_dead(worker, &detail)),
        }
    }

    fn spawn_worker(&self) -> Result<WorkerHandle, String> {
        let mut spawn_span = memgaze_obs::span("fanout.spawn_worker");
        let seq = self.worker_seq.fetch_add(1, Ordering::Relaxed);
        if spawn_span.is_active() {
            spawn_span.set_label(format!("worker #{seq}"));
        }
        let obs_path = memgaze_obs::enabled()
            .then(|| self.scratch.dir.join(format!("obs-worker-{seq}.jsonl")));
        let mut cmd = Command::new(&self.exe);
        cmd.args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(p) = &obs_path {
            // The worker must write JSONL to the scratch file: stdout is
            // the MGZW response channel, so a summary sink there would
            // corrupt it.
            cmd.envs(memgaze_obs::worker_env(spawn_span.ctx(), p));
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.exe.display()))?;
        let stdin = child.stdin.take();
        let stdout_pipe = child.stdout.take();
        let stderr_pipe = child.stderr.take();
        let (Some(stdin), Some(mut stdout_pipe), Some(mut stderr_pipe)) =
            (stdin, stdout_pipe, stderr_pipe)
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("worker pipes were not available".to_string());
        };
        let (tx, rx): (Sender<Result<Vec<u8>, String>>, _) = std::sync::mpsc::channel();
        // The reader thread owns the stdout pipe and frames responses;
        // on clean EOF it just drops the sender, which the coordinator
        // observes as a disconnect (worker death between responses).
        let reader = std::thread::spawn(move || loop {
            match read_response_frame(&mut stdout_pipe) {
                Ok(Some(payload)) => {
                    if tx.send(Ok(payload)).is_err() {
                        return;
                    }
                }
                Ok(None) => return,
                Err(detail) => {
                    let _ = tx.send(Err(detail));
                    return;
                }
            }
        });
        // Stderr is drained fully (never let the child block on a full
        // pipe) but only the first `STDERR_KEEP` bytes are retained.
        let stderr = std::thread::spawn(move || {
            let mut kept = Vec::new();
            let mut total = 0usize;
            let mut chunk = [0u8; 8192];
            loop {
                match stderr_pipe.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        total += n;
                        let room = STDERR_KEEP.saturating_sub(kept.len());
                        kept.extend(chunk.iter().take(n.min(room)));
                    }
                }
            }
            (kept, total)
        });
        self.spawns.fetch_add(1, Ordering::Relaxed);
        memgaze_obs::counter!("fanout.spawns").add(1);
        Ok(WorkerHandle {
            child,
            stdin: Some(stdin),
            responses: rx,
            reader: Some(reader),
            stderr: Some(stderr),
            obs_path,
        })
    }

    /// Kill and reap a failed worker, returning the failure detail
    /// enriched with its exit status and bounded stderr tail. The
    /// worker's obs JSONL (if any) is absorbed first — a death
    /// mid-write leaves a truncated final line, which absorption skips.
    fn retire_dead(&self, mut worker: WorkerHandle, base: &str) -> String {
        let _ = worker.child.kill();
        drop(worker.stdin.take());
        let status = worker.child.wait();
        if let Some(t) = worker.reader.take() {
            let _ = t.join();
        }
        let (kept, total) = worker
            .stderr
            .take()
            .and_then(|t| t.join().ok())
            .unwrap_or_default();
        absorb_worker_obs(worker.obs_path.as_deref());
        let mut detail = match status {
            Ok(s) => format!("{base}; worker exited with {s}"),
            Err(e) => format!("{base}; wait on worker: {e}"),
        };
        let tail = String::from_utf8_lossy(&kept).trim().to_string();
        if !tail.is_empty() {
            detail.push_str(": ");
            detail.push_str(&tail);
        }
        if total > kept.len() {
            detail.push_str(&format!(
                " … ({} of {} stderr bytes truncated)",
                total - kept.len(),
                total
            ));
        }
        detail
    }

    /// Shut a healthy worker down: closing stdin is the exit signal; a
    /// worker that ignores it past the grace period is killed.
    fn retire_graceful(&self, mut worker: WorkerHandle) {
        drop(worker.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match worker.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = worker.child.kill();
                    let _ = worker.child.wait();
                    break;
                }
            }
        }
        if let Some(t) = worker.reader.take() {
            let _ = t.join();
        }
        if let Some(t) = worker.stderr.take() {
            let _ = t.join();
        }
        absorb_worker_obs(worker.obs_path.as_deref());
    }
}

impl Drop for FanoutPool {
    fn drop(&mut self) {
        let workers = std::mem::take(&mut *lock_live(&self.idle));
        for w in workers {
            self.retire_graceful(w);
        }
    }
}

/// Absorb a retired worker's JSONL events into this process's sinks. A
/// missing file (worker died before its first event) is simply empty;
/// torn lines are skipped and counted by the absorber.
fn absorb_worker_obs(path: Option<&Path>) {
    if let Some(p) = path {
        if let Ok(text) = std::fs::read_to_string(p) {
            memgaze_obs::absorb_jsonl(&text);
        }
    }
}

/// Send one range request to a worker and wait for its framed response
/// payload, bounded by `timeout`.
fn request_range(
    worker: &mut WorkerHandle,
    range: &Range<usize>,
    timeout: Duration,
) -> Result<Vec<u8>, String> {
    let stdin = worker
        .stdin
        .as_mut()
        .ok_or_else(|| "worker stdin already closed".to_string())?;
    let mut req = [0u8; 24];
    encode_request(&mut req, range);
    stdin
        .write_all(&req)
        .and_then(|()| stdin.flush())
        .map_err(|e| format!("write range request: {e}"))?;
    match worker.responses.recv_timeout(timeout) {
        Ok(Ok(payload)) => Ok(payload),
        Ok(Err(detail)) => Err(detail),
        Err(RecvTimeoutError::Timeout) => {
            memgaze_obs::mark(
                "fanout.kill",
                &[
                    ("range", format!("{}..{}", range.start, range.end)),
                    ("timeout", format!("{timeout:?}")),
                ],
            );
            Err(format!(
                "worker for frames {}..{} exceeded {timeout:?} timeout and was killed",
                range.start, range.end
            ))
        }
        Err(RecvTimeoutError::Disconnected) => Err(format!(
            "worker for frames {}..{} died before responding",
            range.start, range.end
        )),
    }
}

/// Encode a range request in place: magic, payload length, lo, hi.
pub fn encode_request(buf: &mut [u8; 24], range: &Range<usize>) {
    buf[..4].copy_from_slice(REQUEST_MAGIC);
    buf[4..8].copy_from_slice(&REQUEST_PAYLOAD_LEN.to_le_bytes());
    buf[8..16].copy_from_slice(&(range.start as u64).to_le_bytes());
    buf[16..24].copy_from_slice(&(range.end as u64).to_le_bytes());
}

/// Parse one framed worker response: `MGZW` + `u64` LE payload length +
/// the encoded [`PartialReport`] payload. `Ok(None)` is a clean EOF at
/// a frame boundary (worker shut down); every malformation — bad magic,
/// truncated header, a framed length that disagrees with the bytes that
/// follow — is a string detail routed through the retry path.
pub fn read_response_frame(src: &mut impl Read) -> Result<Option<Vec<u8>>, String> {
    let wire = |e: WireError| format!("read worker response: {e}");
    if !wire::read_magic(src, WORKER_MAGIC, "worker").map_err(wire)? {
        return Ok(None);
    }
    let len = u64::from_le_bytes(wire::read_array(src, "worker framing").map_err(wire)?);
    if len > MAX_RESPONSE_BYTES {
        return Err(format!("worker framed an implausible {len}-byte payload"));
    }
    // The framed length is untrusted until the bytes actually arrive,
    // so the payload is read chunk by chunk.
    let mut payload = Vec::new();
    match wire::read_bounded(src, len, &mut payload, "worker payload") {
        Ok(()) => Ok(Some(payload)),
        Err(WireError::Truncated { .. }) => Err(format!(
            "worker payload length {} != framed {len}",
            payload.len()
        )),
        Err(e) => Err(wire(e)),
    }
}

/// Saturating `u64 → u32` narrowing for report counters. A plain
/// `as u32` wraps — `(1 << 32) + 5` would report as 5 retries — so
/// counters beyond `u32::MAX` pin at the ceiling instead of lying low.
fn saturate_u32(n: u64) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Analyze an indexed container by fanning its frame ranges out across
/// workers. The partials are merged **in shard order**, so the returned
/// report is bit-identical to the resident [`StreamingAnalyzer`]
/// (`memgaze_analysis::StreamingAnalyzer`) — and hence to the resident
/// `Analyzer` — for every worker count and shard size.
///
/// The subprocess backend builds a transient [`FanoutPool`] for the
/// run; callers analyzing the same container repeatedly should hold a
/// pool themselves and call [`FanoutPool::run`] to keep workers warm.
pub fn run_fanout(
    container: &[u8],
    index: &FrameIndex,
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    analysis: AnalysisConfig,
    cfg: &FanoutConfig,
    backend: &FanoutBackend,
) -> Result<FanoutRunReport, FanoutError> {
    let source = FrameSource::container(container, index);
    run_source(source, annots, symbols, analysis, cfg, backend)
}

/// [`run_fanout`] over the trace `trace_id` in a [`TraceStore`]: the
/// same partition, merge order and report, with every range analyzed
/// from the catalog and the blobs it references.
pub fn run_fanout_store(
    store: &TraceStore,
    trace_id: &str,
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    analysis: AnalysisConfig,
    cfg: &FanoutConfig,
    backend: &FanoutBackend,
) -> Result<FanoutRunReport, FanoutError> {
    let source = FrameSource::store(store.root(), trace_id)?;
    run_source(source, annots, symbols, analysis, cfg, backend)
}

fn run_source(
    source: FrameSource<'_>,
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    analysis: AnalysisConfig,
    cfg: &FanoutConfig,
    backend: &FanoutBackend,
) -> Result<FanoutRunReport, FanoutError> {
    match backend {
        FanoutBackend::InProcess => coordinate(&source, analysis, cfg, None, |_, range| {
            source
                .analyze(
                    range.clone(),
                    annots,
                    symbols,
                    analysis,
                    &cfg.locality_sizes,
                )
                .map_err(|e| e.to_string())
        }),
        FanoutBackend::Subprocess { exe } => {
            FanoutPool::new(exe, source, annots, symbols, analysis, cfg.clone())?.run()
        }
    }
}

/// The coordinator loop both backends share: partition `source`, drain
/// the ranges on up to `cfg.workers` slots, retry each failed attempt,
/// and fold the partials in range order with
/// [`PartialReport::merge_many`]. `attempt` runs one range on the
/// slot's worker, which it may check out into the slot and leave there
/// for the slot's next range; `pool` takes the slots' workers back at
/// the end. A panic inside `attempt` is caught and retried like a
/// crashed subprocess — `std::thread::scope` would otherwise re-raise it
/// at join and take the whole coordinator down.
fn coordinate(
    source: &FrameSource<'_>,
    analysis: AnalysisConfig,
    cfg: &FanoutConfig,
    pool: Option<&FanoutPool>,
    attempt: impl Fn(&mut Option<WorkerHandle>, &Range<usize>) -> Result<PartialReport, String> + Sync,
) -> Result<FanoutRunReport, FanoutError> {
    // Reject a stale index before dispatching anything: every downstream
    // read depends on it describing exactly these bytes.
    source.validate()?;
    let meta = source.meta()?;
    let ranges = partition_by_samples(&source.sample_weights(), cfg.workers);

    let queue: Mutex<Vec<(usize, Range<usize>)>> =
        Mutex::new(ranges.iter().cloned().enumerate().collect());
    let results: Mutex<Vec<Option<PartialReport>>> = Mutex::new(vec![None; ranges.len()]);
    let failures: Mutex<Vec<WorkerFailure>> = Mutex::new(Vec::new());
    let retries = AtomicU64::new(0);
    let fatal: Mutex<Option<FanoutError>> = Mutex::new(None);
    let slots = cfg.workers.clamp(1, ranges.len().max(1));

    let mut run_span = memgaze_obs::span("fanout.run");
    if run_span.is_active() {
        run_span.set_label(format!(
            "{} frames, {} ranges, {} slots",
            source.frame_count(),
            ranges.len(),
            slots
        ));
    }
    let run_ctx = run_span.ctx();

    // Each slot drains ranges off the shared queue.
    let slot_loop = || {
        // The slot's persistent worker, checked out on first use
        // and reused for every range this slot serves.
        let mut worker: Option<WorkerHandle> = None;
        loop {
            if lock_live(&fatal).is_some() {
                break;
            }
            let Some((idx, range)) = lock_live(&queue).pop() else {
                break;
            };
            let mut range_span = memgaze_obs::span_under("fanout.range", run_ctx);
            if range_span.is_active() {
                range_span.set_label(format!("frames {}..{}", range.start, range.end));
            }
            let mut tries = 0u32;
            let outcome = loop {
                tries += 1;
                memgaze_obs::counter!("fanout.attempts").add(1);
                let run = {
                    let _attempt_span = memgaze_obs::span("fanout.attempt");
                    catch_unwind(AssertUnwindSafe(|| attempt(&mut worker, &range))).unwrap_or_else(
                        |payload| {
                            Err(format!(
                                "worker for frames {}..{} panicked: {}",
                                range.start,
                                range.end,
                                panic_message(payload.as_ref())
                            ))
                        },
                    )
                };
                match run {
                    Ok(p) => break Ok(p),
                    Err(detail) => {
                        lock_live(&failures).push(WorkerFailure {
                            range: (range.start, range.end),
                            attempt: tries,
                            detail: detail.clone(),
                        });
                        if tries >= cfg.max_attempts.max(1) {
                            break Err(detail);
                        }
                        memgaze_obs::mark(
                            "fanout.retry",
                            &[
                                ("range", format!("{}..{}", range.start, range.end)),
                                ("attempt", tries.to_string()),
                                ("detail", truncate_detail(&detail)),
                            ],
                        );
                        retries.fetch_add(1, Ordering::Relaxed);
                    }
                }
            };
            match outcome {
                Ok(p) => {
                    if let Some(slot) = lock_live(&results).get_mut(idx) {
                        *slot = Some(p);
                    }
                }
                Err(last) => {
                    let mut f = lock_live(&fatal);
                    if f.is_none() {
                        *f = Some(FanoutError::RangeFailed {
                            lo: range.start,
                            hi: range.end,
                            attempts: tries,
                            last,
                        });
                    }
                    break;
                }
            }
        }
        // Keep the worker warm for the next run.
        if let (Some(p), Some(w)) = (pool, worker.take()) {
            p.checkin(w);
        }
    };
    if slots == 1 {
        // Single slot: run inline — a scoped thread would only add a
        // spawn/join and an extra wakeup hop to every run.
        slot_loop();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..slots {
                scope.spawn(slot_loop);
            }
        });
    }

    if let Some(err) = fatal.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(err);
    }
    let parts = results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.ok_or_else(|| FanoutError::Protocol {
                detail: format!("range {i} produced no partial report"),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let merged = PartialReport::merge_many(
        parts,
        analysis.footprint_block,
        analysis.reuse_block,
        &cfg.locality_sizes,
    )?;
    Ok(FanoutRunReport {
        report: merged.finish(&meta),
        meta,
        ranges,
        retries: saturate_u32(retries.into_inner()),
        failures: failures.into_inner().unwrap_or_else(|e| e.into_inner()),
        spawns: 0,
    })
}

/// Clamp a failure detail for span marks: event payloads stay bounded
/// even when a worker dumps a long stderr tail into the detail string.
fn truncate_detail(detail: &str) -> String {
    const MAX: usize = 200;
    if detail.len() <= MAX {
        return detail.to_string();
    }
    let mut cut = MAX;
    while !detail.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}… ({} bytes)", &detail[..cut], detail.len())
}

/// Extract a panic payload's message, if it carries one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Frame an encoded partial into `buf` (cleared first): magic, length,
/// payload — assembled in one reusable buffer so each response is a
/// single `write_all`, with no per-range allocation once the buffer
/// has grown to the working size.
pub fn frame_partial_into(partial: &PartialReport, buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(WORKER_MAGIC);
    buf.extend_from_slice(&[0u8; 8]);
    partial.encode_into(buf);
    let len = (buf.len() - 12) as u64;
    if let Some(field) = buf.get_mut(4..12) {
        field.copy_from_slice(&len.to_le_bytes());
    }
}

/// Parse one coordinator request off the worker's stdin: `MGZQ` + `u32`
/// LE payload length (16) + lo/hi as `u64` LE. `Ok(None)` is a clean
/// EOF at a frame boundary — the coordinator closed our stdin, which is
/// the shutdown signal.
pub fn read_request(input: &mut impl Read) -> Result<Option<Range<usize>>, FanoutError> {
    if !wire::read_magic(input, REQUEST_MAGIC, "request")? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(wire::read_array(input, "request length")?);
    if len != REQUEST_PAYLOAD_LEN {
        return Err(FanoutError::Protocol {
            detail: format!("request payload length {len} != {REQUEST_PAYLOAD_LEN}"),
        });
    }
    let body = wire::read_array::<16>(input, "request range")?;
    let mut r = Reader::new(&body);
    let lo = wire::to_usize(r.u64_le("request lo")?, "request lo")?;
    let hi = wire::to_usize(r.u64_le("request hi")?, "request hi")?;
    Ok(Some(lo..hi))
}

/// The `analyze-shard` worker body: load the [`WorkerSpec`] at `spec`
/// and validate `source` **once**, then answer framed range requests
/// from `input` until it reaches EOF at a frame boundary. A range
/// outside the source is a [`FanoutError::Protocol`], raised before any
/// analysis. Each response is framed into one pooled buffer and issued
/// as a single write.
pub fn worker_serve(
    spec: &Path,
    source: &FrameSource<'_>,
    input: &mut impl Read,
    out: &mut impl Write,
) -> Result<(), FanoutError> {
    let spec = WorkerSpec::decode(&std::fs::read(spec)?)?;
    source.validate()?;
    let mut frame = Vec::new();
    while let Some(frames) = read_request(input)? {
        let partial = source.analyze(
            frames,
            &spec.annots,
            &spec.symbols,
            spec.analysis_config(),
            &spec.locality_sizes,
        )?;
        frame_partial_into(&partial, &mut frame);
        out.write_all(&frame)?;
        out.flush()?;
        memgaze_obs::flush();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{encode_sharded_indexed, Access, Sample, SampledTrace};
    use std::io::Cursor;

    fn mk_indexed_trace() -> (SampledTrace, Vec<u8>, FrameIndex) {
        let mut t = SampledTrace::new(TraceMeta::new("fanout-core", 1000, 8192));
        for s in 0..10u64 {
            let n = 30 + (s * 7) % 40;
            let acc: Vec<Access> = (0..n)
                .map(|i| {
                    Access::new(
                        0x400 + (i % 4) * 4,
                        ((s * 31 + i * 3) % 512) * 64,
                        s * 1000 + i,
                    )
                })
                .collect();
            t.push_sample(Sample::new(acc, s * 1000 + n)).unwrap();
        }
        t.meta.total_loads = 10_000;
        let (container, index) = encode_sharded_indexed(&t, 2);
        (t, container, index)
    }

    /// A fresh store under the temp dir holding `container` as "fan".
    fn temp_store(tag: &str, container: &[u8], index: &FrameIndex) -> (PathBuf, TraceStore) {
        let root = std::env::temp_dir().join(format!(
            "memgaze-fanout-{tag}-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        store
            .put("fan", container, index, &SymbolTable::new())
            .unwrap();
        (root, store)
    }

    /// The in-process coordinator over `source`, with an attempt that
    /// panics on its first call however many slots race for it.
    fn run_panicking_once(
        source: &FrameSource<'_>,
        analysis: AnalysisConfig,
        cfg: &FanoutConfig,
    ) -> FanoutRunReport {
        let (annots, symbols) = (AuxAnnotations::new(), SymbolTable::new());
        let armed = std::sync::atomic::AtomicBool::new(true);
        coordinate(source, analysis, cfg, None, |_, range| {
            if armed.swap(false, Ordering::Relaxed) {
                panic!("injected worker panic");
            }
            source
                .analyze(
                    range.clone(),
                    &annots,
                    &symbols,
                    analysis,
                    &cfg.locality_sizes,
                )
                .map_err(|e| e.to_string())
        })
        .unwrap()
    }

    /// A reader that serves a fixed prefix then EOF, recording the
    /// largest single `read` request it ever sees — the observable that
    /// separates chunked reading from allocate-up-front.
    struct HostileStream {
        data: Vec<u8>,
        pos: usize,
        max_request: usize,
    }

    impl Read for HostileStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.max_request = self.max_request.max(buf.len());
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn hostile_frame_length_is_read_in_bounded_chunks() {
        // A hostile header frames an 8 GiB payload (under the protocol
        // cap) against a stream that carries 16 bytes. The reader must
        // fail with a truncation error without ever requesting — or
        // allocating — more than one chunk at a time.
        let framed_len: u64 = 8 << 30;
        let mut data = Vec::new();
        data.extend_from_slice(WORKER_MAGIC);
        data.extend_from_slice(&framed_len.to_le_bytes());
        data.extend_from_slice(&[0xAB; 16]);
        let mut src = HostileStream {
            data,
            pos: 0,
            max_request: 0,
        };
        let err = read_response_frame(&mut src).expect_err("truncated payload must error");
        assert!(err.contains("framed"), "unexpected detail: {err}");
        assert!(
            src.max_request <= wire::READ_CHUNK,
            "reader requested {} bytes at once for an untrusted length",
            src.max_request
        );
    }

    #[test]
    fn honest_frames_roundtrip_through_chunked_reader() {
        // Payloads both below and above one chunk decode intact.
        for len in [0usize, 5, wire::READ_CHUNK + 123] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut data = Vec::new();
            data.extend_from_slice(WORKER_MAGIC);
            data.extend_from_slice(&(len as u64).to_le_bytes());
            data.extend_from_slice(&payload);
            let mut src = HostileStream {
                data,
                pos: 0,
                max_request: 0,
            };
            let got = read_response_frame(&mut src).unwrap().unwrap();
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn counter_narrowing_saturates_instead_of_wrapping() {
        // `(1 << 32) + 5 as u32` wraps to 5 — the pre-fix lie. The
        // saturating conversion pins at the ceiling.
        assert_eq!(saturate_u32(0), 0);
        assert_eq!(saturate_u32(41), 41);
        assert_eq!(saturate_u32(u64::from(u32::MAX)), u32::MAX);
        assert_eq!(saturate_u32((1 << 32) + 5), u32::MAX);
        assert_eq!(saturate_u32(u64::MAX), u32::MAX);
    }

    #[test]
    fn in_process_fanout_matches_resident_streaming() {
        let (t, container, index) = mk_indexed_trace();
        let annots = AuxAnnotations::new();
        let symbols = SymbolTable::new();
        let analysis = AnalysisConfig::default();
        let sizes = vec![8u64, 32];
        let resident =
            memgaze_analysis::stream_resident_trace(&t, &annots, &symbols, analysis, &sizes, 2);
        for workers in [1usize, 2, 3, 8] {
            let cfg = FanoutConfig {
                workers,
                locality_sizes: sizes.clone(),
                ..FanoutConfig::default()
            };
            let run = run_fanout(
                &container,
                &index,
                &annots,
                &symbols,
                analysis,
                &cfg,
                &FanoutBackend::InProcess,
            )
            .unwrap();
            assert_eq!(run.meta, t.meta);
            assert_eq!(run.report.decompression, resident.decompression);
            assert_eq!(run.report.function_rows, resident.function_rows);
            assert_eq!(run.report.block_reuse, resident.block_reuse);
            assert_eq!(run.report.reuse_histogram, resident.reuse_histogram);
            assert_eq!(run.report.locality_series, resident.locality_series);
            assert_eq!(run.report.interval_rows(4), resident.interval_rows(4));
            assert_eq!(run.retries, 0);
            assert_eq!(run.spawns, 0, "in-process runs spawn nothing");
            assert!(run.failures.is_empty());
        }
    }

    #[test]
    fn store_backed_fanout_matches_container_backed() {
        let (t, container, index) = mk_indexed_trace();
        let annots = AuxAnnotations::new();
        let symbols = SymbolTable::new();
        let analysis = AnalysisConfig::default();
        let sizes = vec![8u64, 32];
        let root = std::env::temp_dir().join(format!(
            "memgaze-fanout-store-unit-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        store.put("fan", &container, &index, &symbols).unwrap();
        let resident =
            memgaze_analysis::stream_resident_trace(&t, &annots, &symbols, analysis, &sizes, 2);
        for workers in [1usize, 3, 8] {
            let cfg = FanoutConfig {
                workers,
                locality_sizes: sizes.clone(),
                ..FanoutConfig::default()
            };
            let container_run = run_fanout(
                &container,
                &index,
                &annots,
                &symbols,
                analysis,
                &cfg,
                &FanoutBackend::InProcess,
            )
            .unwrap();
            let store_run = run_fanout_store(
                &store,
                "fan",
                &annots,
                &symbols,
                analysis,
                &cfg,
                &FanoutBackend::InProcess,
            )
            .unwrap();
            // Identical partition and a report bit-identical to both
            // the container-backed fan-out and the resident analyzer.
            assert_eq!(store_run.ranges, container_run.ranges);
            assert_eq!(store_run.meta, t.meta);
            assert_eq!(store_run.report, container_run.report);
            assert_eq!(store_run.report, resident);
            assert_eq!(store_run.retries, 0);
        }
        // A missing trace is a typed store error, not a panic.
        let err = run_fanout_store(
            &store,
            "absent",
            &annots,
            &symbols,
            analysis,
            &FanoutConfig::default(),
            &FanoutBackend::InProcess,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            FanoutError::Store(memgaze_store::StoreError::MissingTrace { .. })
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn store_backed_fanout_recovers_from_panicking_worker() {
        let (t, container, index) = mk_indexed_trace();
        let analysis = AnalysisConfig::default();
        let (root, _store) = temp_store("store-panic", &container, &index);
        // Four slots reach the first attempt together: exactly one fires.
        let cfg = FanoutConfig {
            workers: 4,
            ..FanoutConfig::default()
        };
        let run = run_panicking_once(&FrameSource::store(&root, "fan").unwrap(), analysis, &cfg);
        // The panic costs one retry; the retried range only re-reads its
        // own blobs, and the merged report still matches the resident
        // analyzer.
        assert_eq!(run.retries, 1);
        assert_eq!(run.failures.len(), 1);
        assert!(run.failures[0].detail.contains("panicked"));
        let resident = memgaze_analysis::stream_resident_trace(
            &t,
            &AuxAnnotations::new(),
            &SymbolTable::new(),
            analysis,
            &cfg.locality_sizes,
            2,
        );
        assert_eq!(run.report, resident);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn panicking_in_process_worker_still_yields_complete_report() {
        let (t, container, index) = mk_indexed_trace();
        let analysis = AnalysisConfig::default();
        let sizes = vec![8u64, 32];
        let resident = memgaze_analysis::stream_resident_trace(
            &t,
            &AuxAnnotations::new(),
            &SymbolTable::new(),
            analysis,
            &sizes,
            2,
        );
        // An in-process worker panics on its first attempt. The
        // coordinator must catch the unwind (not die at scope join),
        // recover any mutex the panicking thread poisoned, record the
        // failure, retry, and still produce the identical report.
        let cfg = FanoutConfig {
            workers: 2,
            locality_sizes: sizes,
            ..FanoutConfig::default()
        };
        let run = run_panicking_once(&FrameSource::container(&container, &index), analysis, &cfg);
        assert!(run.retries >= 1, "the injected panic must cost a retry");
        assert!(
            run.failures.iter().any(|f| f.detail.contains("panicked")),
            "{:?}",
            run.failures
        );
        assert_eq!(run.report, resident);
    }

    #[test]
    fn worker_serve_answers_in_bounds_ranges_of_either_source() {
        let (_, container, index) = mk_indexed_trace();
        let (root, _store) = temp_store("serve", &container, &index);
        let spec = WorkerSpec {
            footprint_block: AnalysisConfig::default().footprint_block,
            reuse_block: AnalysisConfig::default().reuse_block,
            locality_sizes: vec![8, 32],
            annots: AuxAnnotations::new(),
            symbols: SymbolTable::new(),
        };
        let spec_path = root.join("spec.bin");
        std::fs::write(&spec_path, spec.encode()).unwrap();
        let requests = |ranges: &[Range<usize>]| -> Vec<u8> {
            let mut feed = Vec::new();
            for r in ranges {
                let mut req = [0u8; 24];
                encode_request(&mut req, r);
                feed.extend_from_slice(&req);
            }
            feed
        };
        let frames = index.entries.len();
        let sources = [
            FrameSource::container(&container, &index),
            FrameSource::store(&root, "fan").unwrap(),
        ];
        for source in &sources {
            // The worker serves the source reopened from the flags the
            // source names for it.
            let flags = source.worker_flags(&root).unwrap();
            let served = FrameSource::from_flags(|name| {
                let at = flags.iter().position(|f| *f == *format!("--{name}"))?;
                flags.get(at + 1)?.to_str()
            })
            .unwrap();
            let ranges = [0..2, 2..frames];
            let mut out = Vec::new();
            // EOF at a frame boundary ends the loop cleanly.
            worker_serve(
                &spec_path,
                &served,
                &mut Cursor::new(requests(&ranges)),
                &mut out,
            )
            .unwrap();
            let mut responses = Cursor::new(out.as_slice());
            for r in ranges {
                let want = source
                    .analyze(
                        r,
                        &spec.annots,
                        &spec.symbols,
                        spec.analysis_config(),
                        &spec.locality_sizes,
                    )
                    .unwrap();
                let got = read_response_frame(&mut responses).unwrap().unwrap();
                assert_eq!(PartialReport::decode(&got).unwrap(), want);
            }
            assert_eq!(read_response_frame(&mut responses).unwrap(), None);
            // Analyzed, a reversed range would answer an empty partial
            // and one past the last frame a model or store error: the
            // typed protocol error shows the bounds check ran first.
            let reversed = Range { start: 3, end: 1 };
            for bad in [reversed, 0..frames + 1] {
                let mut out = Vec::new();
                let err = worker_serve(
                    &spec_path,
                    &served,
                    &mut Cursor::new(requests(&[bad])),
                    &mut out,
                )
                .unwrap_err();
                assert!(matches!(err, FanoutError::Protocol { .. }), "{err}");
                assert!(out.is_empty());
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_index_is_rejected_before_dispatch() {
        let (_, container, _) = mk_indexed_trace();
        let mut t2 = SampledTrace::new(TraceMeta::new("other", 1000, 8192));
        let acc = vec![Access::new(0x400u64, 64, 0)];
        t2.push_sample(Sample::new(acc, 1)).unwrap();
        t2.meta.total_loads = 1000;
        let (_, stale) = encode_sharded_indexed(&t2, 1);
        let err = run_fanout(
            &container,
            &stale,
            &AuxAnnotations::new(),
            &SymbolTable::new(),
            AnalysisConfig::default(),
            &FanoutConfig::default(),
            &FanoutBackend::InProcess,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            FanoutError::Model(ModelError::StaleIndex { .. })
        ));
    }

    #[test]
    fn worker_response_framing_is_validated() {
        // Clean EOF at a frame boundary is a shutdown, not an error.
        assert!(matches!(
            read_response_frame(&mut Cursor::new(&b""[..])),
            Ok(None)
        ));
        let err = read_response_frame(&mut Cursor::new(&b"garbage, not a partial report"[..]))
            .unwrap_err();
        assert!(err.contains("bad worker magic"), "{err}");
        // A framed length that exceeds what was written (the short-write
        // injection) must be caught by payload-length validation.
        let mut framed = WORKER_MAGIC.to_vec();
        framed.extend_from_slice(&99u64.to_le_bytes());
        framed.extend_from_slice(b"short");
        let err = read_response_frame(&mut Cursor::new(framed.as_slice())).unwrap_err();
        assert!(err.contains("payload length"), "{err}");
        // An implausible framed length is rejected before allocation.
        let mut huge = WORKER_MAGIC.to_vec();
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_response_frame(&mut Cursor::new(huge.as_slice())).unwrap_err();
        assert!(err.contains("implausible"), "{err}");
    }

    #[test]
    fn pooled_response_framing_is_byte_identical_and_roundtrips() {
        let (_, container, index) = mk_indexed_trace();
        let annots = AuxAnnotations::new();
        let symbols = SymbolTable::new();
        let cfg = AnalysisConfig::default();
        let a = analyze_frames(&container, &index, 0..2, &annots, &symbols, cfg, &[8]).unwrap();
        let b = analyze_frames(
            &container,
            &index,
            2..index.entries.len(),
            &annots,
            &symbols,
            cfg,
            &[8],
        )
        .unwrap();
        let mut fresh_a = Vec::new();
        frame_partial_into(&a, &mut fresh_a);
        let mut fresh_b = Vec::new();
        frame_partial_into(&b, &mut fresh_b);
        // One pooled buffer serving consecutive ranges — dirty seed
        // contents, then reuse — frames the exact same bytes.
        let mut pooled = vec![0xAA; 37];
        frame_partial_into(&a, &mut pooled);
        assert_eq!(pooled, fresh_a);
        frame_partial_into(&b, &mut pooled);
        assert_eq!(pooled, fresh_b);
        // The framed response round-trips through the coordinator's
        // reader back to the exact encoded partial.
        let payload = read_response_frame(&mut std::io::Cursor::new(fresh_a.as_slice()))
            .unwrap()
            .expect("one frame");
        assert_eq!(payload, a.encode());
        assert_eq!(
            PartialReport::decode(&payload).unwrap().encode(),
            a.encode()
        );
    }

    #[test]
    fn request_framing_roundtrips_and_eof_is_shutdown() {
        let mut req = [0u8; 24];
        encode_request(&mut req, &(3..9));
        let mut feed = req.to_vec();
        encode_request(&mut req, &(0..usize::MAX & 0xffff));
        feed.extend_from_slice(&req);
        let mut cur = std::io::Cursor::new(feed.as_slice());
        assert_eq!(read_request(&mut cur).unwrap(), Some(3..9));
        assert_eq!(read_request(&mut cur).unwrap(), Some(0..0xffff));
        assert_eq!(read_request(&mut cur).unwrap(), None, "EOF is shutdown");
        let err = read_request(&mut std::io::Cursor::new(&b"MGZX"[..])).unwrap_err();
        assert!(matches!(err, FanoutError::Protocol { .. }));
    }
}
