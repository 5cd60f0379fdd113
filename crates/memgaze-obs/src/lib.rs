//! # memgaze-obs
//!
//! A zero-dependency observability substrate for the MemGaze pipeline:
//! structured span tracing with monotonic timestamps and parent/child
//! nesting, lock-free counters / power-of-2 histograms / max gauges,
//! and pluggable sinks (JSONL event file, human summary, in-memory
//! capture). The whole layer is gated by the `MEMGAZE_OBS` environment
//! variable and costs one relaxed atomic load per instrumentation
//! point when disabled.
//!
//! ## Enabling
//!
//! `MEMGAZE_OBS` is a comma-separated sink list:
//!
//! * unset, empty, `0`, or `off` — disabled (the default);
//! * `1` or `summary` — print a counter/histogram summary to stderr
//!   when the process flushes;
//! * `jsonl:<path>` — append every event to `<path>` as JSON lines;
//! * `capture` — additionally buffer events in memory (used by
//!   `memgaze profile` and tests).
//!
//! ## Cross-process stitching
//!
//! Span ids are only unique per process, so every event carries the
//! emitting `pid`. A coordinator hands a worker subprocess two
//! environment variables — [`OBS_PARENT_ENV`] (`pid:spanid`, adopted
//! as the remote parent of the worker's root spans) and its own
//! `MEMGAZE_OBS=jsonl:<file>` — then absorbs the worker's event file
//! with [`absorb_jsonl`], producing one stitched trace tree spanning
//! both processes.
//!
//! ```
//! let _span = memgaze_obs::span("docs.example");
//! memgaze_obs::counter!("docs.examples_run").add(1);
//! // Disabled by default: near-zero cost, no events recorded.
//! ```

mod event;
pub mod json;
mod metrics;
mod profile;

pub use event::{Event, SpanCtx};
pub use json::{parse as parse_json, Value};
pub use metrics::{Counter, Gauge, Histogram};
pub use profile::{render_profile, render_summary, stats as profile_stats, ProfileStats};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};
use std::time::Instant;

/// Sink-selection environment variable (see the crate docs).
pub const OBS_ENV: &str = "MEMGAZE_OBS";
/// Cross-process parent span, as `pid:spanid`.
pub const OBS_PARENT_ENV: &str = "MEMGAZE_OBS_PARENT";

/// Observability configuration: which sinks receive events.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Append events as JSON lines to this file (truncated on
    /// configure).
    pub jsonl_path: Option<PathBuf>,
    /// Buffer events in memory for [`take_capture`].
    pub capture: bool,
    /// Print a metric summary to stderr on [`flush`].
    pub summary: bool,
    /// Remote parent adopted by spans with no local parent.
    pub remote_parent: Option<SpanCtx>,
}

impl ObsConfig {
    /// The disabled configuration.
    pub fn disabled() -> ObsConfig {
        ObsConfig::default()
    }

    /// Whether any sink is active.
    pub fn is_enabled(&self) -> bool {
        self.jsonl_path.is_some() || self.capture || self.summary
    }

    /// Parse [`OBS_ENV`] / [`OBS_PARENT_ENV`].
    pub fn from_env() -> ObsConfig {
        let mut cfg = ObsConfig::default();
        if let Ok(spec) = std::env::var(OBS_ENV) {
            for tok in spec.split(',').map(str::trim) {
                match tok {
                    "" | "0" | "off" => {}
                    "1" | "summary" => cfg.summary = true,
                    "capture" => cfg.capture = true,
                    t => {
                        if let Some(path) = t.strip_prefix("jsonl:") {
                            cfg.jsonl_path = Some(PathBuf::from(path));
                        }
                        // Unknown tokens are ignored: a misspelled sink
                        // must not abort the instrumented program.
                    }
                }
            }
        }
        cfg.remote_parent = std::env::var(OBS_PARENT_ENV)
            .ok()
            .as_deref()
            .and_then(parse_parent);
        cfg
    }
}

fn parse_parent(s: &str) -> Option<SpanCtx> {
    let (pid, id) = s.split_once(':')?;
    Some(SpanCtx {
        pid: pid.trim().parse().ok()?,
        id: id.trim().parse().ok()?,
    })
}

/// Active sinks. All writes are best-effort: a full disk must not
/// abort the traced run.
struct Sinks {
    jsonl: Option<BufWriter<File>>,
    capture: Option<Vec<Event>>,
    summary: bool,
}

/// Global observability state.
struct State {
    sinks: Mutex<Sinks>,
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    remote_parent: Mutex<Option<SpanCtx>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static INITTED: AtomicBool = AtomicBool::new(false);
static STATE: OnceLock<State> = OnceLock::new();
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn state() -> &'static State {
    STATE.get_or_init(|| State {
        sinks: Mutex::new(Sinks {
            jsonl: None,
            capture: None,
            summary: false,
        }),
        counters: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        remote_parent: Mutex::new(None),
    })
}

/// Observability must never poison-panic the program it is observing.
fn lock_live<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether observability is on. The first call reads the environment;
/// later calls are two relaxed atomic loads.
#[inline]
pub fn enabled() -> bool {
    if !INITTED.load(Ordering::Acquire) {
        init_from_env();
    }
    ENABLED.load(Ordering::Relaxed)
}

fn init_from_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        configure(ObsConfig::from_env());
    });
}

/// Install a configuration, replacing any active sinks. Callable
/// repeatedly (the profile verb and tests reconfigure at runtime);
/// metric values persist across reconfiguration, buffered events and
/// sinks do not.
pub fn configure(cfg: ObsConfig) {
    let st = state();
    {
        let mut sinks = lock_live(&st.sinks);
        if let Some(w) = sinks.jsonl.as_mut() {
            let _ = w.flush();
        }
        sinks.jsonl = cfg
            .jsonl_path
            .as_ref()
            .and_then(|p| File::create(p).ok())
            .map(BufWriter::new);
        sinks.capture = cfg.capture.then(Vec::new);
        sinks.summary = cfg.summary;
    }
    *lock_live(&st.remote_parent) = cfg.remote_parent;
    ENABLED.store(cfg.is_enabled(), Ordering::Relaxed);
    INITTED.store(true, Ordering::Release);
}

/// Microseconds since the Unix epoch, monotonic within this process:
/// the wall clock is read once and advanced by `Instant` elapsed time,
/// so spans nest consistently even if the system clock steps.
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    let (anchor, base) = EPOCH.get_or_init(|| {
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        (Instant::now(), unix)
    });
    base + anchor.elapsed().as_micros() as u64
}

/// This process's id.
pub fn own_pid() -> u32 {
    std::process::id()
}

fn emit(e: Event) {
    let mut sinks = lock_live(&state().sinks);
    if let Some(w) = sinks.jsonl.as_mut() {
        let _ = writeln!(w, "{}", e.to_json_line());
    }
    if let Some(buf) = sinks.capture.as_mut() {
        buf.push(e);
    }
}

/// An open span; the guard records the span on drop. Inactive (and
/// free) when observability is disabled at creation time.
pub struct Span(Option<SpanInner>);

struct SpanInner {
    id: u64,
    parent: u64,
    remote: Option<SpanCtx>,
    name: &'static str,
    start_us: u64,
    label: Option<String>,
}

/// Open a span nested under the current thread's innermost open span
/// (or under the configured cross-process parent at top level).
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    open_span(name, parent, None)
}

/// Open a span under an explicit parent — the cross-thread and
/// cross-process form. `None` (a disabled parent's [`Span::ctx`])
/// falls back to [`span`] semantics.
pub fn span_under(name: &'static str, parent: Option<SpanCtx>) -> Span {
    if !enabled() {
        return Span(None);
    }
    match parent {
        None => span(name),
        Some(ctx) if ctx.pid == own_pid() => open_span(name, ctx.id, None),
        Some(ctx) => open_span(name, 0, Some(ctx)),
    }
}

fn open_span(name: &'static str, parent: u64, remote: Option<SpanCtx>) -> Span {
    let remote = if parent == 0 {
        remote.or_else(|| *lock_live(&state().remote_parent))
    } else {
        remote
    };
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Span(Some(SpanInner {
        id,
        parent,
        remote,
        name,
        start_us: now_us(),
        label: None,
    }))
}

impl Span {
    /// Whether the span is recording.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Attach a free-form label (only evaluated when active, so guard
    /// expensive formatting with [`Span::is_active`]).
    pub fn set_label(&mut self, label: impl Into<String>) {
        if let Some(inner) = self.0.as_mut() {
            inner.label = Some(label.into());
        }
    }

    /// The span's identity, for parenting work on other threads or in
    /// other processes. `None` when inactive.
    pub fn ctx(&self) -> Option<SpanCtx> {
        self.0.as_ref().map(|i| SpanCtx {
            pid: own_pid(),
            id: i.id,
        })
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut v = s.borrow_mut();
            if let Some(pos) = v.iter().rposition(|&x| x == inner.id) {
                v.remove(pos);
            }
        });
        let dur_us = now_us().saturating_sub(inner.start_us);
        emit(Event::Span {
            pid: own_pid(),
            id: inner.id,
            parent: inner.parent,
            remote: inner.remote,
            name: inner.name.to_string(),
            start_us: inner.start_us,
            dur_us,
            label: inner.label,
        });
    }
}

/// Record an instantaneous annotated event (retry, kill, …) under the
/// current thread's innermost open span.
pub fn mark(name: &'static str, fields: &[(&str, String)]) {
    if !enabled() {
        return;
    }
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let remote = if parent == 0 {
        *lock_live(&state().remote_parent)
    } else {
        None
    };
    emit(Event::Mark {
        pid: own_pid(),
        parent,
        remote,
        name: name.to_string(),
        at_us: now_us(),
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    });
}

/// Look up (or register) a counter by name. Prefer the
/// [`counter!`](crate::counter!) macro, which caches per call site.
pub fn counter(name: &'static str) -> &'static Counter {
    lock_live(&state().counters)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new(name))))
}

/// Look up (or register) a histogram by name. Prefer
/// [`histogram!`](crate::histogram!).
pub fn histogram(name: &'static str) -> &'static Histogram {
    lock_live(&state().histograms)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new(name))))
}

/// Look up (or register) a gauge by name. Prefer
/// [`gauge!`](crate::gauge!).
pub fn gauge(name: &'static str) -> &'static Gauge {
    lock_live(&state().gauges)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::new(name))))
}

/// Nonzero live registry values, for the summary renderer:
/// `(counters, histograms as (name, count, sum, bins), gauges)`.
#[allow(clippy::type_complexity)]
pub(crate) fn registry_snapshot() -> (
    Vec<(String, u64)>,
    Vec<(String, u64, u64, Vec<u64>)>,
    Vec<(String, u64)>,
) {
    let st = state();
    let counters = lock_live(&st.counters)
        .values()
        .filter(|c| c.value() > 0)
        .map(|c| (c.name().to_string(), c.value()))
        .collect();
    let hists = lock_live(&st.histograms)
        .values()
        .filter(|h| h.count() > 0)
        .map(|h| {
            let (count, sum, bins) = h.snapshot();
            (h.name().to_string(), count, sum, bins)
        })
        .collect();
    let gauges = lock_live(&st.gauges)
        .values()
        .filter(|g| g.value() > 0)
        .map(|g| (g.name().to_string(), g.value()))
        .collect();
    (counters, hists, gauges)
}

/// Snapshot every nonzero metric into the sinks, flush the JSONL file,
/// and (with the summary sink) print the metric summary to stderr.
/// A no-op when disabled.
pub fn flush() {
    if !enabled() {
        return;
    }
    let pid = own_pid();
    let (counters, hists, gauges) = registry_snapshot();
    for (name, value) in counters {
        emit(Event::Count { pid, name, value });
    }
    for (name, count, sum, bins) in hists {
        emit(Event::Hist {
            pid,
            name,
            count,
            sum,
            bins,
        });
    }
    for (name, max) in gauges {
        emit(Event::Gauge { pid, name, max });
    }
    let st = state();
    let mut sinks = lock_live(&st.sinks);
    if let Some(w) = sinks.jsonl.as_mut() {
        let _ = w.flush();
    }
    if sinks.summary {
        drop(sinks);
        eprint!("{}", render_summary());
    }
}

/// Drain the in-memory capture buffer.
pub fn take_capture() -> Vec<Event> {
    let mut sinks = lock_live(&state().sinks);
    match sinks.capture.as_mut() {
        Some(buf) => std::mem::take(buf),
        None => Vec::new(),
    }
}

/// Outcome of absorbing a JSONL event stream: how many events landed
/// and how many malformed lines were skipped along the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbsorbStats {
    /// Events successfully parsed and emitted into this process's sinks.
    pub absorbed: usize,
    /// Nonempty lines that failed to parse and were skipped.
    pub skipped: usize,
}

/// Absorb a worker's JSONL event stream into this process's sinks,
/// preserving each event verbatim (events are pid-qualified, so no
/// rewriting is needed to keep the merged trace consistent).
///
/// Concurrent writers appending to a shared `jsonl:` sink can interleave
/// partial lines anywhere in the file, not just at the tail, so a
/// malformed line is not fatal: it is skipped, counted in
/// [`AbsorbStats::skipped`], and surfaced on the `obs.absorb.skipped`
/// counter. Every well-formed line before *and after* a torn write
/// still lands. Use [`validate_jsonl`] when strictness is the point.
pub fn absorb_jsonl(text: &str) -> AbsorbStats {
    let mut stats = AbsorbStats::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Event::from_json_line(line) {
            Ok(ev) => {
                emit(ev);
                stats.absorbed += 1;
            }
            Err(_) => stats.skipped += 1,
        }
    }
    if stats.skipped > 0 {
        counter("obs.absorb.skipped").add(stats.skipped as u64);
    }
    stats
}

/// Validate that every nonempty line of a JSONL event stream parses as
/// an [`Event`], without emitting anything. Returns the event count; a
/// malformed line is an error naming the line.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut n = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        Event::from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        n += 1;
    }
    Ok(n)
}

/// The environment a coordinator hands a worker subprocess so the
/// worker's spans stitch under `parent` and its events land in
/// `jsonl_path` (later fed to [`absorb_jsonl`]).
pub fn worker_env(parent: Option<SpanCtx>, jsonl_path: &Path) -> Vec<(String, String)> {
    let mut env = vec![(
        OBS_ENV.to_string(),
        format!("jsonl:{}", jsonl_path.display()),
    )];
    if let Some(p) = parent {
        env.push((OBS_PARENT_ENV.to_string(), format!("{}:{}", p.pid, p.id)));
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global sink set is process-wide, so tests that reconfigure
    /// sinks or drain `take_capture` serialize on this lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn spans_counters_and_stitching() {
        let _guard = serial();
        configure(ObsConfig {
            capture: true,
            ..ObsConfig::default()
        });
        assert!(enabled());

        // Nested spans record parentage; a sibling thread parents
        // explicitly via ctx().
        let mut outer = span("test.outer");
        outer.set_label("label text");
        let outer_ctx = outer.ctx();
        {
            let _inner = span("test.inner");
            counter!("test.counter").add(3);
            histogram!("test.hist").record(7);
            gauge!("test.gauge").set_max(41);
            mark("test.mark", &[("k", "v".to_string())]);
        }
        let t = std::thread::spawn(move || {
            let _s = span_under("test.cross_thread", outer_ctx);
        });
        t.join().unwrap();
        drop(outer);
        flush();

        let events = take_capture();
        let find_span = |n: &str| {
            events.iter().find_map(|e| match e {
                Event::Span {
                    id, parent, name, ..
                } if name == n => Some((*id, *parent)),
                _ => None,
            })
        };
        let (outer_id, outer_parent) = find_span("test.outer").unwrap();
        assert_eq!(outer_parent, 0);
        let (_, inner_parent) = find_span("test.inner").unwrap();
        assert_eq!(inner_parent, outer_id);
        let (_, cross_parent) = find_span("test.cross_thread").unwrap();
        assert_eq!(cross_parent, outer_id);
        assert!(events.iter().any(
            |e| matches!(e, Event::Mark { name, parent, .. } if name == "test.mark" && *parent != 0)
        ));
        assert!(events.iter().any(
            |e| matches!(e, Event::Count { name, value, .. } if name == "test.counter" && *value >= 3)
        ));
        assert!(events.iter().any(
            |e| matches!(e, Event::Gauge { name, max, .. } if name == "test.gauge" && *max >= 41)
        ));

        // Absorb a synthetic worker stream: events keep their pid and
        // remote parent, and garbage lines are skipped, not fatal.
        configure(ObsConfig {
            capture: true,
            ..ObsConfig::default()
        });
        let worker_line = Event::Span {
            pid: own_pid() + 1,
            id: 1,
            parent: 0,
            remote: Some(SpanCtx {
                pid: own_pid(),
                id: outer_id,
            }),
            name: "worker.root".to_string(),
            start_us: 1,
            dur_us: 2,
            label: None,
        }
        .to_json_line();
        assert_eq!(
            absorb_jsonl(&format!("{worker_line}\n\n")),
            AbsorbStats {
                absorbed: 1,
                skipped: 0
            }
        );
        assert_eq!(
            absorb_jsonl("not json"),
            AbsorbStats {
                absorbed: 0,
                skipped: 1
            }
        );
        let absorbed = take_capture();
        assert!(matches!(
            &absorbed[0],
            Event::Span { remote: Some(r), .. } if r.id == outer_id
        ));

        // The profile renderer sees the worker span under the outer span.
        configure(ObsConfig::disabled());
        assert!(!enabled());
        let s = span("test.disabled");
        assert!(!s.is_active());
        assert!(s.ctx().is_none());
    }

    /// Regression: concurrent handlers appending to one `jsonl:` sink
    /// can tear a line in the *middle* of the file, not only at the
    /// tail. The pre-fix absorber stopped at the first malformed line,
    /// dropping every event after the tear; it must instead skip the
    /// torn fragments, keep absorbing, and count what it skipped.
    #[test]
    fn interior_torn_writes_are_skipped_not_fatal() {
        let _guard = serial();
        configure(ObsConfig {
            capture: true,
            ..ObsConfig::default()
        });
        let line = |name: &str| {
            Event::Count {
                pid: own_pid(),
                name: name.to_string(),
                value: 1,
            }
            .to_json_line()
        };
        let good_a = line("torn.a");
        let good_b = line("torn.b");
        let good_c = line("torn.c");
        // A writer torn mid-record splices half a line into another
        // writer's record, producing two malformed fragments between
        // intact neighbors.
        let torn = format!(
            "{good_a}\n{}\n{}{good_b}\n{good_c}\n",
            &good_a[..good_a.len() / 2],
            &good_b[..3],
        );
        let before = counter("obs.absorb.skipped").value();
        let stats = absorb_jsonl(&torn);
        assert_eq!(stats.absorbed, 2, "events after the tear must land");
        assert_eq!(stats.skipped, 2, "both torn fragments counted");
        assert_eq!(counter("obs.absorb.skipped").value(), before + 2);
        let names: Vec<String> = take_capture()
            .into_iter()
            .filter_map(|e| match e {
                Event::Count { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"torn.a".to_string()));
        assert!(names.contains(&"torn.c".to_string()));
        // Strict validation still refuses the same stream.
        assert!(validate_jsonl(&torn).is_err());
        configure(ObsConfig::disabled());
    }

    #[test]
    fn env_config_parses() {
        let cfg = ObsConfig::default();
        assert!(!cfg.is_enabled());
        assert!(parse_parent("123:9").is_some());
        assert_eq!(parse_parent("123:9"), Some(SpanCtx { pid: 123, id: 9 }));
        assert!(parse_parent("123").is_none());
        assert!(parse_parent("a:b").is_none());
        let env = worker_env(Some(SpanCtx { pid: 1, id: 2 }), Path::new("/tmp/x.jsonl"));
        assert_eq!(env[0].0, OBS_ENV);
        assert!(env[0].1.starts_with("jsonl:"));
        assert_eq!(env[1], (OBS_PARENT_ENV.to_string(), "1:2".to_string()));
    }

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
        assert!(a > 1_000_000_000_000_000, "epoch-anchored micros");
    }
}
