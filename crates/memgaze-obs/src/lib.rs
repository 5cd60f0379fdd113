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
//! Spans nest under the innermost open span on their thread.
//!
//! ```
//! let _span = memgaze_obs::span("docs.example");
//! memgaze_obs::counter!("docs.examples_run").add(1);
//! // Disabled by default: near-zero cost, no events recorded.
//! ```
//!
//! Its non-test code may not `unwrap`, `expect` or index unchecked (an
//! `allow` says why).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod event;
pub mod json;
mod metrics;
mod profile;

pub use event::Event;
pub use json::{parse as parse_json, Value};
pub use metrics::{Counter, Gauge, Histogram};
pub use profile::{render_profile, render_summary, stats as profile_stats, ProfileStats};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};
use std::time::Instant;

/// Sink-selection environment variable (see the crate docs).
pub const OBS_ENV: &str = "MEMGAZE_OBS";

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

    /// Parse [`OBS_ENV`].
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
        cfg
    }
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
    name: &'static str,
    start_us: u64,
    label: Option<String>,
}

/// Open a span nested under the current thread's innermost open span.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    open_span(name, parent)
}

fn open_span(name: &'static str, parent: u64) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Span(Some(SpanInner {
        id,
        parent,
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
            name: inner.name.to_string(),
            start_us: inner.start_us,
            dur_us,
            label: inner.label,
        });
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_metrics() {
        // The only test here that configures the process-wide sinks.
        configure(ObsConfig {
            capture: true,
            ..ObsConfig::default()
        });
        assert!(enabled());

        // Nested spans record parentage.
        let mut outer = span("test.outer");
        outer.set_label("label text");
        {
            let _inner = span("test.inner");
            counter!("test.counter").add(3);
            histogram!("test.hist").record(7);
            gauge!("test.gauge").set_max(41);
        }
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
        assert!(events.iter().any(
            |e| matches!(e, Event::Count { name, value, .. } if name == "test.counter" && *value >= 3)
        ));
        assert!(events.iter().any(
            |e| matches!(e, Event::Gauge { name, max, .. } if name == "test.gauge" && *max >= 41)
        ));

        configure(ObsConfig::disabled());
        assert!(!enabled());
        let s = span("test.disabled");
        assert!(!s.is_active());
        assert!(!ObsConfig::default().is_enabled());
    }

    /// A torn line anywhere in an event file — not only at the tail —
    /// fails validation, naming the line.
    #[test]
    fn validation_names_the_first_torn_line() {
        let line = |name: &str| {
            Event::Count {
                pid: own_pid(),
                name: name.to_string(),
                value: 1,
            }
            .to_json_line()
        };
        let (good_a, good_b) = (line("torn.a"), line("torn.b"));
        assert_eq!(validate_jsonl(&format!("{good_a}\n\n{good_b}\n")), Ok(2));
        let torn = format!("{good_a}\n{}\n{good_b}\n", &good_a[..good_a.len() / 2]);
        let err = validate_jsonl(&torn).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
        assert!(a > 1_000_000_000_000_000, "epoch-anchored micros");
    }
}
