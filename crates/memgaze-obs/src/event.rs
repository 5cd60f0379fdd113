//! The structured event model and its JSONL wire format.
//!
//! Every observable fact is an [`Event`]: a closed span or a metric
//! snapshot (counter / histogram / gauge). Events carry the emitting
//! process id, and span ids are unique within it.

use crate::json::{self, Value};

/// One observability event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A closed span.
    Span {
        /// Emitting process.
        pid: u32,
        /// Span id (unique within `pid`).
        id: u64,
        /// Parent span id, 0 for none.
        parent: u64,
        /// Static span name (e.g. `pipeline.collect`).
        name: String,
        /// Start, in microseconds since the Unix epoch (monotonic
        /// within a process; see `crate::now_us`).
        start_us: u64,
        /// Inclusive duration in microseconds.
        dur_us: u64,
        /// Optional free-form detail (shard index, frame range, …).
        label: Option<String>,
    },
    /// A counter snapshot (cumulative since process start).
    Count {
        /// Emitting process.
        pid: u32,
        /// Counter name.
        name: String,
        /// Cumulative value.
        value: u64,
    },
    /// A power-of-2 histogram snapshot (cumulative).
    Hist {
        /// Emitting process.
        pid: u32,
        /// Histogram name.
        name: String,
        /// Total recorded values.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// `bins[0]` counts zeros; `bins[k]` counts `[2^(k-1), 2^k)`.
        bins: Vec<u64>,
    },
    /// A maximum gauge snapshot (cumulative).
    Gauge {
        /// Emitting process.
        pid: u32,
        /// Gauge name.
        name: String,
        /// Largest value observed.
        max: u64,
    },
}

impl Event {
    /// The emitting process id.
    pub fn pid(&self) -> u32 {
        match self {
            Event::Span { pid, .. }
            | Event::Count { pid, .. }
            | Event::Hist { pid, .. }
            | Event::Gauge { pid, .. } => *pid,
        }
    }

    /// The event name.
    pub fn name(&self) -> &str {
        match self {
            Event::Span { name, .. }
            | Event::Count { name, .. }
            | Event::Hist { name, .. }
            | Event::Gauge { name, .. } => name,
        }
    }

    /// Encode as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        let field_str = |s: &mut String, key: &str, val: &str| {
            s.push('"');
            s.push_str(key);
            s.push_str("\":\"");
            json::escape_into(s, val);
            s.push('"');
        };
        let field_num = |s: &mut String, key: &str, val: u64| {
            s.push('"');
            s.push_str(key);
            s.push_str("\":");
            s.push_str(&val.to_string());
        };
        s.push('{');
        match self {
            Event::Span {
                pid,
                id,
                parent,
                name,
                start_us,
                dur_us,
                label,
            } => {
                field_str(&mut s, "t", "span");
                s.push(',');
                field_num(&mut s, "pid", *pid as u64);
                s.push(',');
                field_num(&mut s, "id", *id);
                s.push(',');
                field_num(&mut s, "parent", *parent);
                s.push(',');
                field_str(&mut s, "name", name);
                s.push(',');
                field_num(&mut s, "start_us", *start_us);
                s.push(',');
                field_num(&mut s, "dur_us", *dur_us);
                if let Some(l) = label {
                    s.push(',');
                    field_str(&mut s, "label", l);
                }
            }
            Event::Count { pid, name, value } => {
                field_str(&mut s, "t", "count");
                s.push(',');
                field_num(&mut s, "pid", *pid as u64);
                s.push(',');
                field_str(&mut s, "name", name);
                s.push(',');
                field_num(&mut s, "value", *value);
            }
            Event::Hist {
                pid,
                name,
                count,
                sum,
                bins,
            } => {
                field_str(&mut s, "t", "hist");
                s.push(',');
                field_num(&mut s, "pid", *pid as u64);
                s.push(',');
                field_str(&mut s, "name", name);
                s.push(',');
                field_num(&mut s, "count", *count);
                s.push(',');
                field_num(&mut s, "sum", *sum);
                s.push_str(",\"bins\":[");
                for (i, b) in bins.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&b.to_string());
                }
                s.push(']');
            }
            Event::Gauge { pid, name, max } => {
                field_str(&mut s, "t", "gauge");
                s.push(',');
                field_num(&mut s, "pid", *pid as u64);
                s.push(',');
                field_str(&mut s, "name", name);
                s.push(',');
                field_num(&mut s, "max", *max);
            }
        }
        s.push('}');
        s
    }

    /// Decode one parsed JSONL line. `Err` describes the malformation;
    /// the caller decides whether that aborts a stitch or skips a line.
    pub fn from_value(v: &Value) -> Result<Event, String> {
        let tag = v
            .get("t")
            .and_then(Value::as_str)
            .ok_or("missing event tag 't'")?;
        let pid = req_u64(v, "pid")? as u32;
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing 'name'")?
            .to_string();
        match tag {
            "span" => Ok(Event::Span {
                pid,
                id: req_u64(v, "id")?,
                parent: req_u64(v, "parent")?,
                name,
                start_us: req_u64(v, "start_us")?,
                dur_us: req_u64(v, "dur_us")?,
                label: v
                    .get("label")
                    .and_then(Value::as_str)
                    .map(|s| s.to_string()),
            }),
            "count" => Ok(Event::Count {
                pid,
                name,
                value: req_u64(v, "value")?,
            }),
            "hist" => {
                let bins = match v.get("bins") {
                    Some(Value::Arr(items)) => items
                        .iter()
                        .map(|b| b.as_u64().ok_or_else(|| "bad histogram bin".to_string()))
                        .collect::<Result<Vec<u64>, String>>()?,
                    _ => return Err("missing 'bins'".to_string()),
                };
                Ok(Event::Hist {
                    pid,
                    name,
                    count: req_u64(v, "count")?,
                    sum: req_u64(v, "sum")?,
                    bins,
                })
            }
            "gauge" => Ok(Event::Gauge {
                pid,
                name,
                max: req_u64(v, "max")?,
            }),
            other => Err(format!("unknown event tag '{other}'")),
        }
    }

    /// Decode one raw JSONL line.
    pub fn from_json_line(line: &str) -> Result<Event, String> {
        Event::from_value(&json::parse(line)?)
    }
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(e: Event) {
        let line = e.to_json_line();
        let back = Event::from_json_line(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
        assert_eq!(back, e, "line: {line}");
    }

    #[test]
    fn all_event_kinds_round_trip() {
        round_trip(Event::Span {
            pid: 7,
            id: 3,
            parent: 1,
            name: "pipeline.collect".into(),
            start_us: 1_700_000_000_000_000,
            dur_us: 12345,
            label: Some("shard 4 \"quoted\"".into()),
        });
        round_trip(Event::Span {
            pid: 8,
            id: 1,
            parent: 0,
            name: "partial.analyze_frames".into(),
            start_us: 5,
            dur_us: 6,
            label: None,
        });
        round_trip(Event::Count {
            pid: 7,
            name: "model.frames_decoded".into(),
            value: u64::MAX,
        });
        round_trip(Event::Hist {
            pid: 7,
            name: "serve.request_us".into(),
            count: 10,
            sum: 55,
            bins: vec![1, 2, 3, 4],
        });
        round_trip(Event::Gauge {
            pid: 7,
            name: "streaming.peak_shard_bytes".into(),
            max: 1 << 40,
        });
    }

    #[test]
    fn bad_lines_are_typed_errors() {
        assert!(Event::from_json_line("").is_err());
        assert!(Event::from_json_line("{}").is_err());
        assert!(Event::from_json_line(r#"{"t":"span","pid":1}"#).is_err());
        assert!(Event::from_json_line(r#"{"t":"nope","pid":1,"name":"x"}"#).is_err());
    }
}
