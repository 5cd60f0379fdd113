//! Error type shared by trace-model operations.

use crate::wire::WireError;

/// Errors produced while building, encoding, or decoding trace-model data.
#[derive(Debug)]
pub enum ModelError {
    /// A block size that is zero or not a power of two.
    InvalidBlockSize(u64),
    /// A trace file whose magic number or version is unrecognized.
    BadHeader {
        /// Human-readable description of what was wrong.
        detail: String,
    },
    /// Trace data ended prematurely while decoding.
    Truncated {
        /// What was being decoded when input ran out.
        context: &'static str,
    },
    /// A decoded count or offset too large to address on this platform
    /// (`u64` → `usize` would truncate). Unchecked `as usize` narrowing
    /// here would silently wrap on 32-bit targets, letting a hostile
    /// length alias a small allocation; decoders reject it instead.
    Oversize {
        /// What was being decoded when the value was rejected.
        context: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Samples must be time-ordered and non-overlapping.
    UnorderedSamples {
        /// Index of the offending sample.
        index: usize,
    },
    /// A sample failed to decode; wraps the underlying error so callers
    /// can tell which sample of a payload was corrupt.
    InSample {
        /// Index of the failing sample within its payload.
        index: usize,
        /// What went wrong inside the sample.
        source: Box<ModelError>,
    },
    /// A shard frame failed to decode; wraps the underlying error so
    /// streaming callers can tell how far a container was readable.
    InShard {
        /// Index of the failing shard frame.
        shard: u64,
        /// What went wrong inside the frame.
        source: Box<ModelError>,
    },
    /// Trailer totals that contradict what was actually streamed — e.g.
    /// fewer total loads than samples written (each sample is triggered
    /// by at least one load, so `total_loads >= samples` always holds
    /// for a truthful trailer), or than the trigger times span.
    InconsistentTotals {
        /// The `total_loads` the trailer claims.
        total_loads: u64,
        /// The fewest loads the streamed samples imply.
        at_least: u64,
    },
    /// A frame-index sidecar that does not describe the container it was
    /// presented with (wrong length, wrong header, or a frame whose
    /// bytes no longer match the indexed checksum).
    StaleIndex {
        /// What mismatched.
        detail: String,
    },
    /// Underlying I/O error.
    Io(std::io::Error),
}

impl ModelError {
    /// The shard index a decode failure occurred in, if this error came
    /// from a sharded container.
    pub fn shard_index(&self) -> Option<u64> {
        match self {
            ModelError::InShard { shard, .. } => Some(*shard),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::InvalidBlockSize(b) => {
                write!(f, "invalid block size {b}: must be a nonzero power of two")
            }
            ModelError::BadHeader { detail } => write!(f, "bad trace header: {detail}"),
            ModelError::Truncated { context } => {
                write!(f, "truncated trace data while decoding {context}")
            }
            ModelError::Oversize { context, value } => {
                write!(
                    f,
                    "oversize value {value} while decoding {context}: not addressable on this platform"
                )
            }
            ModelError::UnorderedSamples { index } => {
                write!(f, "sample {index} is out of time order")
            }
            ModelError::InSample { index, source } => {
                write!(f, "sample {index}: {source}")
            }
            ModelError::InShard { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
            ModelError::InconsistentTotals {
                total_loads,
                at_least,
            } => write!(
                f,
                "inconsistent trailer totals: total_loads {total_loads} < {at_least}, the fewest \
                 loads the streamed samples imply"
            ),
            ModelError::StaleIndex { detail } => {
                write!(f, "stale frame index: {detail}")
            }
            ModelError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Io(e) => Some(e),
            ModelError::InSample { source, .. } | ModelError::InShard { source, .. } => {
                Some(source.as_ref())
            }
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

impl From<WireError> for ModelError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { context } => ModelError::Truncated { context },
            WireError::Oversize { context, value } => ModelError::Oversize { context, value },
            WireError::Malformed { detail } => ModelError::BadHeader { detail },
            WireError::Io(e) => ModelError::Io(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::InvalidBlockSize(48);
        assert!(e.to_string().contains("48"));
        let e = ModelError::Truncated { context: "sample" };
        assert!(e.to_string().contains("sample"));
    }

    #[test]
    fn io_error_source_preserved() {
        use std::error::Error;
        let e = ModelError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }

    #[test]
    fn wrapped_errors_chain_and_locate() {
        use std::error::Error;
        let inner = ModelError::Truncated { context: "access" };
        let e = ModelError::InShard {
            shard: 3,
            source: Box::new(ModelError::InSample {
                index: 7,
                source: Box::new(inner),
            }),
        };
        assert_eq!(e.shard_index(), Some(3));
        assert!(e.to_string().contains("shard 3"));
        assert!(e.to_string().contains("sample 7"));
        let mid = e.source().unwrap();
        assert!(mid.source().unwrap().to_string().contains("access"));
    }
}
