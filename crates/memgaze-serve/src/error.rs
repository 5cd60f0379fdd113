//! Typed server errors, each carrying its HTTP mapping.
//!
//! Admission control is only as good as its refusals: a client that is
//! pushed back must learn *why* (so it can distinguish "slow down" from
//! "you are broken") and *when to retry*. Every rejection path in the
//! server goes through [`ServeError`], which knows its status code, its
//! machine-readable kind, and — for capacity refusals — a `Retry-After`
//! hint. Nothing in the request path panics a handler: decode failures,
//! over-capacity feeds, and lifecycle misuse all land here.

use memgaze_model::ModelError;

/// Everything a request handler can refuse or fail with.
#[derive(Debug)]
pub enum ServeError {
    /// The server is at its concurrent-session limit.
    SessionLimit {
        /// Configured maximum live sessions.
        limit: usize,
    },
    /// A session's pending-upload queue is full; the client should back
    /// off and retry.
    QueueFull {
        /// Session that refused the upload.
        session: String,
        /// Configured queue depth.
        depth: usize,
    },
    /// Accepting the upload would exceed the session's byte budget.
    ByteBudget {
        /// Session that refused the upload.
        session: String,
        /// Configured per-session budget in bytes.
        budget: u64,
        /// Bytes the session would hold if the upload were accepted.
        would_hold: u64,
    },
    /// No session with this id (never created, reaped, or deleted).
    UnknownSession {
        /// The id the client asked for.
        id: String,
    },
    /// A feed or subscribe arrived after the session was sealed.
    Sealed {
        /// The sealed session.
        id: String,
    },
    /// A report query arrived before the session was sealed.
    NotSealed {
        /// The still-open session.
        id: String,
    },
    /// An upload names another workload than the session's, or its
    /// trailer totals take the session's past `u64`.
    MetaMismatch {
        /// Human-readable description of the contradiction.
        detail: String,
    },
    /// An uploaded container failed to decode; the session is poisoned
    /// (its data can no longer be trusted to be complete).
    Decode {
        /// Session the bad upload was fed to.
        session: String,
        /// The underlying decode failure, rendered.
        detail: String,
    },
    /// The request itself was malformed (bad path, missing body, ...).
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// The server is draining: no new sessions, no new feeds.
    Draining,
}

impl ServeError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::SessionLimit { .. } | ServeError::Draining => 503,
            ServeError::QueueFull { .. } => 429,
            ServeError::ByteBudget { .. } => 413,
            ServeError::UnknownSession { .. } => 404,
            ServeError::Sealed { .. } | ServeError::NotSealed { .. } => 409,
            ServeError::MetaMismatch { .. } | ServeError::Decode { .. } => 422,
            ServeError::BadRequest { .. } => 400,
        }
    }

    /// Seconds the client should wait before retrying, for refusals
    /// that are about *capacity right now* rather than a broken request.
    pub fn retry_after(&self) -> Option<u64> {
        match self {
            ServeError::SessionLimit { .. } | ServeError::Draining => Some(2),
            ServeError::QueueFull { .. } => Some(1),
            _ => None,
        }
    }

    /// Stable machine-readable error kind for the JSON body.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            ServeError::SessionLimit { .. } => "session_limit",
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::ByteBudget { .. } => "byte_budget",
            ServeError::UnknownSession { .. } => "unknown_session",
            ServeError::Sealed { .. } => "sealed",
            ServeError::NotSealed { .. } => "not_sealed",
            ServeError::MetaMismatch { .. } => "meta_mismatch",
            ServeError::Decode { .. } => "decode",
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::Draining => "draining",
        }
    }

    /// Wrap a container decode failure for session `id`.
    pub(crate) fn decode(id: &str, e: &ModelError) -> ServeError {
        ServeError::Decode {
            session: id.to_string(),
            detail: e.to_string(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::SessionLimit { limit } => {
                write!(f, "session limit reached ({limit} live sessions)")
            }
            ServeError::QueueFull { session, depth } => {
                write!(f, "session {session}: upload queue full (depth {depth})")
            }
            ServeError::ByteBudget {
                session,
                budget,
                would_hold,
            } => write!(
                f,
                "session {session}: byte budget exceeded ({would_hold} > {budget})"
            ),
            ServeError::UnknownSession { id } => write!(f, "unknown session {id}"),
            ServeError::Sealed { id } => write!(f, "session {id} is sealed"),
            ServeError::NotSealed { id } => write!(f, "session {id} is not sealed yet"),
            ServeError::MetaMismatch { detail } => write!(f, "metadata mismatch: {detail}"),
            ServeError::Decode { session, detail } => {
                write!(f, "session {session}: upload failed to decode: {detail}")
            }
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::Draining => write!(f, "server is draining"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_retry_mapping() {
        let e = ServeError::QueueFull {
            session: "s1".into(),
            depth: 4,
        };
        assert_eq!(e.status(), 429);
        assert_eq!(e.retry_after(), Some(1));
        assert_eq!(e.kind(), "queue_full");

        let e = ServeError::ByteBudget {
            session: "s1".into(),
            budget: 10,
            would_hold: 20,
        };
        assert_eq!(e.status(), 413);
        assert_eq!(e.retry_after(), None);

        assert_eq!(ServeError::Draining.status(), 503);
        assert_eq!(ServeError::Draining.retry_after(), Some(2));
        let e = ServeError::UnknownSession { id: "x".into() };
        assert_eq!(e.status(), 404);
        assert!(e.to_string().contains('x'));
    }
}
