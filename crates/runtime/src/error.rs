//! Typed runtime errors.
//!
//! The seed panicked on degenerate inputs (empty matrices, unknown
//! component kinds, invalid configuration values); an always-on monitor
//! has no business taking the job down, so those paths now surface a
//! [`RuntimeError`] instead. Both enums are `#[non_exhaustive]`: later PRs
//! can add variants (new backends, new ingest failure modes) without a
//! breaking release.

use crate::record::SensorKind;
use crate::service::TenantId;
use cluster_sim::time::Duration;
use std::fmt;

/// Errors produced by the dynamic module's analysis-side APIs.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A matrix operation needs at least one rank and one bin.
    EmptyMatrix {
        /// Ranks of the offending matrix.
        ranks: usize,
        /// Bins of the offending matrix.
        bins: usize,
    },
    /// A per-component lookup named a kind with no matrix.
    UnknownKind(SensorKind),
    /// A configuration value is outside its valid range.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::EmptyMatrix { ranks, bins } => {
                write!(f, "matrix is empty ({ranks} ranks x {bins} bins)")
            }
            RuntimeError::UnknownKind(kind) => {
                write!(f, "no matrix for component kind {}", kind.label())
            }
            RuntimeError::InvalidConfig { field, message } => {
                write!(f, "invalid config `{field}`: {message}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl RuntimeError {
    /// Shorthand for an [`RuntimeError::InvalidConfig`].
    pub fn invalid_config(field: &'static str, message: impl Into<String>) -> Self {
        RuntimeError::InvalidConfig {
            field,
            message: message.into(),
        }
    }
}

/// Why the server refused one ingested batch. Retryable conditions
/// (corruption) are distinguished from permanent ones (malformed, closed):
/// the transport retries the former and gives up on the latter.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum IngestError {
    /// CRC mismatch — the payload was damaged in flight. Retrying with a
    /// fresh copy can succeed.
    Corrupt {
        /// Claimed sending rank.
        rank: usize,
        /// Claimed sequence number.
        seq: u64,
    },
    /// Structurally invalid and permanently rejected (e.g. the sending
    /// rank is out of range for this run).
    Malformed {
        /// Claimed sending rank.
        rank: usize,
        /// Ranks the server was built for.
        ranks: usize,
    },
    /// The session was closed; no further batches are accepted.
    Closed,
    /// The tenant exhausted its in-flight ingest budget for the current
    /// admission window. The batch was not absorbed; resending after
    /// `retry_after` can succeed once the window rolls over.
    Backpressure {
        /// Tenant whose budget is exhausted.
        tenant: TenantId,
        /// How long until the admission window rolls over.
        retry_after: Duration,
    },
    /// The batch routed to a tenant the service does not know — never
    /// registered, or already deregistered. Typed (rather than a map
    /// lookup panic or a generic [`IngestError::Closed`]) so operators can
    /// tell a misrouted job from a finished one.
    UnknownTenant(TenantId),
}

impl IngestError {
    /// Whether resending the same data can possibly succeed. Exhaustive on
    /// purpose: a new variant must decide its retry contract here or fail
    /// to compile.
    pub fn is_retryable(&self) -> bool {
        match self {
            // Damaged in flight — a fresh copy can pass the CRC check.
            IngestError::Corrupt { .. } => true,
            // The budget window rolls over; the same bytes succeed later.
            IngestError::Backpressure { .. } => true,
            // Structurally invalid forever; resending cannot fix it.
            IngestError::Malformed { .. } => false,
            // The run is over; nothing is accepted again.
            IngestError::Closed => false,
            // No such tenant exists; resending cannot register one.
            IngestError::UnknownTenant(_) => false,
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Corrupt { rank, seq } => {
                write!(f, "batch (rank {rank}, seq {seq}) failed its CRC check")
            }
            IngestError::Malformed { rank, ranks } => {
                write!(f, "batch names rank {rank}, but the run has {ranks} ranks")
            }
            IngestError::Closed => write!(f, "the analysis session is closed"),
            IngestError::UnknownTenant(tenant) => {
                write!(f, "no tenant {tenant} is registered with the service")
            }
            IngestError::Backpressure {
                tenant,
                retry_after,
            } => {
                write!(
                    f,
                    "tenant {tenant} is over its ingest budget; retry in {} us",
                    retry_after.as_micros()
                )
            }
        }
    }
}

impl std::error::Error for IngestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RuntimeError::EmptyMatrix { ranks: 0, bins: 5 };
        assert!(e.to_string().contains("0 ranks"));
        assert!(RuntimeError::UnknownKind(SensorKind::Io)
            .to_string()
            .contains("IO"));
        assert!(RuntimeError::invalid_config("slice", "must be positive")
            .to_string()
            .contains("slice"));
    }

    #[test]
    fn retryability_matches_transport_semantics() {
        // One representative of every variant, checked through a match so
        // adding a variant without extending this test fails to compile.
        let every = [
            IngestError::Corrupt { rank: 0, seq: 1 },
            IngestError::Malformed { rank: 9, ranks: 4 },
            IngestError::Closed,
            IngestError::Backpressure {
                tenant: TenantId(3),
                retry_after: Duration::from_micros(50),
            },
            IngestError::UnknownTenant(TenantId(8)),
        ];
        for e in every {
            let expected = match &e {
                // Transient conditions the transport must retry.
                IngestError::Corrupt { .. } | IngestError::Backpressure { .. } => true,
                // Permanent rejections the transport must not resend.
                IngestError::Malformed { .. }
                | IngestError::Closed
                | IngestError::UnknownTenant(_) => false,
            };
            assert_eq!(e.is_retryable(), expected, "retry contract for {e}");
        }
    }

    #[test]
    fn backpressure_display_names_tenant_and_deadline() {
        let e = IngestError::Backpressure {
            tenant: TenantId(7),
            retry_after: Duration::from_micros(125),
        };
        let s = e.to_string();
        assert!(s.contains('7'), "{s}");
        assert!(s.contains("125"), "{s}");
    }
}
