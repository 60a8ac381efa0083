//! pwf-obs: zero-dependency observability for the practically-wait-free
//! workspace.
//!
//! Three layers, all mergeable after the fact so measurement stays off
//! the hot path (the paper's Appendix A perturbation argument):
//!
//! - [`ring`]: per-thread fixed-capacity event recorders ordered by a
//!   global fetch-and-increment ticket. Feature-gated (`obs`, default
//!   on); with the feature off they are zero-sized no-ops.
//! - [`hist`] / [`summary`] / [`metrics`]: log2-bucketed histograms
//!   with p50/p90/p99/p999 quantiles, counters, and gauges behind a
//!   [`Metrics`] registry. Always compiled — only touched at
//!   aggregation points.
//! - [`perfetto`]: Chrome trace-event JSON export, loadable in
//!   Perfetto or `chrome://tracing`.
//! - [`json`]: the workspace's one JSON value type, writer (indented
//!   or single-line) and parser. Every crate that writes or reads JSON
//!   uses it, so escaping, number spelling and non-finite handling are
//!   decided once.
//! - [`watchdog`] / [`flight`]: the verdict layer — a streaming tail
//!   watchdog armed with the theory's quantile envelope, and a flight
//!   recorder that snapshots rings + metrics into a replayable dump
//!   when it trips.
//!
//! [`ObsHandle`] bundles an optional metrics registry and trace
//! collector into one cheap cloneable session handle that threads
//! through configs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod flight;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod ring;
pub mod summary;
pub mod watchdog;

pub use event::{Event, EventKind};
pub use flight::{FlightDump, DEFAULT_KEEP_PER_THREAD};
pub use hist::Histogram;
pub use metrics::{Metrics, MetricsSnapshot};
pub use perfetto::trace_json;
pub use ring::{ThreadRecorder, TraceCollector, DEFAULT_RING_CAPACITY};
pub use summary::LatencySummary;
pub use watchdog::{
    EnvelopeVerdict, Offender, TailEnvelope, Watchdog, WatchdogReport, DEFAULT_BUDGET,
    DEFAULT_MAX_OFFENDERS,
};

use std::sync::Arc;

/// An observability session handle: optional metrics plus optional
/// tracing, cheap to clone and thread through experiment configs.
///
/// The default handle has both disabled; every consumer treats a
/// disabled handle as "do nothing", so configs gain observability
/// without changing any call site that doesn't care.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    metrics: Option<Arc<Metrics>>,
    trace: Option<Arc<TraceCollector>>,
}

impl ObsHandle {
    /// A handle with everything off (same as `Default`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A handle collecting metrics, and — when `trace_capacity` is
    /// `Some` — events into per-thread rings of that capacity.
    pub fn collecting(trace_capacity: Option<usize>) -> Self {
        ObsHandle {
            metrics: Some(Arc::new(Metrics::new())),
            trace: trace_capacity.map(TraceCollector::new),
        }
    }

    /// The metrics registry, if metrics collection is on.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.metrics.as_ref()
    }

    /// The trace collector, if event tracing is on.
    pub fn trace(&self) -> Option<&Arc<TraceCollector>> {
        self.trace.as_ref()
    }

    /// Whether any collection is enabled.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_some() || self.trace.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_has_nothing() {
        let h = ObsHandle::disabled();
        assert!(!h.is_enabled());
        assert!(h.metrics().is_none());
        assert!(h.trace().is_none());
    }

    #[test]
    fn collecting_handle_wires_both_layers() {
        let h = ObsHandle::collecting(Some(64));
        assert!(h.is_enabled());
        h.metrics().unwrap().counter_add("ops", 1);
        let mut rec = h.trace().unwrap().recorder(0);
        rec.record(EventKind::Complete, 5, 0);
        rec.finish();
        assert_eq!(h.metrics().unwrap().snapshot().counters[0].1, 1);
        // Clones share the same collectors.
        let clone = h.clone();
        clone.metrics().unwrap().counter_add("ops", 2);
        assert_eq!(h.metrics().unwrap().snapshot().counters[0].1, 3);
    }

    #[test]
    fn metrics_only_handle_skips_tracing() {
        let h = ObsHandle::collecting(None);
        assert!(h.is_enabled());
        assert!(h.trace().is_none());
    }
}
