//! # frost-telemetry
//!
//! The observability layer of the frost workspace: one zero-dependency
//! crate through which every component reports cost. It has three
//! pieces, each usable alone, plus the JSON format they share:
//!
//! * **[`trace`]** — a structured-event tracing facade: RAII spans
//!   named `crate.component.action` with start/stop timestamps, thread
//!   id, and key=value fields, collected into a bounded ring buffer.
//!   Off by default; the disabled fast path is a single relaxed atomic
//!   load, so instrumentation stays in hot code. Enabled via the
//!   `FROST_TRACE` env var ([`init_from_env`]) or programmatically
//!   ([`enable`]).
//! * **[`counters`]** — a process-wide registry of named atomic
//!   [`Counter`]s, [`Gauge`]s, and latency-bucket [`Histogram`]s.
//!   Always on (a relaxed add per update); [`snapshot`] and
//!   [`Snapshot::delta`] meter a region of work.
//! * **[`sink`]** — JSONL and human-readable renderers for drained
//!   events, an env-var-directed [`flush_env`] (`FROST_TRACE_FILE`),
//!   and [`validate_jsonl`], which checks a `telemetry.jsonl` artifact
//!   against the schema and aggregates per-span totals.
//! * **[`json`]** — the flat-object JSON Lines writer and reader behind
//!   every artifact the workspace writes: trace events, benchmark
//!   records and campaign checkpoints.
//!
//! The full telemetry contract — event schema, naming conventions,
//! env vars, overhead budget — is documented in `docs/OBSERVABILITY.md`
//! at the workspace root.
//!
//! ## Example
//!
//! ```
//! use frost_telemetry as telemetry;
//!
//! // Counters are always on.
//! let checked = telemetry::counter("docs.demo.checked");
//! checked.add(10);
//!
//! // Tracing is opt-in.
//! telemetry::enable(telemetry::TraceFormat::Jsonl);
//! telemetry::drain(); // discard anything recorded earlier
//! {
//!     let _span = telemetry::span("docs.demo.step").field("items", 10u64);
//!     // ... the work being measured ...
//! }
//! let events = telemetry::drain();
//! telemetry::disable();
//!
//! // Render and validate the JSONL artifact.
//! let jsonl = telemetry::render_jsonl(&events);
//! let stats = telemetry::validate_jsonl(&jsonl).unwrap();
//! assert_eq!(stats.stops, 1);
//! assert_eq!(stats.unmatched, 0);
//! assert!(checked.get() >= 10);
//! ```

#![warn(missing_docs)]

pub mod counters;
pub mod json;
pub mod sink;
pub mod trace;

pub use counters::{
    counter, gauge, histogram, reset_metrics, snapshot, Counter, Gauge, Histogram,
    HistogramSummary, Snapshot,
};
pub use sink::{
    flush_env, render_human, render_jsonl, validate_jsonl, write_events, JsonlStats, SpanStats,
};
pub use trace::{
    disable, drain, dropped_events, enable, enabled, init_from_env, now_ns, point, set_capacity,
    span, thread_id, FieldValue, Point, Span, TraceEvent, TraceEventKind, TraceFormat,
};
