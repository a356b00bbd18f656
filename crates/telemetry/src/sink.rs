//! Sinks and the JSONL wire format: render drained [`TraceEvent`]s as
//! JSONL or human-readable text, write them where `FROST_TRACE_FILE`
//! points, and validate/aggregate a `telemetry.jsonl` artifact.
//!
//! ## JSONL schema (the telemetry contract)
//!
//! One JSON object per line. Reserved keys, always present:
//!
//! * `ev` — `"start"`, `"stop"`, or `"point"`;
//! * `span` — process-unique span id (0 for points);
//! * `name` — span name (`crate.component.action`);
//! * `tid` — small integer thread id;
//! * `ts_ns` — nanoseconds since the process trace epoch.
//!
//! Stop events, and only stop events, carry `dur_ns`. User fields are
//! flattened into the same object and must avoid the reserved keys.
//! Lines are written and read through [`crate::json`]. See
//! `docs/OBSERVABILITY.md` for the full contract.
//!
//! Benchmark records are the one non-event shape the validator
//! accepts: a line carrying `"kind":"bench"` plus a string
//! `experiment` key (e.g. the `BENCH_sweep.json` artifact `repro
//! --experiment sweep --bench-json` writes); its remaining fields are
//! experiment-defined and pass through unvalidated.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};

use crate::json::{self, Value, Writer};
use crate::trace::{drain, enabled, TraceEvent, TraceFormat};

/// Renders events as JSONL, one event per line.
pub fn render_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        let mut w = Writer::new(&mut out);
        w.field("ev", ev.kind.as_str())
            .field("span", ev.span)
            .field("name", ev.name)
            .field("tid", ev.tid)
            .field("ts_ns", ev.ts_ns);
        if let Some(d) = ev.dur_ns {
            w.field("dur_ns", d);
        }
        for (k, v) in &ev.fields {
            w.field(k, v);
        }
        w.finish();
    }
    out
}

/// Renders events as human-readable lines (`ts tid kind name dur
/// fields…`).
pub fn render_human(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let _ = write!(
            out,
            "[{:>12.6}s] t{:<3} {:<5} {:<28}",
            ev.ts_ns as f64 / 1e9,
            ev.tid,
            ev.kind.as_str(),
            ev.name
        );
        if let Some(d) = ev.dur_ns {
            let _ = write!(out, " {:>10.3}us", d as f64 / 1e3);
        }
        for (k, v) in &ev.fields {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    out
}

/// Writes events to `w` in the given format.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_events(
    w: &mut impl Write,
    events: &[TraceEvent],
    format: TraceFormat,
) -> io::Result<()> {
    let text = match format {
        TraceFormat::Jsonl => render_jsonl(events),
        TraceFormat::Human => render_human(events),
    };
    w.write_all(text.as_bytes())
}

/// Drains the collector and writes everything to the env-selected
/// destination: the path in `FROST_TRACE_FILE` if set, else stderr.
/// The format is whatever [`crate::trace::enable`]/
/// [`crate::trace::init_from_env`] selected. Returns the number of
/// events written (0 without touching anything when tracing was never
/// enabled and the buffer is empty).
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn flush_env() -> io::Result<usize> {
    let events = drain();
    if events.is_empty() && !enabled() {
        return Ok(0);
    }
    let format = crate::trace::format();
    match std::env::var("FROST_TRACE_FILE")
        .ok()
        .filter(|p| !p.is_empty())
    {
        Some(path) => {
            let mut f = std::fs::File::create(path)?;
            write_events(&mut f, &events, format)?;
        }
        None => {
            let stderr = io::stderr();
            write_events(&mut stderr.lock(), &events, format)?;
        }
    }
    Ok(events.len())
}

/// Per-key aggregate over the stop events of a trace (the raw material
/// of a profile table).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Spans completed.
    pub count: u64,
    /// Summed `dur_ns`.
    pub total_ns: u64,
    /// Largest single `dur_ns`.
    pub max_ns: u64,
}

/// The result of validating a `telemetry.jsonl` artifact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JsonlStats {
    /// Non-empty lines parsed.
    pub lines: usize,
    /// Start events.
    pub starts: usize,
    /// Stop events.
    pub stops: usize,
    /// Point events.
    pub points: usize,
    /// Benchmark records (`"kind":"bench"` lines).
    pub bench: usize,
    /// Stop events whose span id had no start, plus starts never
    /// stopped.
    pub unmatched: usize,
    /// Stop-event aggregates keyed by span name — refined to
    /// `name[pass]` when the event carries a `pass` field, so per-pass
    /// profiles fall out of the generic schema.
    pub by_key: BTreeMap<String, SpanStats>,
}

/// Parses and validates a `telemetry.jsonl` artifact against the event
/// schema: every non-empty line must be a flat JSON object carrying the
/// reserved keys (`ev`/`span`/`name`/`tid`/`ts_ns`, and `dur_ns` on
/// stops only), and every stop must pair with a start. Lines carrying
/// `"kind":"bench"` are benchmark records instead: they need only a
/// string `experiment` key and are tallied in [`JsonlStats::bench`].
/// Returns aggregate [`JsonlStats`] on success.
///
/// ```
/// use frost_telemetry::validate_jsonl;
/// let text = "{\"ev\":\"start\",\"span\":1,\"name\":\"a.b.c\",\"tid\":1,\"ts_ns\":5}\n\
///             {\"ev\":\"stop\",\"span\":1,\"name\":\"a.b.c\",\"tid\":1,\"ts_ns\":9,\"dur_ns\":4}\n";
/// let stats = validate_jsonl(text).unwrap();
/// assert_eq!(stats.stops, 1);
/// assert_eq!(stats.unmatched, 0);
/// assert_eq!(stats.by_key["a.b.c"].total_ns, 4);
/// ```
///
/// # Errors
///
/// Returns a message naming the first offending line and why it is
/// malformed.
pub fn validate_jsonl(text: &str) -> Result<JsonlStats, String> {
    let mut stats = JsonlStats::default();
    let mut open_spans: BTreeMap<u64, String> = BTreeMap::new();
    for obj in json::parse_lines(text) {
        let obj = obj?;
        stats.lines += 1;
        if let Some(Value::Str(kind)) = obj.get("kind") {
            if kind != "bench" {
                return Err(obj.error(format!("unknown kind '{kind}'")));
            }
            // Workers never outnumber a sweep's chunks; a pulled chunk had one.
            if obj.str("experiment")? == "sweep" && obj.get("workers").is_some() {
                let (workers, chunks) = (obj.u64("workers")?, obj.u64("chunks")?);
                if workers > chunks || workers == 0 && chunks > 0 {
                    return Err(obj.error(format!("{workers} workers for {chunks} chunks")));
                }
            }
            stats.bench += 1;
            continue;
        }
        let ev = obj.str("ev")?;
        let name = obj.str("name")?;
        let span = obj.num("span")? as u64;
        obj.num("tid")?;
        obj.num("ts_ns")?;
        match ev {
            "start" | "point" if obj.get("dur_ns").is_some() => {
                return Err(obj.error(format!("'dur_ns' on a {ev} event")));
            }
            "start" => {
                stats.starts += 1;
                open_spans.insert(span, name.to_string());
            }
            "stop" => {
                stats.stops += 1;
                let dur = obj.num("dur_ns")? as u64;
                if open_spans.remove(&span).is_none() {
                    stats.unmatched += 1;
                }
                let key = match obj.get("pass") {
                    Some(Value::Str(p)) => format!("{name}[{p}]"),
                    _ => name.to_string(),
                };
                let agg = stats.by_key.entry(key).or_default();
                agg.count += 1;
                agg.total_ns = agg.total_ns.saturating_add(dur);
                agg.max_ns = agg.max_ns.max(dur);
            }
            "point" => stats.points += 1,
            other => return Err(obj.error(format!("unknown ev '{other}'"))),
        }
    }
    stats.unmatched += open_spans.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FieldValue, TraceEventKind};

    fn ev(
        kind: TraceEventKind,
        span: u64,
        name: &'static str,
        ts: u64,
        dur: Option<u64>,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> TraceEvent {
        TraceEvent {
            kind,
            span,
            name,
            tid: 1,
            ts_ns: ts,
            dur_ns: dur,
            fields,
        }
    }

    #[test]
    fn jsonl_round_trips_through_the_validator() {
        let events = vec![
            ev(TraceEventKind::Start, 1, "opt.pass.run", 10, None, vec![]),
            ev(
                TraceEventKind::Stop,
                1,
                "opt.pass.run",
                30,
                Some(20),
                vec![
                    ("pass", FieldValue::Str("inst\"combine".into())),
                    ("changed", FieldValue::Bool(true)),
                    ("insts_before", FieldValue::U64(12)),
                    ("ratio", FieldValue::F64(0.25)),
                    ("delta", FieldValue::I64(-4)),
                    ("inf", FieldValue::F64(f64::INFINITY)),
                ],
            ),
            ev(
                TraceEventKind::Point,
                0,
                "backend.sim.block",
                40,
                None,
                vec![("cycles", FieldValue::U64(99))],
            ),
        ];
        let text = render_jsonl(&events);
        assert_eq!(
            text,
            "{\"ev\":\"start\",\"span\":1,\"name\":\"opt.pass.run\",\"tid\":1,\"ts_ns\":10}\n\
             {\"ev\":\"stop\",\"span\":1,\"name\":\"opt.pass.run\",\"tid\":1,\"ts_ns\":30,\
             \"dur_ns\":20,\"pass\":\"inst\\\"combine\",\"changed\":true,\"insts_before\":12,\
             \"ratio\":0.25,\"delta\":-4,\"inf\":null}\n\
             {\"ev\":\"point\",\"span\":0,\"name\":\"backend.sim.block\",\"tid\":1,\"ts_ns\":40,\
             \"cycles\":99}\n",
            "the trace bytes are part of the telemetry contract"
        );
        let stats = validate_jsonl(&text).expect("round trip validates");
        assert_eq!(stats.lines, 3);
        assert_eq!(stats.starts, 1);
        assert_eq!(stats.stops, 1);
        assert_eq!(stats.points, 1);
        assert_eq!(stats.unmatched, 0);
        let agg = &stats.by_key["opt.pass.run[inst\"combine]"];
        assert_eq!(agg.count, 1);
        assert_eq!(agg.total_ns, 20);
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_jsonl("not json\n").is_err());
        assert!(
            validate_jsonl("{\"ev\":\"stop\"}\n").is_err(),
            "missing keys"
        );
        assert!(
            validate_jsonl(
                "{\"ev\":\"start\",\"span\":1,\"name\":\"x\",\"tid\":1,\"ts_ns\":0} tail\n"
            )
            .is_err(),
            "trailing garbage"
        );
        // `dur_ns` belongs on stop events and only there.
        for line in [
            "{\"ev\":\"start\",\"span\":1,\"name\":\"x\",\"tid\":1,\"ts_ns\":0,\"dur_ns\":3}\n",
            "{\"ev\":\"point\",\"span\":0,\"name\":\"x\",\"tid\":1,\"ts_ns\":0,\"dur_ns\":3}\n",
            "{\"ev\":\"stop\",\"span\":1,\"name\":\"x\",\"tid\":1,\"ts_ns\":0}\n",
        ] {
            assert!(
                validate_jsonl(line).unwrap_err().contains("dur_ns"),
                "{line}"
            );
        }
    }

    #[test]
    fn validator_accepts_bench_records_and_rejects_other_kinds() {
        let text = "{\"ev\":\"point\",\"span\":0,\"name\":\"a.b.c\",\"tid\":1,\"ts_ns\":5}\n\
                    {\"kind\":\"bench\",\"experiment\":\"sweep\",\"insts\":3,\
                     \"space\":\"23270607245376\",\"fns_per_sec\":135000.0,\"complete\":false}\n";
        let stats = validate_jsonl(text).unwrap();
        assert_eq!(stats.lines, 2);
        assert_eq!(stats.bench, 1);
        assert_eq!(stats.points, 1);
        assert!(
            validate_jsonl("{\"kind\":\"bench\"}\n").is_err(),
            "bench records must name their experiment"
        );
        assert!(
            validate_jsonl("{\"kind\":\"checkpoint\",\"experiment\":\"x\"}\n").is_err(),
            "only bench records are exempt from the event schema"
        );
    }

    #[test]
    fn validator_checks_a_sweep_pool_against_its_chunks() {
        let record = |fields: &str| {
            validate_jsonl(&format!(
                "{{\"kind\":\"bench\",\"experiment\":\"sweep\",{fields}}}\n"
            ))
        };
        for ok in [
            "\"workers\":1,\"chunks\":1",
            "\"workers\":2,\"chunks\":93",
            "\"workers\":0,\"chunks\":0",
        ] {
            assert!(record(ok).is_ok(), "{ok}");
        }
        for bad in [
            "\"workers\":2,\"chunks\":1",
            "\"workers\":0,\"chunks\":4",
            "\"workers\":1,\"chunks\":0",
            "\"workers\":1",
        ] {
            assert!(record(bad).is_err(), "{bad}");
        }
        assert!(
            validate_jsonl("{\"kind\":\"bench\",\"experiment\":\"fig6\",\"workers\":0}\n").is_ok(),
            "only sweep records carry a pool"
        );
    }

    #[test]
    fn validator_counts_unmatched_spans() {
        let text =
            "{\"ev\":\"stop\",\"span\":9,\"name\":\"x\",\"tid\":1,\"ts_ns\":1,\"dur_ns\":1}\n\
                    {\"ev\":\"start\",\"span\":10,\"name\":\"y\",\"tid\":1,\"ts_ns\":2}\n";
        let stats = validate_jsonl(text).unwrap();
        assert_eq!(stats.unmatched, 2, "orphan stop + dangling start");
    }

    #[test]
    fn human_rendering_mentions_fields() {
        let events = vec![ev(
            TraceEventKind::Stop,
            3,
            "fuzz.campaign.shard",
            1_500,
            Some(500),
            vec![("shard", FieldValue::U64(4))],
        )];
        let h = render_human(&events);
        assert!(h.contains("fuzz.campaign.shard"));
        assert!(h.contains("shard=4"));
        assert!(h.contains("stop"));
    }
}
