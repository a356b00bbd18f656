//! Durable campaign checkpoints: the state a killed exhaustive sweep
//! needs to continue exactly where it stopped.
//!
//! A [`CampaignCheckpoint`] captures:
//!
//! * the **swept space** — `config`, the `Debug` form of the
//!   [`GenConfig`], so [`CampaignCheckpoint::resume`] and
//!   [`CampaignCheckpoint::merge`] refuse to continue or combine
//!   sweeps of different spaces;
//! * the **generator cursor** — the odometer indices, counter and done
//!   flag of [`ExhaustiveFunctions`], so a resumed sweep regenerates
//!   the *next* unchecked function (function names `fz{counter}` stay
//!   stable across restarts);
//! * the **shard identity** — which residue class of a `K`-process
//!   campaign this checkpoint belongs to, so a resume under another
//!   shard and a merge of mismatched or incomplete shard sets are
//!   refused;
//! * the **cumulative verdicts** — tallies plus every [`Violation`]
//!   found so far, so the final report of an interrupted and resumed
//!   sweep is byte-identical to an uninterrupted one.
//!
//! ## JSONL schema (the checkpoint contract, version 3)
//!
//! One flat JSON object per line, written and read through
//! [`frost_telemetry::json`] and discriminated by `"kind"`:
//!
//! * line 1 — the header: `kind:"checkpoint"`, `version:3`, `config`,
//!   the cursor (`cursor`/`counter`/`done`; `counter` is a decimal
//!   string, since a JSON number cannot hold every `u64`), the shard
//!   identity (`shards`/`shard_id`), the tallies
//!   (`total`/`changed`/`refined`/`inconclusive`), and the number of
//!   violation lines that follow (`violations`);
//! * `kind:"violation"` — one per recorded violation, carrying
//!   `index`/`before`/`after`/`counterexample`.
//!
//! Versions 1 and 2, which also carried a structural dedup set, are
//! refused with an error. [`CampaignCheckpoint::from_jsonl`] requires
//! every line to carry its kind's keys and the violation count to match
//! the header; errors name the first offending line.

use std::io;
use std::path::Path;

use frost_telemetry::json::{self, Writer};

use crate::gen::{ExhaustiveFunctions, GenConfig};
use crate::validate::Violation;

/// The checkpoint format this build writes and reads.
const VERSION: u64 = 3;

/// The resumable state of an exhaustive validation sweep. Produced by
/// `Campaign::run_exhaustive`, serialized with
/// [`save_jsonl`](CampaignCheckpoint::save_jsonl), restored with
/// [`load_jsonl`](CampaignCheckpoint::load_jsonl) and passed back as
/// the `resume` argument. Per-shard checkpoints of a multi-process
/// campaign combine with [`CampaignCheckpoint::merge`].
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignCheckpoint {
    /// The `Debug` form of the [`GenConfig`] being swept.
    pub config: String,
    /// Odometer indices of the next function to generate.
    pub cursor: Vec<usize>,
    /// Generator counter of the next function (`fz{counter}`).
    pub counter: u64,
    /// `true` once the space is exhausted — resuming yields nothing.
    pub done: bool,
    /// Process-shard count of the campaign that wrote this checkpoint
    /// (`1` for a whole-space sweep).
    pub shards: usize,
    /// Which residue class (`position % shards`) this checkpoint
    /// covers.
    pub shard_id: usize,
    /// Functions checked so far.
    pub total: usize,
    /// Functions the transform changed, so far.
    pub changed: usize,
    /// Refinements verified, so far.
    pub refined: usize,
    /// Inconclusive checks, so far.
    pub inconclusive: usize,
    /// Every violation found so far, sorted by corpus index.
    pub violations: Vec<Violation>,
}

impl Default for CampaignCheckpoint {
    fn default() -> CampaignCheckpoint {
        CampaignCheckpoint {
            config: String::new(),
            cursor: Vec::new(),
            counter: 0,
            done: false,
            shards: 1,
            shard_id: 0,
            total: 0,
            changed: 0,
            refined: 0,
            inconclusive: 0,
            violations: Vec::new(),
        }
    }
}

impl CampaignCheckpoint {
    /// Renders the checkpoint as JSONL: the header, then one line per
    /// violation.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        Writer::new(&mut out)
            .field("kind", "checkpoint")
            .field("version", VERSION)
            .field("config", &self.config)
            .array("cursor", &self.cursor)
            .field("counter", self.counter.to_string())
            .field("done", self.done)
            .field("shards", self.shards)
            .field("shard_id", self.shard_id)
            .field("total", self.total)
            .field("changed", self.changed)
            .field("refined", self.refined)
            .field("inconclusive", self.inconclusive)
            .field("violations", self.violations.len())
            .finish();
        for v in &self.violations {
            Writer::new(&mut out)
                .field("kind", "violation")
                .field("index", v.index)
                .field("before", &v.before)
                .field("after", &v.after)
                .field("counterexample", &v.counterexample)
                .finish();
        }
        out
    }

    /// Parses and validates a checkpoint artifact.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending line and why it is
    /// malformed: bad JSON, a missing or mistyped key, an unknown
    /// `kind` or version, or a violation count that disagrees with the
    /// header.
    pub fn from_jsonl(text: &str) -> Result<CampaignCheckpoint, String> {
        // The header's checkpoint and the violation count it promises.
        let mut header: Option<(CampaignCheckpoint, usize)> = None;
        for obj in json::parse_lines(text) {
            let obj = obj?;
            match obj.str("kind")? {
                "checkpoint" => {
                    if header.is_some() {
                        return Err(obj.error("duplicate header"));
                    }
                    let version = obj.u64("version")?;
                    if version != VERSION {
                        return Err(obj.error(format!(
                            "unsupported checkpoint version {version} (this build reads \
                             version {VERSION}; rerun the sweep)"
                        )));
                    }
                    let cp = CampaignCheckpoint {
                        config: obj.str("config")?.to_string(),
                        cursor: obj
                            .array("cursor")?
                            .iter()
                            .map(|v| v.as_u64().map(|ix| ix as usize))
                            .collect::<Option<_>>()
                            .ok_or_else(|| obj.error("cursor entries must be u64s"))?,
                        counter: obj.u64("counter")?,
                        done: obj.bool("done")?,
                        shards: obj.u64("shards")? as usize,
                        shard_id: obj.u64("shard_id")? as usize,
                        total: obj.u64("total")? as usize,
                        changed: obj.u64("changed")? as usize,
                        refined: obj.u64("refined")? as usize,
                        inconclusive: obj.u64("inconclusive")? as usize,
                        violations: Vec::new(),
                    };
                    if cp.shards == 0 || cp.shard_id >= cp.shards {
                        return Err(
                            obj.error(format!("shard {}/{} out of range", cp.shard_id, cp.shards))
                        );
                    }
                    header = Some((cp, obj.u64("violations")? as usize));
                }
                "violation" => {
                    let Some((cp, _)) = &mut header else {
                        return Err(obj.error("violation before header"));
                    };
                    cp.violations.push(Violation {
                        index: obj.u64("index")? as usize,
                        before: obj.str("before")?.to_string(),
                        after: obj.str("after")?.to_string(),
                        counterexample: obj.str("counterexample")?.to_string(),
                    });
                }
                other => return Err(obj.error(format!("unknown kind '{other}'"))),
            }
        }
        let (cp, want) = header.ok_or("missing checkpoint header")?;
        if cp.violations.len() != want {
            return Err(format!(
                "header promises {want} violations, found {}",
                cp.violations.len()
            ));
        }
        Ok(cp)
    }

    /// Writes the checkpoint to `path` (atomically: a temp file in the
    /// same directory, then rename), so a kill mid-save leaves either
    /// the old checkpoint or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_jsonl())?;
        std::fs::rename(&tmp, path)
    }

    /// Reads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; validation failures surface as
    /// [`io::ErrorKind::InvalidData`] with the offending line in the
    /// message.
    pub fn load_jsonl(path: impl AsRef<Path>) -> io::Result<CampaignCheckpoint> {
        let text = std::fs::read_to_string(path)?;
        CampaignCheckpoint::from_jsonl(&text).map_err(io::Error::other)
    }

    /// Rebuilds the generator of a sweep of `cfg` at this checkpoint's
    /// cursor, for the process shard `(shard_id, shards)`.
    ///
    /// # Errors
    ///
    /// Names the mismatch when the checkpoint belongs to another
    /// sweep: it was written for a different `cfg` or shard, or its
    /// cursor does not fit `cfg`'s space.
    pub fn resume(
        &self,
        cfg: &GenConfig,
        (shard_id, shards): (usize, usize),
    ) -> Result<ExhaustiveFunctions, String> {
        let config = format!("{cfg:?}");
        if self.config != config {
            return Err(format!(
                "checkpoint was written for config {}, not {config}",
                self.config
            ));
        }
        if (self.shard_id, self.shards) != (shard_id, shards) {
            return Err(format!(
                "checkpoint belongs to shard {}/{}, not {shard_id}/{shards}",
                self.shard_id, self.shards
            ));
        }
        ExhaustiveFunctions::resume(cfg.clone(), &self.cursor, self.counter, self.done)
            .map_err(|e| format!("checkpoint cursor does not fit its config: {e}"))
    }

    /// Merges the per-shard checkpoints of a `K`-process campaign into
    /// one whole-space summary: tallies sum, violations concatenate
    /// and re-sort by corpus index, and the cursor comes from the
    /// furthest-advanced part. The result is marked `shards: 1,
    /// shard_id: 0` and is `done` only when every shard is — a finished
    /// merge is byte-identical to the checkpoint of a single-process
    /// sweep of the same space.
    ///
    /// The order of `parts` does not matter.
    ///
    /// # Errors
    ///
    /// Returns a message when `parts` is not a complete, consistent
    /// shard set: empty input, parts of different configs, disagreeing
    /// `shards` values, a part whose `shards` does not match the part
    /// count, or shard ids that are not exactly `{0, …, K-1}`.
    pub fn merge(parts: &[CampaignCheckpoint]) -> Result<CampaignCheckpoint, String> {
        let k = parts.len();
        let Some(first) = parts.first() else {
            return Err("cannot merge zero checkpoints".into());
        };
        let mut present = vec![false; k];
        for p in parts {
            if p.config != first.config {
                return Err(format!(
                    "checkpoints of different configs cannot merge: {} and {}",
                    first.config, p.config
                ));
            }
            if p.shards != k {
                return Err(format!(
                    "checkpoint for shard {}/{} merged with {k} part(s)",
                    p.shard_id, p.shards
                ));
            }
            if p.shard_id >= k {
                return Err(format!("shard id {} out of range 0..{k}", p.shard_id));
            }
            if present[p.shard_id] {
                return Err(format!("duplicate checkpoint for shard {}", p.shard_id));
            }
            present[p.shard_id] = true;
        }
        // All ids in range, none duplicated, count matches: the set is
        // exactly {0, …, K-1}.
        let furthest = parts
            .iter()
            .max_by_key(|p| p.counter)
            .expect("parts is non-empty");
        let mut merged = CampaignCheckpoint {
            config: first.config.clone(),
            cursor: furthest.cursor.clone(),
            counter: furthest.counter,
            done: parts.iter().all(|p| p.done),
            ..CampaignCheckpoint::default()
        };
        for p in parts {
            merged.total += p.total;
            merged.changed += p.changed;
            merged.refined += p.refined;
            merged.inconclusive += p.inconclusive;
            merged.violations.extend(p.violations.iter().cloned());
        }
        merged.violations.sort_by_key(|v| v.index);
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_rng::SmallRng;
    use frost_telemetry::{FieldValue, TraceEvent, TraceEventKind};

    fn sample_cfg() -> GenConfig {
        GenConfig::arithmetic(3)
    }

    fn sample() -> CampaignCheckpoint {
        let mut walk = ExhaustiveFunctions::new(sample_cfg());
        walk.nth(99);
        let (cursor, _, done) = walk.cursor();
        CampaignCheckpoint {
            config: format!("{:?}", sample_cfg()),
            cursor,
            counter: u64::MAX - 7,
            done,
            shards: 4,
            shard_id: 2,
            total: 99,
            changed: 40,
            refined: 96,
            inconclusive: 1,
            violations: vec![
                Violation {
                    index: 41,
                    before: "define i2 @fz41() {\n  \"quoted\" \\ tab\t\n}".into(),
                    after: "define i2 @fz41() {}".into(),
                    counterexample: "args (0, poison): src ret 1, tgt UB".into(),
                },
                Violation {
                    index: 73,
                    before: "define i2 @fz73(i2 %a) {\n  ret i2 %a\n}".into(),
                    after: "define i2 @fz73(i2 %a) {\n  ret i2 0\n}".into(),
                    counterexample: "args (1, 0): src ret 1, tgt ret 0 — ünïcode".into(),
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let cp = sample();
        let text = cp.to_jsonl();
        let back = CampaignCheckpoint::from_jsonl(&text).expect("round trip validates");
        assert_eq!(back, cp);
        // A u64 counter survives even above 2^53 (carried as a string).
        assert_eq!(back.counter, u64::MAX - 7);
        assert_eq!((back.shards, back.shard_id), (4, 2));
        assert!(text.contains("\"done\":false"), "scripts grep for this");
    }

    #[test]
    fn save_and_load_through_a_file() {
        let dir = std::env::temp_dir().join("frost-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.jsonl");
        let cp = sample();
        cp.save_jsonl(&path).unwrap();
        assert_eq!(CampaignCheckpoint::load_jsonl(&path).unwrap(), cp);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validator_rejects_malformed_artifacts() {
        assert!(CampaignCheckpoint::from_jsonl("").is_err(), "no header");
        assert!(
            CampaignCheckpoint::from_jsonl("not json\n").is_err(),
            "bad line"
        );
        let body = "{\"kind\":\"violation\",\"index\":1,\"before\":\"\",\"after\":\"\",\
                    \"counterexample\":\"\"}\n";
        assert!(
            CampaignCheckpoint::from_jsonl(body).is_err(),
            "body before header"
        );
        let mut text = sample().to_jsonl();
        text.push_str(body);
        assert!(
            CampaignCheckpoint::from_jsonl(&text)
                .unwrap_err()
                .contains("violations"),
            "count mismatch is caught"
        );
        let trailing = sample()
            .to_jsonl()
            .replace("\"done\":false", "\"done\":false} x");
        assert!(CampaignCheckpoint::from_jsonl(&trailing)
            .unwrap_err()
            .starts_with("line 1: "));
        let deep = sample().to_jsonl().replace(
            "\"cursor\":[",
            &format!("\"cursor\":{}", "[".repeat(200_000)),
        );
        assert!(CampaignCheckpoint::from_jsonl(&deep).is_err(), "nesting");
    }

    #[test]
    fn unknown_kinds_and_versions_are_rejected() {
        let base = sample().to_jsonl();
        for version in [1, 2, 9] {
            let other = base.replace("\"version\":3", &format!("\"version\":{version}"));
            assert!(CampaignCheckpoint::from_jsonl(&other)
                .unwrap_err()
                .contains("version"));
        }
        let mut text = base;
        text.push_str("{\"kind\":\"mystery\"}\n");
        assert!(CampaignCheckpoint::from_jsonl(&text)
            .unwrap_err()
            .contains("unknown kind"));
    }

    fn refusal(cp: &CampaignCheckpoint, cfg: &GenConfig, shard: (usize, usize)) -> String {
        cp.resume(cfg, shard).err().expect("resume must refuse")
    }

    #[test]
    fn resume_refuses_another_config() {
        let cp = sample();
        assert!(cp.resume(&sample_cfg(), (2, 4)).is_ok());
        for other in [
            GenConfig::arithmetic(2),
            GenConfig::guards(3),
            sample_cfg().with_pruning(crate::Pruning::FULL),
        ] {
            let err = refusal(&cp, &other, (2, 4));
            assert!(err.contains("config"), "{err}");
        }
    }

    #[test]
    fn resume_refuses_another_shard() {
        let cp = sample();
        for shard in [(0, 1), (1, 4), (2, 3)] {
            let err = refusal(&cp, &sample_cfg(), shard);
            assert!(err.contains("shard 2/4"), "{err}");
        }
    }

    #[test]
    fn resume_refuses_a_cursor_outside_the_space() {
        for cursor in [vec![0, 0], vec![0, 0, usize::MAX]] {
            let cp = CampaignCheckpoint { cursor, ..sample() };
            let err = refusal(&cp, &sample_cfg(), (2, 4));
            assert!(err.contains("cursor"), "{err}");
        }
    }

    #[test]
    fn mutated_artifacts_are_errors_not_panics() {
        let checkpoint = sample().to_jsonl();
        let event = |kind, span, ts_ns, dur_ns, fields| TraceEvent {
            kind,
            span,
            name: "fuzz.campaign.shard",
            tid: 1,
            ts_ns,
            dur_ns,
            fields,
        };
        let trace = frost_telemetry::render_jsonl(&[
            event(TraceEventKind::Start, 1, 5, None, vec![]),
            event(
                TraceEventKind::Stop,
                1,
                9,
                Some(4),
                vec![
                    ("pass", FieldValue::Str("inst\"combine\n".into())),
                    ("ratio", FieldValue::F64(0.5)),
                ],
            ),
            event(
                TraceEventKind::Point,
                0,
                12,
                None,
                vec![("cycles", FieldValue::U64(99))],
            ),
        ]);
        let artifacts = [checkpoint.as_bytes(), trace.as_bytes()];
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let mut outcomes = [0usize; 2];
        for _ in 0..4000 {
            let mut bytes = artifacts[rng.gen_range(0..2)].to_vec();
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..3) {
                0 => bytes.truncate(at),
                1 => bytes[at] ^= rng.gen_range(1..256) as u8,
                _ => {
                    let other = artifacts[rng.gen_range(0..2)];
                    bytes.truncate(at);
                    bytes.extend_from_slice(&other[rng.gen_range(0..other.len())..]);
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let cp = CampaignCheckpoint::from_jsonl(&text)
                .and_then(|cp| cp.resume(&sample_cfg(), (cp.shard_id, cp.shards)));
            let trace = frost_telemetry::validate_jsonl(&text);
            outcomes[usize::from(cp.is_ok())] += 1;
            outcomes[usize::from(trace.is_ok())] += 1;
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "mutants must reach both verdicts: {outcomes:?} (Err, Ok)"
        );
    }

    fn shard_part(shards: usize, shard_id: usize) -> CampaignCheckpoint {
        CampaignCheckpoint {
            config: "cfg".into(),
            cursor: vec![shard_id],
            counter: 10 + shard_id as u64,
            done: true,
            shards,
            shard_id,
            total: 5,
            changed: 2,
            refined: 4,
            inconclusive: 1,
            violations: vec![Violation {
                index: 100 - shard_id,
                before: String::new(),
                after: String::new(),
                counterexample: String::new(),
            }],
        }
    }

    #[test]
    fn merge_sums_sorts_and_unions() {
        let parts = [shard_part(2, 1), shard_part(2, 0)];
        let m = CampaignCheckpoint::merge(&parts).expect("complete shard set");
        assert_eq!((m.shards, m.shard_id), (1, 0));
        assert_eq!(m.config, "cfg");
        assert!(m.done);
        assert_eq!(m.total, 10);
        assert_eq!(m.changed, 4);
        // The violation union is re-sorted by corpus index regardless
        // of part order.
        let idx: Vec<usize> = m.violations.iter().map(|v| v.index).collect();
        assert_eq!(idx, vec![99, 100]);
        // Cursor comes from the furthest-advanced shard.
        assert_eq!(m.counter, 11);
        assert_eq!(m.cursor, vec![1]);
        // Order-independent.
        let swapped = CampaignCheckpoint::merge(&[shard_part(2, 0), shard_part(2, 1)]).unwrap();
        assert_eq!(m, swapped);
    }

    #[test]
    fn merge_rejects_incomplete_or_mismatched_shard_sets() {
        assert!(CampaignCheckpoint::merge(&[]).is_err(), "empty");
        assert!(
            CampaignCheckpoint::merge(&[shard_part(2, 0)]).is_err(),
            "missing shard 1"
        );
        assert!(
            CampaignCheckpoint::merge(&[shard_part(2, 0), shard_part(2, 0)]).is_err(),
            "duplicate shard"
        );
        assert!(
            CampaignCheckpoint::merge(&[shard_part(2, 0), shard_part(3, 1)]).is_err(),
            "disagreeing shard counts"
        );
        let foreign = CampaignCheckpoint {
            config: "another space".into(),
            ..shard_part(2, 1)
        };
        assert!(
            CampaignCheckpoint::merge(&[shard_part(2, 0), foreign])
                .unwrap_err()
                .contains("config"),
            "parts of different configs"
        );
        let unfinished = CampaignCheckpoint {
            done: false,
            ..shard_part(2, 1)
        };
        let m = CampaignCheckpoint::merge(&[shard_part(2, 0), unfinished]).unwrap();
        assert!(!m.done, "merge of an unfinished shard is not done");
    }
}
