//! Durable mid-run state: [`RunCheckpoint`] and its text format.
//!
//! A pipeline configured with a checkpoint sink emits one
//! [`RunCheckpoint`] at every committed boundary — after each completed
//! POWDER round (via [`powder::RoundHook`]) and after each completed
//! pass. The checkpoint carries everything a fresh process needs to
//! continue the run and land on the *bit-identical* final netlist an
//! uninterrupted run would have produced:
//!
//! * the exact arena snapshot of the netlist (tombstones, fanout order,
//!   name map and journal generation included — see
//!   [`powder_netlist::write_snapshot`]),
//! * the full simulation pattern set, because ATPG counterexamples
//!   learned mid-run extend it and later decisions read those bits,
//! * the resolved absolute required time, because a
//!   [`powder::DelayLimit::Factor`] re-resolved against the mid-run
//!   netlist would move the constraint,
//! * the pipeline position ([`ResumePoint`]): fixpoint iteration, passes
//!   completed inside it, edits committed so far in the iteration (the
//!   fixpoint termination test needs them), and — when the checkpoint
//!   was taken inside a POWDER pass — rounds and commits already done.
//!
//! Deliberately *not* persisted: retained simulation values (resumed as
//! `None`; the full resimulation is content-identical to the retained
//! buffer), the fault-injection quarantine set, and the parallel
//! engine's cross-round gain/proof memos (perf-only caches whose
//! recomputation is bit-identical).

use crate::integrity::crc32;
use powder::{AnalysisSession, SessionConfig};
use powder_library::Library;
use powder_netlist::Netlist;
use powder_sim::Patterns;
use std::sync::Arc;

/// Magic first line of the checkpoint text format: the second line
/// carries the CRC-32 and byte length of the remainder, so truncation,
/// bit flips, and torn writes are detected at load time.
pub const CHECKPOINT_MAGIC: &str = "powder-checkpoint v2";

/// Where the pipeline stood when a checkpoint was taken. All positions
/// refer to *completed* work; resume re-enters right after it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResumePoint {
    /// Fixpoint iteration in progress (0-based).
    pub iteration: usize,
    /// Passes completed within that iteration.
    pub passes_done: usize,
    /// Edits committed by those completed passes (seed for the fixpoint
    /// termination test).
    pub iteration_edits: usize,
    /// Rounds completed inside the in-progress POWDER pass; `0` means
    /// the checkpoint sits at a pass boundary.
    pub powder_rounds_done: usize,
    /// Substitutions committed by the in-progress POWDER pass.
    pub powder_commits: usize,
    /// Absolute required time resolved by the in-progress POWDER pass
    /// (`None` at pass boundaries or when the run is unconstrained).
    /// The resumed pass pins its delay limit to this value.
    pub required_time: Option<f64>,
}

impl ResumePoint {
    /// Whether this point sits inside a POWDER pass (as opposed to a
    /// pass boundary).
    #[must_use]
    pub fn mid_powder(&self) -> bool {
        self.powder_rounds_done > 0
    }
}

/// A complete, restartable snapshot of a pipeline run at a committed
/// boundary. See the module docs for what is and is not persisted.
#[derive(Clone, Debug)]
pub struct RunCheckpoint {
    /// Pipeline position (including the resolved required time).
    pub position: ResumePoint,
    /// Exact arena snapshot text of the netlist
    /// ([`powder_netlist::write_snapshot`]).
    pub netlist: String,
    /// Packed simulation patterns, one row of words per circuit input.
    pub pattern_bits: Vec<Vec<u64>>,
    /// How many bits of the trailing word are in use (see
    /// [`Patterns::tail_used`]).
    pub pattern_tail: usize,
}

impl RunCheckpoint {
    /// The checkpoint of `nl` and its pattern set at `position`.
    pub(crate) fn capture(position: ResumePoint, nl: &Netlist, patterns: &Patterns) -> Self {
        RunCheckpoint {
            position,
            netlist: powder_netlist::write_snapshot(nl),
            pattern_bits: (0..patterns.inputs())
                .map(|i| patterns.input_bits(i).to_vec())
                .collect(),
            pattern_tail: patterns.tail_used(),
        }
    }

    /// Serializes to the line-oriented `powder-checkpoint v2` text
    /// format: magic line, `crc32 <hex8> <len>` integrity line over
    /// the remainder, then the body. Floats are stored as bit
    /// patterns, so [`RunCheckpoint::from_text`] round-trips exactly.
    #[must_use]
    pub fn to_text(&self) -> String {
        let body = self.body_text();
        format!(
            "{CHECKPOINT_MAGIC}\ncrc32 {:08x} {}\n{body}",
            crc32(body.as_bytes()),
            body.len()
        )
    }

    /// The checksummed section of the text format (everything after
    /// the magic and integrity lines).
    fn body_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let p = &self.position;
        let _ = writeln!(out, "iteration {}", p.iteration);
        let _ = writeln!(out, "passes_done {}", p.passes_done);
        let _ = writeln!(out, "iteration_edits {}", p.iteration_edits);
        let _ = writeln!(out, "powder_rounds_done {}", p.powder_rounds_done);
        let _ = writeln!(out, "powder_commits {}", p.powder_commits);
        match p.required_time {
            Some(t) => {
                let _ = writeln!(out, "required_time {:016x}", t.to_bits());
            }
            None => {
                let _ = writeln!(out, "required_time none");
            }
        }
        let words = self.pattern_bits.first().map_or(0, Vec::len);
        let _ = writeln!(
            out,
            "patterns {} {} {}",
            self.pattern_bits.len(),
            words,
            self.pattern_tail
        );
        for row in &self.pattern_bits {
            debug_assert_eq!(row.len(), words, "ragged pattern rows");
            let mut line = String::with_capacity(words * 17);
            for (i, w) in row.iter().enumerate() {
                if i > 0 {
                    line.push(' ');
                }
                let _ = write!(line, "{w:016x}");
            }
            out.push_str(&line);
            out.push('\n');
        }
        // The netlist section is last and verbatim: everything after
        // this marker line is the arena snapshot, no escaping needed.
        let _ = writeln!(out, "netlist");
        out.push_str(&self.netlist);
        out
    }

    /// Splits a checkpoint text into its body after verifying the
    /// magic line and the `crc32` line against the remainder.
    fn checked_body(src: &str) -> Result<&str, String> {
        let (magic, rest) = src.split_once('\n').unwrap_or((src, ""));
        if magic != CHECKPOINT_MAGIC {
            return Err(format!(
                "not a checkpoint: expected {CHECKPOINT_MAGIC:?}, got {magic:?}"
            ));
        }
        let (crc_line, body) = rest
            .split_once('\n')
            .ok_or("checkpoint truncated in the integrity line")?;
        let mut parts = crc_line.split_whitespace();
        if parts.next() != Some("crc32") {
            return Err(format!("expected \"crc32\" line, got {crc_line:?}"));
        }
        let expected_crc = parts
            .next()
            .and_then(|v| u32::from_str_radix(v, 16).ok())
            .ok_or_else(|| format!("bad crc32 value in {crc_line:?}"))?;
        let expected_len = parts
            .next()
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| format!("bad length in {crc_line:?}"))?;
        if body.len() != expected_len {
            return Err(format!(
                "checkpoint truncated or padded: integrity line says {expected_len} \
                 bytes, found {}",
                body.len()
            ));
        }
        let actual = crc32(body.as_bytes());
        if actual != expected_crc {
            return Err(format!(
                "checkpoint corrupted: integrity line says crc32 {expected_crc:08x}, \
                 computed {actual:08x}"
            ));
        }
        Ok(body)
    }

    /// Integrity-checks a checkpoint text without materializing it:
    /// magic, length, and CRC (one pass over the bytes). The CRC
    /// proves the body is exactly what `to_text` wrote, and `to_text`
    /// only writes parseable bodies. The store uses this to decide
    /// between resuming and quarantining.
    pub fn verify_text(src: &str) -> Result<(), String> {
        Self::checked_body(src).map(|_| ())
    }

    /// Parses the `powder-checkpoint v2` text format. The input is
    /// CRC-verified before any field is parsed, so truncation and bit
    /// flips surface as integrity errors rather than field errors.
    pub fn from_text(src: &str) -> Result<Self, String> {
        Self::parse_body(Self::checked_body(src)?)
    }

    /// Parses the body (the section after magic + integrity lines).
    fn parse_body(body: &str) -> Result<Self, String> {
        let mut lines = body.lines();
        let mut field = |name: &str| -> Result<String, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("checkpoint truncated before {name}"))?;
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| format!("expected {name:?} line, got {line:?}"))
        };
        let usize_field = |name: &str, value: &str| -> Result<usize, String> {
            value
                .parse::<usize>()
                .map_err(|_| format!("bad {name} count {value:?}"))
        };
        let mut position = ResumePoint {
            iteration: usize_field("iteration", &field("iteration")?)?,
            passes_done: usize_field("passes_done", &field("passes_done")?)?,
            iteration_edits: usize_field("iteration_edits", &field("iteration_edits")?)?,
            powder_rounds_done: usize_field("powder_rounds_done", &field("powder_rounds_done")?)?,
            powder_commits: usize_field("powder_commits", &field("powder_commits")?)?,
            required_time: None,
        };
        let rt = field("required_time")?;
        position.required_time = if rt == "none" {
            None
        } else {
            let bits = u64::from_str_radix(&rt, 16)
                .map_err(|_| format!("bad required_time bits {rt:?}"))?;
            Some(f64::from_bits(bits))
        };
        let shape = field("patterns")?;
        let mut parts = shape.split_whitespace();
        let inputs = usize_field("patterns inputs", parts.next().unwrap_or(""))?;
        let words = usize_field("patterns words", parts.next().unwrap_or(""))?;
        let pattern_tail = usize_field("patterns tail", parts.next().unwrap_or(""))?;
        let mut pattern_bits = Vec::with_capacity(inputs);
        for i in 0..inputs {
            let line = lines
                .next()
                .ok_or_else(|| format!("checkpoint truncated in pattern row {i}"))?;
            let row = line
                .split_whitespace()
                .map(|tok| {
                    u64::from_str_radix(tok, 16)
                        .map_err(|_| format!("bad pattern word {tok:?} in row {i}"))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            if row.len() != words {
                return Err(format!(
                    "pattern row {i} has {} words, expected {words}",
                    row.len()
                ));
            }
            pattern_bits.push(row);
        }
        match lines.next() {
            Some("netlist") => {}
            other => return Err(format!("expected \"netlist\" marker, got {other:?}")),
        }
        let mut netlist = String::new();
        for line in lines {
            netlist.push_str(line);
            netlist.push('\n');
        }
        if netlist.is_empty() {
            return Err("checkpoint has an empty netlist section".to_string());
        }
        Ok(RunCheckpoint {
            position,
            netlist,
            pattern_bits,
            pattern_tail,
        })
    }

    /// Rebuilds the pattern set exactly as it stood at the checkpoint
    /// (including the partially-filled tail word).
    #[must_use]
    pub fn patterns(&self) -> Patterns {
        Patterns::from_raw(self.pattern_bits.clone(), self.pattern_tail)
    }

    /// Restores the netlist from the embedded arena snapshot.
    pub fn restore_netlist(&self, library: Arc<Library>) -> Result<Netlist, String> {
        powder_netlist::read_snapshot(&self.netlist, library).map_err(|e| e.to_string())
    }

    /// Restores a full [`AnalysisSession`] — netlist plus the
    /// checkpointed pattern set — ready to hand to a resumed
    /// [`Pipeline::run`](crate::Pipeline::run).
    pub fn restore_session(
        &self,
        config: SessionConfig,
        library: Arc<Library>,
    ) -> Result<AnalysisSession, String> {
        let nl = self.restore_netlist(library)?;
        Ok(AnalysisSession::restore(nl, config, self.patterns()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunCheckpoint {
        RunCheckpoint {
            position: ResumePoint {
                iteration: 2,
                passes_done: 1,
                iteration_edits: 7,
                powder_rounds_done: 3,
                powder_commits: 5,
                required_time: Some(1.625e-9),
            },
            netlist: "powder-arena v1\nname t\ngeneration 4\nslots 0\ninputs\noutputs\n"
                .to_string(),
            pattern_bits: vec![vec![0xdead_beef, u64::MAX], vec![0, 1]],
            pattern_tail: 17,
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        let cp = sample();
        let restored = RunCheckpoint::from_text(&cp.to_text()).unwrap();
        assert_eq!(restored.position, cp.position);
        assert_eq!(
            restored.position.required_time.map(f64::to_bits),
            cp.position.required_time.map(f64::to_bits)
        );
        assert_eq!(restored.netlist, cp.netlist);
        assert_eq!(restored.pattern_bits, cp.pattern_bits);
        assert_eq!(restored.pattern_tail, cp.pattern_tail);
    }

    #[test]
    fn none_required_time_round_trips() {
        let mut cp = sample();
        cp.position.required_time = None;
        let restored = RunCheckpoint::from_text(&cp.to_text()).unwrap();
        assert_eq!(restored.position.required_time, None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(RunCheckpoint::from_text("").is_err());
        assert!(RunCheckpoint::from_text("powder-checkpoint v0\n").is_err());
        let truncated = sample().to_text();
        let cut = truncated.find("patterns").unwrap();
        assert!(RunCheckpoint::from_text(&truncated[..cut]).is_err());
    }

    /// The retired `powder-checkpoint v1` format (no integrity line)
    /// is rejected by both readers, even when its body parses.
    #[test]
    fn v1_text_is_rejected() {
        let v1 = format!("powder-checkpoint v1\n{}", sample().body_text());
        let err = RunCheckpoint::from_text(&v1).unwrap_err();
        assert!(err.contains("not a checkpoint"), "{err}");
        assert!(RunCheckpoint::verify_text(&v1).is_err());
    }

    #[test]
    fn v2_detects_truncation_and_bit_flips() {
        let text = sample().to_text();
        RunCheckpoint::verify_text(&text).unwrap();
        // Any truncation after the integrity line is caught by length.
        let body_start = text.match_indices('\n').nth(1).unwrap().0 + 1;
        for cut in [text.len() - 1, text.len() - 13, body_start + 5] {
            let err = RunCheckpoint::from_text(&text[..cut]).unwrap_err();
            assert!(err.contains("truncated"), "cut at {cut}: {err}");
            assert!(RunCheckpoint::verify_text(&text[..cut]).is_err());
        }
        // A same-length corruption is caught by CRC.
        for pos in [body_start, body_start + 11, text.len() - 2] {
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= 0x01;
            let flipped = String::from_utf8(bytes).unwrap();
            let err = RunCheckpoint::from_text(&flipped).unwrap_err();
            assert!(err.contains("corrupted"), "flip at {pos}: {err}");
        }
        // Corruption inside the integrity line itself is also fatal.
        let torn = text.replacen("crc32 ", "crc32 f", 1);
        assert!(RunCheckpoint::from_text(&torn).is_err());
    }
}
