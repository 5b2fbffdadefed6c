//! The correctness gate, run outside every timed region: each optimized
//! netlist is proven equivalent to its input by SAT miter.

use crate::batch::{library, Input};
use powder_atpg::{check_equivalence, EquivOutcome};
use powder_netlist::blif::read_blif;
use std::time::Instant;

/// Backtrack budget of each per-output miter. Above it a circuit is
/// `Unknown` and falls back to random-pattern simulation.
const EQUIV_BACKTRACK_LIMIT: usize = 20_000;

pub struct GateResult {
    /// Per circuit: whether its output failed the gate.
    pub failed: Vec<bool>,
    /// Circuits whose miter hit the backtrack limit.
    pub undecided: usize,
    /// Seconds spent in `check_equivalence`.
    pub equiv_seconds: f64,
}

/// Checks `outputs[i]` (BLIF; `None` when the circuit never completed)
/// against `inputs[i]`.
pub fn verify(inputs: &[Input], outputs: &[Option<String>]) -> GateResult {
    let lib = library();
    let mut res = GateResult {
        failed: Vec::new(),
        undecided: 0,
        equiv_seconds: 0.0,
    };
    for (input, output) in inputs.iter().zip(outputs) {
        let verdict = (|| {
            let a = read_blif(&input.blif, lib.clone()).map_err(|e| e.to_string())?;
            let output = output.as_deref().ok_or("no output")?;
            let b = read_blif(output, lib.clone()).map_err(|e| e.to_string())?;
            b.validate().map_err(|e| e.to_string())?;
            let t = Instant::now();
            let outcome =
                check_equivalence(&a, &b, EQUIV_BACKTRACK_LIMIT).map_err(|e| e.to_string());
            res.equiv_seconds += t.elapsed().as_secs_f64();
            match outcome? {
                EquivOutcome::Equivalent => Ok(()),
                EquivOutcome::Inequivalent { output, .. } => {
                    Err(format!("output {output:?} differs"))
                }
                EquivOutcome::Unknown => {
                    res.undecided += 1;
                    if powder_bench::equivalent_by_simulation(&a, &b, 32, 0xEC) {
                        Ok(())
                    } else {
                        Err("differs under simulation".to_string())
                    }
                }
            }
        })();
        if let Err(e) = &verdict {
            eprintln!(
                "perfbench: {}: output failed the correctness gate: {e}",
                input.name
            );
        }
        res.failed.push(verdict.is_err());
    }
    res
}
