//! Combinational equivalence checking between two netlists — a public
//! wrapper around the miter + solver machinery, used to verify optimizer
//! output exactly (rather than by random simulation alone).

use crate::check::{encode, Encoding};
use crate::sat::{NodeId, SatBuilder, SatOutcome};
use powder_netlist::{GateId, Netlist};
use std::collections::HashMap;
use std::fmt;

/// Result of an equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivOutcome {
    /// Proven equivalent on all inputs.
    Equivalent,
    /// A distinguishing input assignment (indexed like `a`'s inputs) and
    /// the name of the first differing output.
    Inequivalent {
        /// The counterexample assignment.
        witness: Vec<bool>,
        /// Name of a primary output that differs under the witness.
        output: String,
    },
    /// The solver gave up within the backtrack budget.
    Unknown,
}

/// Error for interface mismatches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterfaceError {
    /// Description of the mismatch.
    pub message: String,
}

impl fmt::Display for InterfaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interface mismatch: {}", self.message)
    }
}

impl std::error::Error for InterfaceError {}

/// Checks combinational equivalence of `a` and `b`.
///
/// Inputs and outputs are matched **by name**; both netlists must expose
/// the same sets. Each output pair gets its own miter solve, so a
/// counterexample names the first differing output; every pair must be
/// proven `Unsat` for the whole check to report [`EquivOutcome::Equivalent`].
///
/// # Errors
///
/// Returns [`InterfaceError`] when the input or output name sets differ.
pub fn check_equivalence(
    a: &Netlist,
    b: &Netlist,
    backtrack_limit: usize,
) -> Result<EquivOutcome, InterfaceError> {
    // Match interfaces by name.
    let mut a_inputs: HashMap<&str, usize> = HashMap::new();
    for (i, &pi) in a.inputs().iter().enumerate() {
        a_inputs.insert(a.gate_name(pi), i);
    }
    if b.inputs().len() != a.inputs().len() {
        return Err(InterfaceError {
            message: format!(
                "{} vs {} primary inputs",
                a.inputs().len(),
                b.inputs().len()
            ),
        });
    }
    // Position in `a`'s input list of each of `b`'s inputs.
    let mut b_input_index = vec![0u32; b.id_bound()];
    for &pi in b.inputs() {
        let name = b.gate_name(pi);
        let Some(&idx) = a_inputs.get(name) else {
            return Err(InterfaceError {
                message: format!("input {name:?} missing from the first netlist"),
            });
        };
        b_input_index[pi.0 as usize] = idx as u32;
    }
    let mut b_outputs: HashMap<&str, GateId> = HashMap::new();
    for &po in b.outputs() {
        b_outputs.insert(b.gate_name(po), po);
    }
    if b.outputs().len() != a.outputs().len() {
        return Err(InterfaceError {
            message: format!(
                "{} vs {} primary outputs",
                a.outputs().len(),
                b.outputs().len()
            ),
        });
    }

    // Shared builder: PIs by `a`'s index; both circuits encoded once,
    // over the same primary-input nodes.
    let mut builder = SatBuilder::default();
    let pi_nodes: Vec<NodeId> = (0..a.inputs().len()).map(|i| builder.pi(i)).collect();
    let mut a_index = vec![0u32; a.id_bound()];
    for (i, &pi) in a.inputs().iter().enumerate() {
        a_index[pi.0 as usize] = i as u32;
    }
    let mut a_map = Encoding::default();
    encode(
        &mut builder,
        a,
        &a.topo_order(),
        None,
        &mut a_map,
        |_, g| pi_nodes[a_index[g.0 as usize] as usize],
    );
    let mut b_map = Encoding::default();
    encode(
        &mut builder,
        b,
        &b.topo_order(),
        None,
        &mut b_map,
        |_, g| pi_nodes[b_input_index[g.0 as usize] as usize],
    );

    for &po in a.outputs() {
        let name = a.gate_name(po).to_string();
        let Some(&bpo) = b_outputs.get(name.as_str()) else {
            return Err(InterfaceError {
                message: format!("output {name:?} missing from the second netlist"),
            });
        };
        let diff = builder.xor2(a_map.at(po), b_map.at(bpo));
        match builder.solve(a.inputs().len(), diff, backtrack_limit) {
            SatOutcome::Unsat => {}
            SatOutcome::Sat(witness) => {
                return Ok(EquivOutcome::Inequivalent {
                    witness,
                    output: name,
                })
            }
            SatOutcome::Aborted => return Ok(EquivOutcome::Unknown),
        }
    }
    Ok(EquivOutcome::Equivalent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;
    use std::sync::Arc;

    fn and_circuit(or_instead: bool) -> Netlist {
        let lib = Arc::new(lib2());
        let cell = lib
            .find_by_name(if or_instead { "or2" } else { "and2" })
            .unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_cell("g", cell, &[a, b]);
        nl.add_output("f", g);
        nl
    }

    #[test]
    fn equivalent_structures_prove() {
        // and2 vs inv(nand2): same function, different structure.
        let lib = Arc::new(lib2());
        let nand2 = lib.find_by_name("nand2").unwrap();
        let inv = lib.find_by_name("inv1").unwrap();
        let mut alt = Netlist::new("alt", lib);
        let a = alt.add_input("a");
        let b = alt.add_input("b");
        let n = alt.add_cell("n", nand2, &[a, b]);
        let g = alt.add_cell("g", inv, &[n]);
        alt.add_output("f", g);
        assert_eq!(
            check_equivalence(&and_circuit(false), &alt, 1000).unwrap(),
            EquivOutcome::Equivalent
        );
    }

    #[test]
    fn inequivalent_yields_witness() {
        match check_equivalence(&and_circuit(false), &and_circuit(true), 1000).unwrap() {
            EquivOutcome::Inequivalent { witness, output } => {
                assert_eq!(output, "f");
                // AND vs OR differ iff exactly one input is 1.
                assert_ne!(witness[0], witness[1], "{witness:?}");
            }
            other => panic!("expected inequivalence, got {other:?}"),
        }
    }

    #[test]
    fn name_matching_is_order_insensitive() {
        // Same function, inputs declared in the opposite order.
        let lib = Arc::new(lib2());
        let andn2 = lib.find_by_name("andn2").unwrap(); // a & !b
        let mut x = Netlist::new("x", lib.clone());
        let xa = x.add_input("a");
        let xb = x.add_input("b");
        let xg = x.add_cell("g", andn2, &[xa, xb]);
        x.add_output("f", xg);
        let mut y = Netlist::new("y", lib);
        let yb = y.add_input("b");
        let ya = y.add_input("a");
        let yg = y.add_cell("g", andn2, &[ya, yb]);
        y.add_output("f", yg);
        assert_eq!(
            check_equivalence(&x, &y, 1000).unwrap(),
            EquivOutcome::Equivalent
        );
    }

    #[test]
    fn interface_mismatch_is_error() {
        let lib = Arc::new(lib2());
        let mut z = Netlist::new("z", lib);
        let a = z.add_input("other");
        z.add_output("f", a);
        assert!(check_equivalence(&and_circuit(false), &z, 1000).is_err());
    }
}
