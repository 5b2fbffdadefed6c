//! Parser for the classic genlib library format.
//!
//! The subset understood here covers what `lib2.genlib`-era libraries use:
//!
//! ```text
//! GATE <name> <area> <out>=<expr>;
//!     PIN <pin|*> <phase> <input-load> <max-load> \
//!         <rise-block> <rise-fanout-delay> <fall-block> <fall-fanout-delay>
//! ```
//!
//! The per-pin timing numbers are folded into the paper's single linear
//! model: the cell's intrinsic delay `τ` is the maximum block delay over all
//! pins (worst arc, rise/fall averaged) and its drive resistance `R` is the
//! maximum fanout delay coefficient.

use crate::cell::{Cell, Library, Pin};
use crate::expr::parse_expr;
use std::collections::HashMap;
use std::fmt;

/// Error produced while parsing a genlib source.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseGenlibError {
    /// Line number (1-based) where the failure occurred.
    pub line: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for ParseGenlibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "genlib line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseGenlibError {}

struct PinSpec {
    name: String, // "*" for wildcard
    load: f64,
    block: f64,
    fanout: f64,
}

/// Parses genlib text into a [`Library`].
///
/// # Errors
///
/// Returns [`ParseGenlibError`] on malformed gate lines, duplicate gate
/// names, undeclared pins, bad expressions or non-numeric fields. Comments
/// (`#` to end of line) are ignored.
///
/// # Example
///
/// ```
/// use powder_library::genlib::parse_genlib;
///
/// let lib = parse_genlib("demo", r#"
///     GATE inv1 1.0 o=!a;            PIN a INV 1.0 999 1.0 0.5 1.0 0.5
///     GATE nand2 2.0 o=!(a*b);       PIN * INV 1.0 999 1.5 0.4 1.5 0.4
/// "#)?;
/// assert_eq!(lib.len(), 2);
/// assert!(lib.cell_ref(lib.inverter()).is_inverter());
/// # Ok::<(), powder_library::genlib::ParseGenlibError>(())
/// ```
pub fn parse_genlib(name: &str, src: &str) -> Result<Library, ParseGenlibError> {
    // Tokenize into statements: GATE ... ; PIN lines belong to the last GATE.
    let mut cells: Vec<Cell> = Vec::new();
    let mut pending: Option<(usize, String, f64, String, Vec<PinSpec>)> = None;
    let mut first_seen: HashMap<String, usize> = HashMap::new();

    let err = |line: usize, message: &str| ParseGenlibError {
        line,
        message: message.to_string(),
    };

    let finalize = |line: usize,
                    gate: (usize, String, f64, String, Vec<PinSpec>)|
     -> Result<Cell, ParseGenlibError> {
        let (gline, gname, area, expr_src, pins) = gate;
        let parsed = parse_expr(&expr_src)
            .map_err(|e| err(gline, &format!("bad expression for {gname}: {e}")))?;
        let mut cell_pins = Vec::with_capacity(parsed.inputs.len());
        let mut tau: f64 = 0.0;
        let mut res: f64 = 0.0;
        for input in &parsed.inputs {
            let spec = pins
                .iter()
                .find(|p| &p.name == input)
                .or_else(|| pins.iter().find(|p| p.name == "*"));
            let spec = spec.ok_or_else(|| {
                err(
                    line,
                    &format!("gate {gname}: no PIN entry for input {input}"),
                )
            })?;
            cell_pins.push(Pin {
                name: input.clone(),
                cap: spec.load,
            });
            tau = tau.max(spec.block);
            res = res.max(spec.fanout);
        }
        if parsed.inputs.is_empty() && !pins.is_empty() {
            // constant cells may carry a wildcard pin row for timing
            tau = pins[0].block;
            res = pins[0].fanout;
        }
        Ok(Cell {
            name: gname,
            area,
            function: parsed.function,
            pins: cell_pins,
            intrinsic: tau,
            drive_res: res,
        })
    };

    for (lineno0, raw) in src.lines().enumerate() {
        let lineno = lineno0 + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("GATE") => {
                if let Some(gate) = pending.take() {
                    cells.push(finalize(lineno, gate)?);
                }
                let gname = tokens
                    .next()
                    .ok_or_else(|| err(lineno, "GATE missing name"))?
                    .to_string();
                if let Some(&first) = first_seen.get(&gname) {
                    return Err(err(
                        lineno,
                        &format!("duplicate GATE {gname:?} (first defined at line {first})"),
                    ));
                }
                first_seen.insert(gname.clone(), lineno);
                let area: f64 = tokens
                    .next()
                    .ok_or_else(|| err(lineno, "GATE missing area"))?
                    .parse()
                    .map_err(|_| err(lineno, "GATE area is not a number"))?;
                // Rest of the line up to ';' is "out=expr"; PIN may follow on
                // the same line after the semicolon.
                let rest: String = tokens.collect::<Vec<_>>().join(" ");
                let (fun_part, trailer) = match rest.split_once(';') {
                    Some((f, t)) => (f.trim().to_string(), t.trim().to_string()),
                    None => (rest.trim().to_string(), String::new()),
                };
                let expr_src = match fun_part.split_once('=') {
                    Some((_, e)) => e.trim().to_string(),
                    None => return Err(err(lineno, "GATE function must be out=expr")),
                };
                let mut pins = Vec::new();
                if !trailer.is_empty() {
                    let toks: Vec<&str> = trailer.split_whitespace().collect();
                    parse_pin_tokens(&toks, lineno, &mut pins)?;
                }
                pending = Some((lineno, gname, area, expr_src, pins));
            }
            Some("PIN") => {
                let Some(gate) = pending.as_mut() else {
                    return Err(err(lineno, "PIN before any GATE"));
                };
                let toks: Vec<&str> = std::iter::once("PIN").chain(tokens).collect();
                parse_pin_tokens(&toks, lineno, &mut gate.4)?;
            }
            Some(other) => {
                return Err(err(lineno, &format!("unexpected token {other:?}")));
            }
            None => unreachable!("blank lines are skipped"),
        }
    }
    if let Some(gate) = pending.take() {
        let line = src.lines().count();
        cells.push(finalize(line, gate)?);
    }
    Ok(Library::new(name, cells))
}

/// Serialises a library back to genlib text.
///
/// Functions are emitted as sum-of-products expressions over the pin names;
/// per-pin rows carry the capacitance and the cell's τ/R (the writer/parser
/// pair round-trips the model this crate uses, not arbitrary genlib).
#[must_use]
pub fn write_genlib(library: &Library) -> String {
    use powder_logic::minimize;
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "# generated by powder (library {:?})", library.name());
    for (_, cell) in library.iter() {
        let expr = if cell.function.is_zero() {
            "CONST0".to_string()
        } else if cell.function.is_one() {
            "CONST1".to_string()
        } else {
            let sop = minimize::minimize(&cell.function);
            let mut terms = Vec::new();
            for cube in sop.cubes() {
                let mut lits = Vec::new();
                for (v, pin) in cell.pins.iter().enumerate() {
                    match cube.literal(v) {
                        Some(true) => lits.push(pin.name.clone()),
                        Some(false) => lits.push(format!("!{}", pin.name)),
                        None => {}
                    }
                }
                terms.push(lits.join("*"));
            }
            terms.join(" + ")
        };
        let _ = writeln!(s, "GATE {} {} O={};", cell.name, cell.area, expr);
        for pin in &cell.pins {
            let _ = writeln!(
                s,
                "    PIN {} UNKNOWN {} 999 {} {} {} {}",
                pin.name, pin.cap, cell.intrinsic, cell.drive_res, cell.intrinsic, cell.drive_res
            );
        }
    }
    s
}

/// Parses one or more `PIN name phase load maxload rb rf fb ff` groups.
fn parse_pin_tokens(
    toks: &[&str],
    lineno: usize,
    out: &mut Vec<PinSpec>,
) -> Result<(), ParseGenlibError> {
    let err = |message: String| ParseGenlibError {
        line: lineno,
        message,
    };
    let mut i = 0;
    while i < toks.len() {
        if toks[i] != "PIN" {
            return Err(err(format!("expected PIN, got {:?}", toks[i])));
        }
        if i + 8 >= toks.len() {
            return Err(err("PIN entry truncated".into()));
        }
        let name = toks[i + 1].to_string();
        let num = |s: &str| -> Result<f64, ParseGenlibError> {
            s.parse()
                .map_err(|_| err(format!("bad number {s:?} in PIN entry")))
        };
        // The input-load field is the pin capacitance the power model
        // charges per transition; diagnose it precisely (pin + value)
        // because a silent NaN or negative load would corrupt every
        // Σ C·E estimate downstream.
        let load_tok = toks[i + 3];
        let load: f64 = load_tok.parse().map_err(|_| {
            err(format!(
                "pin {name:?}: capacitance (input-load) field {load_tok:?} is not a number"
            ))
        })?;
        if !load.is_finite() || load < 0.0 {
            return Err(err(format!(
                "pin {name:?}: capacitance (input-load) must be finite and non-negative, got {load_tok}"
            )));
        }
        let rise_block = num(toks[i + 5])?;
        let rise_fanout = num(toks[i + 6])?;
        let fall_block = num(toks[i + 7])?;
        let fall_fanout = num(toks[i + 8])?;
        out.push(PinSpec {
            name,
            load,
            block: 0.5 * (rise_block + fall_block),
            fanout: 0.5 * (rise_fanout + fall_fanout),
        });
        i += 9;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_logic::TruthTable;

    const SMALL: &str = r#"
# a tiny library
GATE inv1 928 O=!a;         PIN a INV 1.0 999 0.9 0.3 0.9 0.3
GATE nand2 1392 O=!(a*b);   PIN * INV 1.0 999 1.0 0.2 1.2 0.2
GATE xor2 2784 O=a*!b + !a*b;
    PIN a UNKNOWN 2.0 999 1.8 0.3 2.0 0.3
    PIN b UNKNOWN 2.0 999 1.8 0.3 2.0 0.3
"#;

    #[test]
    fn parses_small_library() {
        let lib = parse_genlib("small", SMALL).unwrap();
        assert_eq!(lib.len(), 3);
        let inv = lib.cell_ref(lib.find_by_name("inv1").unwrap());
        assert!(inv.is_inverter());
        assert!((inv.area - 928.0).abs() < 1e-9);
        assert!((inv.intrinsic - 0.9).abs() < 1e-9);
        assert!((inv.drive_res - 0.3).abs() < 1e-9);

        let nand = lib.cell_ref(lib.find_by_name("nand2").unwrap());
        assert_eq!(nand.inputs(), 2);
        assert_eq!(
            nand.function,
            !(TruthTable::var(0, 2) & TruthTable::var(1, 2))
        );
        // wildcard pin applied to both inputs; block avg of 1.0/1.2
        assert!((nand.intrinsic - 1.1).abs() < 1e-9);

        let xor = lib.cell_ref(lib.find_by_name("xor2").unwrap());
        assert_eq!(xor.function, TruthTable::var(0, 2) ^ TruthTable::var(1, 2));
        assert!((xor.pin_cap(0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn missing_pin_is_error() {
        let src = "GATE bad 1.0 O=a*b; PIN a X 1 9 1 1 1 1";
        let e = parse_genlib("t", src).unwrap_err();
        assert!(e.message.contains("no PIN entry"), "{e}");
    }

    #[test]
    fn pin_before_gate_is_error() {
        let e = parse_genlib("t", "PIN a X 1 9 1 1 1 1").unwrap_err();
        assert!(e.message.contains("before any GATE"));
    }

    #[test]
    fn bad_expression_is_error() {
        let e = parse_genlib("t", "GATE g 1.0 O=a+*b; PIN * X 1 9 1 1 1 1").unwrap_err();
        assert!(e.message.contains("bad expression"));
    }

    #[test]
    fn duplicate_gate_is_error() {
        let src = "GATE g 1.0 O=!a; PIN a X 1 9 1 1 1 1\nGATE g 2.0 O=!a; PIN a X 1 9 1 1 1 1";
        let e = parse_genlib("t", src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(
            e.message.contains("duplicate GATE") && e.message.contains("line 1"),
            "{e}"
        );
    }

    #[test]
    fn malformed_pin_capacitance_reports_line_and_pin() {
        // Non-numeric load on the PIN continuation line: the error must
        // carry that line's number and name the offending pin and value.
        let src = "GATE g 1.0 O=a*b;\n    PIN a X abc 9 1 1 1 1\n    PIN b X 1 9 1 1 1 1";
        let e = parse_genlib("t", src).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(
            e.message.contains("\"a\"") && e.message.contains("\"abc\""),
            "{e}"
        );
        assert!(e.message.contains("capacitance"), "{e}");

        // Negative and non-finite loads are rejected, not folded into
        // the power model.
        for bad in ["-1.5", "nan", "inf"] {
            let src = format!("GATE g 1.0 O=!a;\nPIN a X {bad} 9 1 1 1 1");
            let e = parse_genlib("t", &src).unwrap_err();
            assert_eq!(e.line, 2, "{bad}: {e}");
            assert!(e.message.contains("finite and non-negative"), "{bad}: {e}");
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let lib = parse_genlib("t", "# only comments\n\n").unwrap();
        assert!(lib.is_empty());
    }

    #[test]
    fn write_parse_roundtrip_preserves_model() {
        let original = crate::lib2();
        let text = write_genlib(&original);
        let back = parse_genlib("rt", &text).unwrap();
        assert_eq!(back.len(), original.len());
        for (_, cell) in original.iter() {
            let rid = back.find_by_name(&cell.name).expect("cell survives");
            let rcell = back.cell_ref(rid);
            assert!((rcell.area - cell.area).abs() < 1e-9);
            assert_eq!(rcell.inputs(), cell.inputs());
            // The parser orders pins by first appearance in the expression,
            // which may permute them; compare semantics via the pin-name
            // correspondence.
            let perm: Vec<usize> = cell
                .pins
                .iter()
                .map(|p| {
                    rcell
                        .pins
                        .iter()
                        .position(|rp| rp.name == p.name)
                        .expect("pin name survives")
                })
                .collect();
            assert_eq!(
                rcell.function.permute(&perm),
                cell.function,
                "{} (perm {perm:?})",
                cell.name
            );
            for (v, pin) in cell.pins.iter().enumerate() {
                assert!(
                    (rcell.pin_cap(perm[v]) - pin.cap).abs() < 1e-9,
                    "{} pin {}",
                    cell.name,
                    pin.name
                );
            }
            assert!((rcell.intrinsic - cell.intrinsic).abs() < 1e-9);
            assert!((rcell.drive_res - cell.drive_res).abs() < 1e-9);
        }
    }

    /// Numbers spliced over a gate's area or a pin's field.
    const SPLICES: [&str; 6] = ["NaN", "1e999", "-0", "-1e999", "0", "1392"];

    /// Input counts of the spliced expressions, around the index's and
    /// the truth table's limits.
    const WIDTHS: [usize; 7] = [5, 6, 7, 8, 22, 23, 40];

    /// The lines of the gate block (a `GATE` line and its `PIN` lines)
    /// that `at` picks, or `None` when no line starts with `GATE`.
    fn gate_block(lines: &[String], at: usize) -> Option<std::ops::Range<usize>> {
        let gates: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with("GATE"))
            .collect();
        let start = *gates.get(at % gates.len().max(1))?;
        let end = (start + 1..lines.len())
            .find(|&i| !lines[i].trim_start().starts_with("PIN"))
            .unwrap_or(lines.len());
        Some(start..end)
    }

    /// A `width`-input expression over `w0`, `w1`, …: products of up to
    /// three literals, negated where `bits` says, summed.
    fn wide_expr(width: usize, bits: u8) -> String {
        let mut e = String::new();
        for i in 0..width {
            if i > 0 {
                e.push(if i % 3 == 0 { '+' } else { '*' });
            }
            if (bits >> (i % 8)) & 1 == 1 {
                e.push('!');
            }
            e.push_str(&format!("w{i}"));
        }
        e
    }

    /// Applies one edit to genlib text: a bit flip, a truncation, a
    /// duplicated gate block (renamed when `pick` is odd, which makes an
    /// equal-area twin), a number spliced over a field, or a wide
    /// expression spliced over a gate's function.
    fn mutate(text: &mut Vec<u8>, kind: u8, at: u16, pick: u8) {
        let at = usize::from(at);
        if kind < 2 {
            let pos = at % (text.len() + 1);
            match kind {
                0 if pos < text.len() => text[pos] ^= 1 << (pick % 8),
                _ => text.truncate(pos),
            }
            return;
        }
        let mut lines: Vec<String> = String::from_utf8_lossy(text)
            .lines()
            .map(str::to_string)
            .collect();
        let Some(block) = gate_block(&lines, at) else {
            return;
        };
        match kind {
            2 => {
                let mut copy: Vec<String> = lines[block.clone()].to_vec();
                let name = copy[0].split_whitespace().nth(1).map(str::to_string);
                if let (Some(name), 1) = (name, pick % 2) {
                    copy[0] = copy[0].replacen(&name, &format!("{name}_twin"), 1);
                }
                let end = block.end;
                lines.splice(end..end, copy);
            }
            3 => {
                let line = block.start + (at / 7) % block.len();
                let mut toks: Vec<String> = lines[line].split(' ').map(str::to_string).collect();
                let numeric: Vec<usize> = (0..toks.len())
                    .filter(|&i| toks[i].parse::<f64>().is_ok())
                    .collect();
                if let Some(&i) = numeric.get(usize::from(pick) % numeric.len().max(1)) {
                    toks[i] = SPLICES[usize::from(pick) / 8 % SPLICES.len()].to_string();
                }
                lines[line] = toks.join(" ");
            }
            _ => {
                let gate = &lines[block.start];
                let name: String = gate
                    .split_whitespace()
                    .take(3)
                    .collect::<Vec<_>>()
                    .join(" ");
                let width = WIDTHS[usize::from(pick) % WIDTHS.len()];
                lines[block.start] = format!(
                    "{name} O={};\n    PIN * UNKNOWN 1.0 999 1.0 0.2 1.0 0.2",
                    wide_expr(width, pick)
                );
            }
        }
        *text = lines.join("\n").into_bytes();
    }

    /// Sampled functions of at most 4 inputs: every function of up to 3
    /// inputs, each cell function of at most 4 inputs with its pins
    /// reversed, and `extra` as a 4-input table.
    fn sampled_functions(lib: &Library, extra: u16) -> Vec<TruthTable> {
        let mut out = Vec::new();
        for k in 0..=3usize {
            for word in 0..1u64 << (1 << k) {
                out.push(TruthTable::from_fn(k, |m| (word >> m) & 1 == 1));
            }
        }
        for (_, cell) in lib.iter() {
            let k = cell.function.vars();
            if k <= 4 {
                let reversed: Vec<usize> = (0..k).rev().collect();
                out.push(cell.function.permute(&reversed));
            }
        }
        out.push(TruthTable::from_fn(4, |m| (extra >> m) & 1 == 1));
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Bit flips, truncations, duplicated gates and spliced numbers
        /// and wide expressions applied to lib2's genlib text never panic
        /// the parser, and every library it accepts matches as the
        /// permutation search does.
        #[test]
        fn mutated_genlib_never_panics(
            edits in proptest::collection::vec(
                (0u8..5, proptest::prelude::any::<u16>(), proptest::prelude::any::<u8>()),
                1..5,
            ),
            extra in proptest::prelude::any::<u16>(),
        ) {
            let mut text = write_genlib(&crate::lib2()).into_bytes();
            for (kind, at, pick) in edits {
                mutate(&mut text, kind, at, pick);
            }
            let text = String::from_utf8_lossy(&text);
            if let Ok(lib) = parse_genlib("mutant", &text) {
                for tt in sampled_functions(&lib, extra) {
                    proptest::prop_assert_eq!(lib.match_function(&tt), lib.search(&tt), "{}", text);
                }
            }
        }
    }

    #[test]
    fn mutations_reach_twins_nan_areas_and_wide_cells() {
        let base = write_genlib(&crate::lib2()).into_bytes();
        let mut twin = base.clone();
        mutate(&mut twin, 2, 3, 1);
        let lib = parse_genlib("twin", &String::from_utf8_lossy(&twin)).unwrap();
        assert_eq!(lib.len(), crate::lib2().len() + 1);
        let mut nan = base.clone();
        mutate(&mut nan, 3, 0, 0);
        let lib = parse_genlib("nan", &String::from_utf8_lossy(&nan)).unwrap();
        assert!(lib.iter().any(|(_, c)| c.area.is_nan()));
        let mut wide = base.clone();
        mutate(&mut wide, 4, 0, 4);
        let lib = parse_genlib("wide", &String::from_utf8_lossy(&wide)).unwrap();
        assert!(lib.iter().any(|(_, c)| c.inputs() == 22));
        let mut wider = base;
        mutate(&mut wider, 4, 0, 5);
        assert!(parse_genlib("wider", &String::from_utf8_lossy(&wider)).is_err());
    }
}
