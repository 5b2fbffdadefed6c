//! Cells and libraries.

use powder_logic::TruthTable;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Widest function the match index covers: a table of up to 6
/// variables is one `u64` word.
pub const MAX_INDEXED_INPUTS: usize = 6;

/// Index of a cell within its [`Library`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CellId(pub u32);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// An input pin of a cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Pin {
    /// Pin name as declared in the library source.
    pub name: String,
    /// Input capacitance presented to the driving signal.
    pub cap: f64,
}

/// A combinational standard cell.
///
/// The cell's logic is a single-output [`TruthTable`] whose variable `i` is
/// the cell's `i`-th input pin. Delay follows the paper's linear model
/// `D = τ + R·C_load`.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Cell name, unique within its library.
    pub name: String,
    /// Gate area in library units.
    pub area: f64,
    /// The single-output Boolean function over the input pins.
    pub function: TruthTable,
    /// Input pins, in function-variable order.
    pub pins: Vec<Pin>,
    /// Intrinsic delay `τ`.
    pub intrinsic: f64,
    /// Drive resistance `R` (delay per unit of capacitive load).
    pub drive_res: f64,
}

impl Cell {
    /// Number of input pins.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.pins.len()
    }

    /// Capacitance of input pin `pin`.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range.
    #[inline]
    #[must_use]
    pub fn pin_cap(&self, pin: usize) -> f64 {
        self.pins[pin].cap
    }

    /// True if this cell is a single-input inverter.
    #[must_use]
    pub fn is_inverter(&self) -> bool {
        self.inputs() == 1 && self.function == !TruthTable::var(0, 1)
    }

    /// True if this cell is a single-input buffer.
    #[must_use]
    pub fn is_buffer(&self) -> bool {
        self.inputs() == 1 && self.function == TruthTable::var(0, 1)
    }

    /// Delay through the cell when driving `load` units of capacitance.
    #[must_use]
    pub fn delay(&self, load: f64) -> f64 {
        self.intrinsic + self.drive_res * load
    }
}

/// A successful match of a cut function against a library cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Match {
    /// The matching cell.
    pub cell: CellId,
    /// `perm[i]` is the cut-leaf index connected to cell input pin `i`.
    pub perm: Vec<usize>,
}

/// A collection of [`Cell`]s with lookup indices: by name, and by
/// function for [`Library::match_function`].
///
/// # Example
///
/// ```
/// use powder_library::lib2;
/// use powder_logic::TruthTable;
///
/// let lib = lib2();
/// // An AND2 function matches some cell (possibly via pin permutation).
/// let and2 = TruthTable::var(0, 2) & TruthTable::var(1, 2);
/// assert!(lib.match_function(&and2).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Library {
    name: String,
    cells: Vec<Cell>,
    by_name: HashMap<String, CellId>,
    inverter: Option<CellId>,
    buffer: Option<CellId>,
    /// The match of every function of at most [`MAX_INDEXED_INPUTS`]
    /// inputs that some cell implements, keyed by arity and table word.
    matches: BTreeMap<(u8, u64), Match>,
}

impl Library {
    /// Creates a library from cells.
    ///
    /// # Panics
    ///
    /// Panics if two cells share a name.
    #[must_use]
    pub fn new(name: impl Into<String>, cells: Vec<Cell>) -> Self {
        let mut by_name = HashMap::new();
        let mut inverter = None;
        let mut buffer = None;
        for (i, c) in cells.iter().enumerate() {
            let id = CellId(i as u32);
            let prev = by_name.insert(c.name.clone(), id);
            assert!(prev.is_none(), "duplicate cell name {:?}", c.name);
            // Prefer the smallest-area inverter / buffer.
            if c.is_inverter() && inverter.is_none_or(|p: CellId| cells[p.0 as usize].area > c.area)
            {
                inverter = Some(id);
            }
            if c.is_buffer() && buffer.is_none_or(|p: CellId| cells[p.0 as usize].area > c.area) {
                buffer = Some(id);
            }
        }
        Library {
            name: name.into(),
            matches: match_index(&cells),
            cells,
            by_name,
            inverter,
            buffer,
        }
    }

    /// Library name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the library has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Looks up a cell by id.
    #[must_use]
    pub fn cell(&self, id: CellId) -> Option<&Cell> {
        self.cells.get(id.0 as usize)
    }

    /// Looks up a cell by id, panicking on an invalid id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this library.
    #[must_use]
    pub fn cell_ref(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize]
    }

    /// Looks up a cell id by name.
    #[must_use]
    pub fn find_by_name(&self, name: &str) -> Option<CellId> {
        self.by_name.get(name).copied()
    }

    /// Whether the library contains an inverter cell. Check this before
    /// optimizing with a user-supplied library: [`Library::inverter`]
    /// panics when no inverter exists.
    #[must_use]
    pub fn has_inverter(&self) -> bool {
        self.inverter.is_some()
    }

    /// The smallest inverter in the library.
    ///
    /// # Panics
    ///
    /// Panics if the library has no inverter (every mapping library must).
    #[must_use]
    pub fn inverter(&self) -> CellId {
        self.inverter.expect("library has no inverter cell")
    }

    /// The smallest buffer, if the library has one.
    #[must_use]
    pub fn buffer(&self) -> Option<CellId> {
        self.buffer
    }

    /// Iterator over `(CellId, &Cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Cells with exactly `k` inputs.
    pub fn cells_with_inputs(&self, k: usize) -> impl Iterator<Item = (CellId, &Cell)> {
        self.iter().filter(move |(_, c)| c.inputs() == k)
    }

    /// Finds a cell implementing `tt` exactly, pin permutations
    /// included: the smallest-area match, and for that cell the
    /// lexicographically first permutation. Cells are taken in library
    /// order and a later one replaces the held match only at a strictly
    /// smaller area, so equal areas keep the earliest cell and a NaN area
    /// on either side keeps the held one.
    ///
    /// `tt` must use exactly the cut's leaves as variables (no dead
    /// variables); cells with a different input count are skipped. A
    /// function of at most [`MAX_INDEXED_INPUTS`] inputs costs one
    /// lookup in an index built with the library; a wider one searches
    /// the permutations of every cell of its width.
    #[must_use]
    pub fn match_function(&self, tt: &TruthTable) -> Option<Match> {
        if tt.vars() <= MAX_INDEXED_INPUTS {
            self.match_table(tt.vars(), tt.as_words()[0]).cloned()
        } else {
            self.search(tt)
        }
    }

    /// [`Library::match_function`] of the `k`-input function whose
    /// value at minterm `m` is bit `m` of `word` (bits at and above
    /// `2^k` clear), by one index lookup; `None` when `k` exceeds
    /// [`MAX_INDEXED_INPUTS`].
    #[must_use]
    pub fn match_table(&self, k: usize, word: u64) -> Option<&Match> {
        if k > MAX_INDEXED_INPUTS {
            return None;
        }
        self.matches.get(&(k as u8, word))
    }

    /// The match by search: every permutation of every cell of `tt`'s
    /// width, in cell order. It answers functions wider than the index,
    /// and tests hold the index to its choice.
    pub(crate) fn search(&self, tt: &TruthTable) -> Option<Match> {
        let k = tt.vars();
        let ones = tt.count_ones();
        let mut best: Option<(Match, f64)> = None;
        for (id, cell) in self.cells_with_inputs(k) {
            // A permutation keeps the onset size.
            if cell.function.count_ones() != ones {
                continue;
            }
            if let Some(perm) = match_with_permutation(&cell.function, tt) {
                let m = Match { cell: id, perm };
                if best.as_ref().is_none_or(|(_, a)| cell.area < *a) {
                    best = Some((m, cell.area));
                }
            }
        }
        best.map(|(m, _)| m)
    }
}

/// The match index of `cells`: for every cell of at most
/// [`MAX_INDEXED_INPUTS`] pins and every permutation of its pins, in
/// lexicographic order, the function that permutation matches. A key
/// keeps its first cell, and that cell's first permutation, unless a
/// later cell has a strictly smaller area: the choice of
/// [`Library::match_function`].
fn match_index(cells: &[Cell]) -> BTreeMap<(u8, u64), Match> {
    let mut index: BTreeMap<(u8, u64), Match> = BTreeMap::new();
    for (i, cell) in cells.iter().enumerate() {
        let k = cell.inputs();
        if k > MAX_INDEXED_INPUTS || cell.function.vars() != k {
            continue;
        }
        let id = CellId(i as u32);
        let mut perm: Vec<usize> = (0..k).collect();
        loop {
            let key = (k as u8, unpermute(cell.function.as_words()[0], &perm));
            let m = Match {
                cell: id,
                perm: perm.clone(),
            };
            match index.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(m);
                }
                Entry::Occupied(mut slot) => {
                    let held = slot.get().cell;
                    if held != id && cell.area < cells[held.0 as usize].area {
                        slot.insert(m);
                    }
                }
            }
            if !next_permutation(&mut perm) {
                break;
            }
        }
    }
    index
}

/// The table `g` over `perm.len()` variables with
/// `g.permute(perm) == f`: minterm `m` of `f` moves to the minterm with
/// bit `perm[i]` set for every bit `i` of `m`.
fn unpermute(f: u64, perm: &[usize]) -> u64 {
    let mut g = 0;
    for m in 0..1usize << perm.len() {
        if (f >> m) & 1 == 1 {
            let moved = perm
                .iter()
                .enumerate()
                .filter(|&(i, _)| (m >> i) & 1 == 1)
                .fold(0usize, |acc, (_, &p)| acc | 1 << p);
            g |= 1 << moved;
        }
    }
    g
}

/// Finds `perm` such that `cell_fn(x_0,..,x_{k-1}) == tt(x_{perm[0]},..)`,
/// i.e. cell pin `i` should be fed by cut leaf `perm[i]`.
fn match_with_permutation(cell_fn: &TruthTable, tt: &TruthTable) -> Option<Vec<usize>> {
    let k = tt.vars();
    if cell_fn.vars() != k {
        return None;
    }
    let mut perm: Vec<usize> = (0..k).collect();
    loop {
        // candidate: pin i reads leaf perm[i]; the cell then computes
        // g(leaves) with g(m) = cell_fn over pins; compare against tt:
        // tt == cell_fn with variable i renamed to perm[i].
        if &tt.permute(&perm) == cell_fn {
            return Some(perm.clone());
        }
        if !next_permutation(&mut perm) {
            return None;
        }
    }
}

/// Advances `perm` to the next lexicographic permutation; false at the end.
fn next_permutation(perm: &mut [usize]) -> bool {
    if perm.len() < 2 {
        return false;
    }
    let mut i = perm.len() - 1;
    while i > 0 && perm[i - 1] >= perm[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = perm.len() - 1;
    while perm[j] <= perm[i - 1] {
        j -= 1;
    }
    perm.swap(i - 1, j);
    perm[i..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv_cell() -> Cell {
        Cell {
            name: "inv".into(),
            area: 1.0,
            function: !TruthTable::var(0, 1),
            pins: vec![Pin {
                name: "a".into(),
                cap: 1.0,
            }],
            intrinsic: 1.0,
            drive_res: 0.5,
        }
    }

    fn andnot_cell() -> Cell {
        // f = a & !b — asymmetric, good for permutation tests
        Cell {
            name: "andnot".into(),
            area: 2.0,
            function: TruthTable::var(0, 2) & !TruthTable::var(1, 2),
            pins: vec![
                Pin {
                    name: "a".into(),
                    cap: 1.0,
                },
                Pin {
                    name: "b".into(),
                    cap: 1.0,
                },
            ],
            intrinsic: 1.5,
            drive_res: 0.4,
        }
    }

    #[test]
    fn inverter_detection_and_lookup() {
        let lib = Library::new("t", vec![andnot_cell(), inv_cell()]);
        assert_eq!(lib.inverter(), CellId(1));
        assert!(lib.cell_ref(lib.inverter()).is_inverter());
        assert_eq!(lib.find_by_name("andnot"), Some(CellId(0)));
        assert_eq!(lib.find_by_name("nope"), None);
    }

    #[test]
    fn delay_linear_model() {
        let c = inv_cell();
        assert!((c.delay(4.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn match_identity_permutation() {
        let lib = Library::new("t", vec![andnot_cell(), inv_cell()]);
        let f = TruthTable::var(0, 2) & !TruthTable::var(1, 2);
        let m = lib.match_function(&f).expect("must match");
        assert_eq!(m.cell, CellId(0));
        assert_eq!(m.perm, vec![0, 1]);
    }

    #[test]
    fn match_swapped_permutation() {
        let lib = Library::new("t", vec![andnot_cell(), inv_cell()]);
        // g = !a & b = andnot with pins swapped: pin0 (positive) ← leaf 1
        let g = !TruthTable::var(0, 2) & TruthTable::var(1, 2);
        let m = lib.match_function(&g).expect("must match via permutation");
        assert_eq!(m.cell, CellId(0));
        assert_eq!(m.perm, vec![1, 0]);
        // Verify the permutation semantics explicitly: feeding pin i from
        // leaf perm[i] reproduces g.
        let cell = lib.cell_ref(m.cell);
        let subs: Vec<TruthTable> = m
            .perm
            .iter()
            .map(|&leaf| TruthTable::var(leaf, 2))
            .collect();
        assert_eq!(cell.function.compose(&subs), g);
    }

    #[test]
    fn no_match_for_unimplemented_function() {
        let lib = Library::new("t", vec![inv_cell()]);
        let xor = TruthTable::var(0, 2) ^ TruthTable::var(1, 2);
        assert!(lib.match_function(&xor).is_none());
    }

    /// Checks the index against the permutation search on every
    /// function of 1 to 4 inputs (65,812 of them) and on the two
    /// constants; returns how many have a match.
    fn assert_index_is_search(lib: &Library) -> usize {
        let mut matched = 0;
        for k in 0..=4usize {
            for word in 0..1u64 << (1 << k) {
                let tt = TruthTable::from_fn(k, |m| (word >> m) & 1 == 1);
                let got = lib.match_function(&tt);
                assert_eq!(got, lib.search(&tt), "{k} inputs, table {word:#x}");
                matched += usize::from(got.is_some());
            }
        }
        matched
    }

    #[test]
    fn index_is_search_on_lib2() {
        assert_eq!(assert_index_is_search(&crate::lib2()), 38);
    }

    /// Twins: cells of one function at one area, some with their pins
    /// in another order, beside NaN areas (first and later) and a later,
    /// cheaper copy.
    const TWINS: &str = "
GATE inv1   928  O=!a;                 PIN * INV 1.0 999 0.9 0.30 0.9 0.30
GATE nand2  1392 O=!(a*b);             PIN * INV 1.0 999 1.0 0.25 1.0 0.25
GATE nand2b 1392 O=!(b*a);             PIN * INV 1.0 999 1.0 0.25 1.0 0.25
GATE andn2  1856 O=a*!b;               PIN * NONINV 1.0 999 1.6 0.25 1.6 0.25
GATE nandn2 1856 O=!b*a;               PIN * NONINV 1.0 999 1.6 0.25 1.6 0.25
GATE aoi21  1856 O=!(a*b + c);         PIN * INV 1.0 999 1.3 0.30 1.3 0.30
GATE aoi21b 1856 O=!(c + b*a);         PIN * INV 1.0 999 1.3 0.30 1.3 0.30
GATE maj3   NaN  O=a*b + a*c + b*c;    PIN * NONINV 1.0 999 1.3 0.30 1.3 0.30
GATE maj3b  2000 O=a*b + b*c + a*c;    PIN * NONINV 1.0 999 1.3 0.30 1.3 0.30
GATE xor2   2784 O=a*!b + !a*b;        PIN * UNKNOWN 2.0 999 1.9 0.30 1.9 0.30
GATE xor2b  NaN  O=a*!b + !a*b;        PIN * UNKNOWN 2.0 999 1.9 0.30 1.9 0.30
GATE or2    1856 O=a+b;                PIN * NONINV 1.0 999 1.7 0.26 1.7 0.26
GATE or2c   1000 O=a+b;                PIN * NONINV 1.0 999 1.7 0.26 1.7 0.26
GATE aoi22  2320 O=!(a*b + c*d);       PIN * INV 1.0 999 1.5 0.32 1.5 0.32
GATE oai22  2320 O=!((a+b)*(c+d));     PIN * INV 1.0 999 1.5 0.32 1.5 0.32
GATE oai22b 2320 O=!((c+d)*(b+a));     PIN * INV 1.0 999 1.5 0.32 1.5 0.32
GATE mux21  2784 O=s*a + !s*b;         PIN * UNKNOWN 1.0 999 1.8 0.30 1.8 0.30
GATE zero   0    O=CONST0;
";

    #[test]
    fn index_is_search_over_twins() {
        let lib = crate::genlib::parse_genlib("twins", TWINS).expect("valid genlib");
        assert_eq!(assert_index_is_search(&lib), 23);
        let name = |tt: TruthTable| {
            let m = lib.match_function(&tt).expect("a match");
            (lib.cell_ref(m.cell).name.as_str(), m.perm)
        };
        let (a, b, c) = (
            TruthTable::var(0, 3),
            TruthTable::var(1, 3),
            TruthTable::var(2, 3),
        );
        let (x, y) = (TruthTable::var(0, 2), TruthTable::var(1, 2));
        // Equal areas keep the earliest cell, at its first permutation.
        assert_eq!(name(!(&x & &y)), ("nand2", vec![0, 1]));
        assert_eq!(name(&y & &!x.clone()), ("andn2", vec![1, 0]));
        assert_eq!(name(!(&(&c & &b) | &a)), ("aoi21", vec![1, 2, 0]));
        // A first NaN area is never replaced; a later one never wins.
        let maj = &(&(&a & &b) | &(&a & &c)) | &(&b & &c);
        assert_eq!(name(maj), ("maj3", vec![0, 1, 2]));
        assert_eq!(name(&x ^ &y), ("xor2", vec![0, 1]));
        // A strictly smaller later area wins.
        assert_eq!(name(&x | &y), ("or2c", vec![0, 1]));
        assert_eq!(name(TruthTable::zero(0)), ("zero", vec![]));
    }

    /// Five- and six-pin cells: the index keeps the search's choice on
    /// every sampled permutation of their functions.
    #[test]
    fn index_is_search_on_wide_cells() {
        let lib = crate::genlib::parse_genlib(
            "wide",
            "
GATE and5   3248 O=a*b*c*d*e;          PIN * NONINV 1.0 999 2.2 0.30 2.2 0.30
GATE aoi33  2784 O=!(a*b*c + d*e*f);   PIN * INV 1.0 999 1.7 0.34 1.7 0.34
GATE mix6   2784 O=a*!b + c*d*!e + f;  PIN * INV 1.0 999 1.7 0.34 1.7 0.34
GATE mix6b  2784 O=f + c*d*!e + a*!b;  PIN * INV 1.0 999 1.7 0.34 1.7 0.34
",
        )
        .expect("valid genlib");
        let mut checked = 0;
        for (_, cell) in lib.iter() {
            let k = cell.inputs();
            let mut perm: Vec<usize> = (0..k).collect();
            let mut step = 0;
            loop {
                if step % 37 == 0 {
                    let tt = cell.function.permute(&perm);
                    let got = lib.match_function(&tt);
                    assert!(got.is_some());
                    assert_eq!(got, lib.search(&tt), "{} under {perm:?}", cell.name);
                    checked += 1;
                }
                step += 1;
                if !next_permutation(&mut perm) {
                    break;
                }
            }
        }
        assert!(checked > 40);
        let seven = TruthTable::from_fn(7, |m| m == 127);
        assert_eq!(lib.match_table(7, 1), None);
        assert_eq!(lib.match_function(&seven), None);
    }

    #[test]
    fn next_permutation_order() {
        let mut p = vec![0, 1, 2];
        let mut seen = vec![p.clone()];
        while next_permutation(&mut p) {
            seen.push(p.clone());
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(seen.last().unwrap(), &vec![2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "duplicate cell name")]
    fn duplicate_names_panic() {
        let _ = Library::new("t", vec![inv_cell(), inv_cell()]);
    }
}
