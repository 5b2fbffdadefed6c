//! The netlist data structure and its editing operations.
//!
//! Storage is a struct-of-arrays arena ([`GateColumns`]): one dense column
//! per gate attribute (name, kind, liveness, fanin CSR, input-pin
//! capacitances, fanout branches) indexed by [`GateId`]. Hot traversals —
//! simulation, timing, power, ATPG cone walks — touch only the columns
//! they need instead of striding over a wide `Gate` struct. The public
//! API is unchanged: everything goes through [`GateId`] accessors.

use crate::dirty::EditJournal;
use powder_library::{CellId, Library};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Index of a gate within a [`Netlist`]. Stable across edits; removed gates
/// leave tombstones.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GateId(pub u32);

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// What a gate is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GateKind {
    /// Primary input (no fanins).
    Input,
    /// Primary output marker (exactly one fanin, no cell).
    Output,
    /// A constant driver (no fanins).
    Const(bool),
    /// An instance of a library cell.
    Cell(CellId),
}

/// A fanout connection: the branch signal `(sink gate, sink input pin)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Conn {
    /// The gate the branch feeds.
    pub gate: GateId,
    /// Which input pin of `gate` the branch drives.
    pub pin: u32,
}

/// Struct-of-arrays gate storage. Fanins are a CSR pool: a gate's fanin
/// list is fixed-size after creation (rewires mutate pins in place, sweeps
/// zero the length), so `(offset, len)` into a shared pool never needs to
/// grow per gate. Input-pin capacitances live in a pool parallel to the
/// fanin pool so load computations read a dense `f64` column instead of
/// chasing library cell pointers. Fanout lists push/swap-remove
/// dynamically and stay per-gate `Vec`s.
#[derive(Clone, Debug, Default)]
pub(crate) struct GateColumns {
    names: Vec<String>,
    kinds: Vec<GateKind>,
    alive: Vec<bool>,
    fanin_off: Vec<u32>,
    fanin_len: Vec<u32>,
    fanin_pool: Vec<GateId>,
    pin_cap_pool: Vec<f64>,
    fanouts: Vec<Vec<Conn>>,
}

impl GateColumns {
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Appends a fully-formed slot (used by the snapshot reader, which
    /// reconstructs tombstones and fanout lists verbatim).
    pub(crate) fn push_slot(
        &mut self,
        name: String,
        kind: GateKind,
        fanins: &[GateId],
        pin_caps: &[f64],
        fanouts: Vec<Conn>,
        alive: bool,
    ) {
        debug_assert_eq!(fanins.len(), pin_caps.len());
        let off = self.fanin_pool.len() as u32;
        self.fanin_pool.extend_from_slice(fanins);
        self.pin_cap_pool.extend_from_slice(pin_caps);
        self.fanin_off.push(off);
        self.fanin_len.push(fanins.len() as u32);
        self.names.push(name);
        self.kinds.push(kind);
        self.alive.push(alive);
        self.fanouts.push(fanouts);
    }

    pub(crate) fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    #[inline]
    pub(crate) fn kind(&self, i: usize) -> GateKind {
        self.kinds[i]
    }

    #[inline]
    pub(crate) fn alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    #[inline]
    pub(crate) fn fanins(&self, i: usize) -> &[GateId] {
        let off = self.fanin_off[i] as usize;
        &self.fanin_pool[off..off + self.fanin_len[i] as usize]
    }

    #[inline]
    pub(crate) fn fanouts(&self, i: usize) -> &[Conn] {
        &self.fanouts[i]
    }

    #[inline]
    fn pin_cap(&self, i: usize, pin: usize) -> f64 {
        debug_assert!(pin < self.fanin_len[i] as usize);
        self.pin_cap_pool[self.fanin_off[i] as usize + pin]
    }

    fn set_fanin(&mut self, i: usize, pin: usize, src: GateId) {
        debug_assert!(pin < self.fanin_len[i] as usize);
        self.fanin_pool[self.fanin_off[i] as usize + pin] = src;
    }
}

/// Structural error reported by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistError {
    /// Description of the inconsistency.
    pub message: String,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist error: {}", self.message)
    }
}

impl std::error::Error for NetlistError {}

/// Per-column memory accounting for the struct-of-arrays arena, exported
/// through the `netlist.arena.*` observability gauges. Byte figures count
/// occupied entries (`len`-based), not reserved capacity, so they are
/// deterministic for a given edit sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArenaStats {
    /// Total slots ever allocated (live + tombstones).
    pub slots: usize,
    /// Live slots.
    pub live: usize,
    /// Tombstoned slots.
    pub dead: usize,
    /// Entries in the shared fanin CSR pool.
    pub fanin_pool: usize,
    /// Fanout branch records across all gates.
    pub fanout_branches: usize,
    /// Bytes occupied by all columns (names, kinds, liveness, fanin CSR,
    /// pin-cap pool, fanout lists).
    pub column_bytes: usize,
}

/// A combinational mapped netlist over a shared [`Library`].
#[derive(Clone)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) library: Arc<Library>,
    pub(crate) cols: GateColumns,
    pub(crate) inputs: Vec<GateId>,
    pub(crate) outputs: Vec<GateId>,
    pub(crate) names: HashMap<String, GateId>,
    pub(crate) live: usize,
    pub(crate) journal: EditJournal,
}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Netlist({:?}: {} inputs, {} outputs, {} live gates)",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.live
        )
    }
}

impl Netlist {
    /// Creates an empty netlist over `library`.
    #[must_use]
    pub fn new(name: impl Into<String>, library: Arc<Library>) -> Self {
        Netlist {
            name: name.into(),
            library,
            cols: GateColumns::default(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            names: HashMap::new(),
            live: 0,
            journal: EditJournal::default(),
        }
    }

    /// Netlist name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The library this netlist is mapped to.
    #[must_use]
    pub fn library(&self) -> &Arc<Library> {
        &self.library
    }

    fn push_gate(&mut self, name: String, kind: GateKind, fanins: Vec<GateId>) -> GateId {
        let id = GateId(self.cols.len() as u32);
        let unique = if self.names.contains_key(&name) {
            format!("{name}${}", id.0)
        } else {
            name
        };
        self.names.insert(unique.clone(), id);
        let caps = self.pin_caps_for(kind, fanins.len());
        self.cols
            .push_slot(unique, kind, &fanins, &caps, Vec::new(), true);
        self.live += 1;
        self.journal.generation += 1;
        self.journal.touch(id);
        for (pin, &src) in fanins.iter().enumerate() {
            assert!(self.cols.alive(src.0 as usize), "fanin {src} is dead");
            self.cols.fanouts[src.0 as usize].push(Conn {
                gate: id,
                pin: pin as u32,
            });
            // The source gained a fanout branch: its load changed.
            self.journal.touch(src);
        }
        id
    }

    /// Input-pin capacitances for a new gate, copied once from the library
    /// into the dense pin-cap column. Output markers carry a zero (their
    /// branch cap is the caller-supplied output load).
    pub(crate) fn pin_caps_for(&self, kind: GateKind, pins: usize) -> Vec<f64> {
        match kind {
            GateKind::Cell(c) => {
                let cell = self.library.cell_ref(c);
                (0..pins).map(|p| cell.pin_cap(p)).collect()
            }
            _ => vec![0.0; pins],
        }
    }

    /// Adds a primary input.
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        let id = self.push_gate(name.into(), GateKind::Input, Vec::new());
        self.inputs.push(id);
        id
    }

    /// Adds a primary output fed by `src`.
    pub fn add_output(&mut self, name: impl Into<String>, src: GateId) -> GateId {
        let id = self.push_gate(name.into(), GateKind::Output, vec![src]);
        self.outputs.push(id);
        id
    }

    /// Adds a constant driver.
    pub fn add_const(&mut self, name: impl Into<String>, value: bool) -> GateId {
        self.push_gate(name.into(), GateKind::Const(value), Vec::new())
    }

    /// Adds a library-cell instance.
    ///
    /// # Panics
    ///
    /// Panics if `fanins.len()` does not match the cell's input count or the
    /// cell id is invalid.
    pub fn add_cell(&mut self, name: impl Into<String>, cell: CellId, fanins: &[GateId]) -> GateId {
        let c = self.library.cell(cell).expect("invalid cell id");
        assert_eq!(
            c.inputs(),
            fanins.len(),
            "cell {} expects {} inputs, got {}",
            c.name,
            c.inputs(),
            fanins.len()
        );
        self.push_gate(name.into(), GateKind::Cell(cell), fanins.to_vec())
    }

    /// Primary inputs, in creation order.
    #[must_use]
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs, in creation order.
    #[must_use]
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Whether `id` refers to a live (not removed) gate.
    #[inline]
    #[must_use]
    pub fn is_live(&self, id: GateId) -> bool {
        self.cols.alive.get(id.0 as usize).copied().unwrap_or(false)
    }

    /// Number of live gates (including input/output/const pseudo-gates).
    #[must_use]
    pub fn live_gate_count(&self) -> usize {
        self.live
    }

    /// Number of live library-cell instances.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.iter_live()
            .filter(|&id| matches!(self.kind(id), GateKind::Cell(_)))
            .count()
    }

    /// Upper bound (exclusive) of gate ids ever allocated; dead ids below
    /// this bound are tombstones.
    #[must_use]
    pub fn id_bound(&self) -> usize {
        self.cols.len()
    }

    /// Iterator over live gate ids, ascending.
    pub fn iter_live(&self) -> impl Iterator<Item = GateId> + '_ {
        self.cols
            .alive
            .iter()
            .enumerate()
            .filter(|(_, &alive)| alive)
            .map(|(i, _)| GateId(i as u32))
    }

    #[inline]
    fn idx(&self, id: GateId) -> usize {
        let i = id.0 as usize;
        assert!(self.cols.alive(i), "gate {id} has been removed");
        i
    }

    /// Gate name.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead or out of range (as do all accessors below).
    #[must_use]
    pub fn gate_name(&self, id: GateId) -> &str {
        self.cols.name(self.idx(id))
    }

    /// Gate kind.
    #[inline]
    #[must_use]
    pub fn kind(&self, id: GateId) -> GateKind {
        self.cols.kind(self.idx(id))
    }

    /// The cell id of a cell instance, `None` for pseudo-gates.
    #[inline]
    #[must_use]
    pub fn cell_id(&self, id: GateId) -> Option<CellId> {
        match self.kind(id) {
            GateKind::Cell(c) => Some(c),
            _ => None,
        }
    }

    /// Fanin gates, in pin order.
    #[inline]
    #[must_use]
    pub fn fanins(&self, id: GateId) -> &[GateId] {
        self.cols.fanins(self.idx(id))
    }

    /// Fanout branches.
    #[inline]
    #[must_use]
    pub fn fanouts(&self, id: GateId) -> &[Conn] {
        self.cols.fanouts(self.idx(id))
    }

    /// Looks up a gate by name.
    #[must_use]
    pub fn find_by_name(&self, name: &str) -> Option<GateId> {
        self.names.get(name).copied().filter(|&id| self.is_live(id))
    }

    /// Total area of live cell instances.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.iter_live()
            .filter_map(|id| self.cell_id(id))
            .map(|c| self.library.cell_ref(c).area)
            .sum()
    }

    /// Capacitive load driven by the stem of `id`: the sum of the input-pin
    /// capacitances of its sinks, with primary-output sinks contributing
    /// `output_load` each.
    #[inline]
    #[must_use]
    pub fn load_cap(&self, id: GateId, output_load: f64) -> f64 {
        self.cols
            .fanouts(self.idx(id))
            .iter()
            .map(|c| self.branch_cap(c, output_load))
            .sum()
    }

    /// Capacitance of one branch (one sink pin).
    #[inline]
    #[must_use]
    pub fn branch_cap(&self, conn: &Conn, output_load: f64) -> f64 {
        let i = self.idx(conn.gate);
        match self.cols.kind(i) {
            GateKind::Output => output_load,
            GateKind::Cell(_) => self.cols.pin_cap(i, conn.pin as usize),
            GateKind::Input | GateKind::Const(_) => {
                unreachable!("inputs and constants have no input pins")
            }
        }
    }

    /// Per-column occupancy of the struct-of-arrays arena (feeds the
    /// `netlist.arena.*` gauges).
    #[must_use]
    pub fn arena_stats(&self) -> ArenaStats {
        let cols = &self.cols;
        let slots = cols.len();
        let fanout_branches: usize = cols.fanouts.iter().map(Vec::len).sum();
        let name_bytes: usize = cols.names.iter().map(String::len).sum();
        let column_bytes = name_bytes
            + slots * std::mem::size_of::<String>()
            + slots * std::mem::size_of::<GateKind>()
            + slots // alive: Vec<bool>
            + slots * 2 * std::mem::size_of::<u32>() // fanin_off + fanin_len
            + cols.fanin_pool.len() * std::mem::size_of::<GateId>()
            + cols.pin_cap_pool.len() * std::mem::size_of::<f64>()
            + slots * std::mem::size_of::<Vec<Conn>>()
            + fanout_branches * std::mem::size_of::<Conn>();
        ArenaStats {
            slots,
            live: self.live,
            dead: slots - self.live,
            fanin_pool: cols.fanin_pool.len(),
            fanout_branches,
            column_bytes,
        }
    }

    // ------------------------------------------------------------------
    // Editing operations
    // ------------------------------------------------------------------

    /// Rewires input pin `pin` of `sink` from its current driver to
    /// `new_src` (the IS2 primitive). Returns the previous driver.
    ///
    /// # Panics
    ///
    /// Panics if the pin is out of range or `new_src` is dead.
    pub fn replace_fanin(&mut self, sink: GateId, pin: u32, new_src: GateId) -> GateId {
        let _ = self.idx(new_src);
        let old = self.cols.fanins(sink.0 as usize)[pin as usize];
        if old == new_src {
            return old;
        }
        // remove the branch from the old driver
        let conn = Conn { gate: sink, pin };
        let fo = &mut self.cols.fanouts[old.0 as usize];
        let idx = fo
            .iter()
            .position(|c| *c == conn)
            .expect("fanout list out of sync");
        fo.swap_remove(idx);
        // attach to the new driver
        self.cols.fanouts[new_src.0 as usize].push(conn);
        self.cols.set_fanin(sink.0 as usize, pin as usize, new_src);
        self.journal.generation += 1;
        self.journal.touch(old);
        self.journal.touch(new_src);
        self.journal.touch(sink);
        old
    }

    /// Moves every fanout branch of stem `a` onto stem `b` (the OS2
    /// primitive). `a` keeps its fanins but becomes fanout-free (dangling).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either gate is dead.
    pub fn replace_all_fanouts(&mut self, a: GateId, b: GateId) {
        assert_ne!(a, b, "cannot substitute a signal by itself");
        let _ = self.idx(a);
        let _ = self.idx(b);
        let moved = std::mem::take(&mut self.cols.fanouts[a.0 as usize]);
        self.journal.generation += 1;
        self.journal.touch(a);
        self.journal.touch(b);
        for conn in &moved {
            self.cols
                .set_fanin(conn.gate.0 as usize, conn.pin as usize, b);
            self.journal.touch(conn.gate);
        }
        self.cols.fanouts[b.0 as usize].extend(moved);
    }

    /// The maximum fanout-free cone of `root`: the set of gates (including
    /// `root`) that become dangling if `root` loses all its fanouts. This is
    /// the region the paper's `PG_A` accounts for. Pseudo-gates (inputs,
    /// constants) are never included.
    #[must_use]
    pub fn mffc(&self, root: GateId) -> Vec<GateId> {
        if !matches!(self.kind(root), GateKind::Cell(_)) {
            return Vec::new();
        }
        let mut in_cone: HashMap<GateId, ()> = HashMap::new();
        let mut cone = vec![root];
        in_cone.insert(root, ());
        // Process in discovery order; a fanin joins the cone if all its
        // fanouts lead into the cone. Iterate to fixpoint (discovery order
        // is enough because we re-check candidates each round).
        let mut changed = true;
        while changed {
            changed = false;
            let snapshot: Vec<GateId> = cone.clone();
            for g in snapshot {
                for &fi in self.fanins(g) {
                    if in_cone.contains_key(&fi) {
                        continue;
                    }
                    if !matches!(self.kind(fi), GateKind::Cell(_)) {
                        continue;
                    }
                    let fo = self.fanouts(fi);
                    let all_inside = fo.iter().all(|c| in_cone.contains_key(&c.gate));
                    if all_inside && !fo.is_empty() {
                        in_cone.insert(fi, ());
                        cone.push(fi);
                        changed = true;
                    }
                }
            }
        }
        cone
    }

    /// Removes `seed` and everything upstream that becomes dangling, if
    /// `seed` currently has no fanouts. Primary inputs and outputs are
    /// never removed; dangling constants are. Returns the removed gate ids.
    pub fn sweep_from(&mut self, seed: GateId) -> Vec<GateId> {
        let mut removed = Vec::new();
        let mut stack = vec![seed];
        while let Some(id) = stack.pop() {
            let i = id.0 as usize;
            if !self.cols.alive(i)
                || !self.cols.fanouts[i].is_empty()
                || !matches!(self.cols.kind(i), GateKind::Cell(_) | GateKind::Const(_))
            {
                continue;
            }
            let fanins = self.cols.fanins(i).to_vec();
            for (pin, &src) in fanins.iter().enumerate() {
                let conn = Conn {
                    gate: id,
                    pin: pin as u32,
                };
                let fo = &mut self.cols.fanouts[src.0 as usize];
                if let Some(idx) = fo.iter().position(|c| *c == conn) {
                    fo.swap_remove(idx);
                }
                // The source lost a fanout branch: its load changed.
                self.journal.touch(src);
                stack.push(src);
            }
            self.cols.alive[i] = false;
            self.cols.fanin_len[i] = 0;
            self.live -= 1;
            self.journal.removed.push(id);
            removed.push(id);
        }
        if !removed.is_empty() {
            self.journal.generation += 1;
        }
        removed
    }

    /// Checks structural consistency: pin counts, fanin/fanout symmetry,
    /// liveness, acyclicity, and output/input arity.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let fail = |message: String| Err(NetlistError { message });
        for id in self.iter_live() {
            let i = id.0 as usize;
            let fanins = self.cols.fanins(i);
            let fanouts = self.cols.fanouts(i);
            match self.cols.kind(i) {
                GateKind::Input | GateKind::Const(_) => {
                    if !fanins.is_empty() {
                        return fail(format!("{id} is a source but has fanins"));
                    }
                }
                GateKind::Output => {
                    if fanins.len() != 1 {
                        return fail(format!("output {id} must have exactly one fanin"));
                    }
                    if !fanouts.is_empty() {
                        return fail(format!("output {id} must not have fanouts"));
                    }
                }
                GateKind::Cell(c) => {
                    let cell = self.library.cell(c).ok_or(NetlistError {
                        message: format!("{id} references invalid cell {c}"),
                    })?;
                    if cell.inputs() != fanins.len() {
                        return fail(format!(
                            "{id} ({}) has {} fanins, cell wants {}",
                            cell.name,
                            fanins.len(),
                            cell.inputs()
                        ));
                    }
                }
            }
            for (pin, &src) in fanins.iter().enumerate() {
                if !self.is_live(src) {
                    return fail(format!("{id} pin {pin} driven by dead gate {src}"));
                }
                let conn = Conn {
                    gate: id,
                    pin: pin as u32,
                };
                if !self.cols.fanouts(src.0 as usize).contains(&conn) {
                    return fail(format!("{src} missing fanout record for {id}.{pin}"));
                }
            }
            for c in fanouts {
                if !self.is_live(c.gate) {
                    return fail(format!("{id} fans out to dead gate {}", c.gate));
                }
                if self.cols.fanins(c.gate.0 as usize).get(c.pin as usize) != Some(&id) {
                    return fail(format!("{id} fanout record to {}.{} stale", c.gate, c.pin));
                }
            }
        }
        if self.topo_order_checked().is_none() {
            return fail("netlist contains a combinational cycle".into());
        }
        Ok(())
    }
}

/// One gate row captured by a [`Checkpoint`]: everything a rollback needs
/// to restore the slot across the columns (the pin-cap column is immutable
/// per slot — a gate's cell never changes in place — so it is not saved).
#[derive(Clone, Debug)]
struct SavedGate {
    id: GateId,
    name: String,
    kind: GateKind,
    alive: bool,
    fanins: Vec<GateId>,
    fanouts: Vec<Conn>,
}

/// A cheap transactional checkpoint of a [`Netlist`]: the journal
/// watermark (generation plus pending-record lengths), the container
/// lengths (including the fanin-pool watermark of the column arena), and
/// deep copies of exactly the gate rows the pending edit may write. Taken
/// with [`Netlist::checkpoint`] immediately before an edit;
/// [`Netlist::rollback`] consumes it to restore the pre-edit state
/// bit-for-bit — including the generation counter, so analysis caches
/// keyed on `(generation, id_bound)` remain valid after the rollback.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    generation: u64,
    gate_bound: usize,
    pool_bound: usize,
    live: usize,
    inputs_len: usize,
    outputs_len: usize,
    touched_len: usize,
    removed_len: usize,
    saved: Vec<SavedGate>,
}

impl Checkpoint {
    /// Number of gate records captured in this checkpoint.
    #[must_use]
    pub fn saved_gates(&self) -> usize {
        self.saved.len()
    }

    /// Generation the netlist will return to on rollback.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl Netlist {
    /// Captures a transactional checkpoint covering `roots`.
    ///
    /// The caller contract: the edit about to run may only mutate gates
    /// in `roots` and *create* new gates (ids at or above the current
    /// [`Netlist::id_bound`]). Under that contract [`Netlist::rollback`]
    /// restores the exact pre-edit netlist. Gates outside `roots` that
    /// the edit writes anyway are silently left in their post-edit
    /// state — compute the write set conservatively.
    ///
    /// Cost is `O(|roots|)` gate-row copies plus a few scalars; nothing is
    /// copied for the (typically much larger) untouched remainder.
    #[must_use]
    pub fn checkpoint(&self, roots: &[GateId]) -> Checkpoint {
        Checkpoint {
            generation: self.journal.generation,
            gate_bound: self.cols.len(),
            pool_bound: self.cols.fanin_pool.len(),
            live: self.live,
            inputs_len: self.inputs.len(),
            outputs_len: self.outputs.len(),
            touched_len: self.journal.touched.len(),
            removed_len: self.journal.removed.len(),
            saved: roots
                .iter()
                .map(|&id| {
                    let i = id.0 as usize;
                    SavedGate {
                        id,
                        name: self.cols.names[i].clone(),
                        kind: self.cols.kinds[i],
                        alive: self.cols.alive[i],
                        fanins: self.cols.fanins(i).to_vec(),
                        fanouts: self.cols.fanouts[i].clone(),
                    }
                })
                .collect(),
        }
    }

    /// Restores the state captured by [`Netlist::checkpoint`], undoing
    /// every edit since — gate creations are dropped (their names are
    /// released, their column tails truncated), mutated and tombstoned
    /// gates are restored from the saved rows, and the journal (records
    /// *and* generation) rewinds to the watermark.
    pub fn rollback(&mut self, cp: Checkpoint) {
        for name in &self.cols.names[cp.gate_bound..] {
            self.names.remove(name);
        }
        let cols = &mut self.cols;
        cols.names.truncate(cp.gate_bound);
        cols.kinds.truncate(cp.gate_bound);
        cols.alive.truncate(cp.gate_bound);
        cols.fanin_off.truncate(cp.gate_bound);
        cols.fanin_len.truncate(cp.gate_bound);
        cols.fanouts.truncate(cp.gate_bound);
        cols.fanin_pool.truncate(cp.pool_bound);
        cols.pin_cap_pool.truncate(cp.pool_bound);
        for saved in cp.saved {
            let i = saved.id.0 as usize;
            cols.names[i] = saved.name;
            cols.kinds[i] = saved.kind;
            cols.alive[i] = saved.alive;
            cols.fanin_len[i] = saved.fanins.len() as u32;
            let off = cols.fanin_off[i] as usize;
            cols.fanin_pool[off..off + saved.fanins.len()].copy_from_slice(&saved.fanins);
            cols.fanouts[i] = saved.fanouts;
        }
        self.inputs.truncate(cp.inputs_len);
        self.outputs.truncate(cp.outputs_len);
        self.live = cp.live;
        self.journal.touched.truncate(cp.touched_len);
        self.journal.removed.truncate(cp.removed_len);
        self.journal.generation = cp.generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;

    fn small() -> (Netlist, GateId, GateId, GateId, GateId) {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", or2, &[g1, b]);
        nl.add_output("f", g2);
        (nl, a, b, g1, g2)
    }

    #[test]
    fn build_and_validate() {
        let (nl, a, _b, g1, g2) = small();
        nl.validate().unwrap();
        assert_eq!(nl.fanins(g2), &[g1, nl.inputs()[1]]);
        assert_eq!(nl.fanouts(a), &[Conn { gate: g1, pin: 0 }]);
        assert_eq!(nl.cell_count(), 2);
        assert!(nl.area() > 0.0);
    }

    #[test]
    fn unique_names() {
        let lib = Arc::new(lib2());
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("x");
        let b = nl.add_input("x");
        assert_ne!(nl.gate_name(a), nl.gate_name(b));
        assert_eq!(nl.find_by_name("x"), Some(a));
    }

    #[test]
    fn replace_fanin_moves_branch() {
        let (mut nl, a, b, g1, g2) = small();
        // g2 pin0 currently g1; rewire to a
        let old = nl.replace_fanin(g2, 0, a);
        assert_eq!(old, g1);
        nl.validate().unwrap();
        assert_eq!(nl.fanins(g2)[0], a);
        assert!(nl.fanouts(g1).is_empty());
        assert_eq!(nl.fanouts(a).len(), 2);
        let _ = b;
    }

    #[test]
    fn replace_all_fanouts_and_sweep() {
        let (mut nl, a, b, g1, g2) = small();
        nl.replace_all_fanouts(g1, a);
        assert!(nl.fanouts(g1).is_empty());
        assert_eq!(nl.fanins(g2)[0], a);
        let removed = nl.sweep_from(g1);
        assert_eq!(removed, vec![g1]);
        assert!(!nl.is_live(g1));
        nl.validate().unwrap();
        // inputs a,b survive
        assert!(nl.is_live(a) && nl.is_live(b));
    }

    #[test]
    fn sweep_cascades_through_chain() {
        let lib = Arc::new(lib2());
        let inv = lib.find_by_name("inv1").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let g1 = nl.add_cell("g1", inv, &[a]);
        let g2 = nl.add_cell("g2", inv, &[g1]);
        let g3 = nl.add_cell("g3", inv, &[g2]);
        let o = nl.add_output("f", g3);
        // Rewire output to a, leaving the whole chain dangling.
        nl.replace_fanin(o, 0, a);
        let removed = nl.sweep_from(g3);
        assert_eq!(removed.len(), 3);
        nl.validate().unwrap();
        assert_eq!(nl.cell_count(), 0);
    }

    #[test]
    fn sweep_stops_at_shared_logic() {
        let (mut nl, a, _b, g1, g2) = small();
        // add a second user of g1
        let lib = nl.library().clone();
        let inv = lib.find_by_name("inv1").unwrap();
        let g3 = nl.add_cell("g3", inv, &[g1]);
        nl.add_output("f2", g3);
        // detach g2's use of g1
        nl.replace_fanin(g2, 0, a);
        let removed = nl.sweep_from(g1);
        assert!(removed.is_empty(), "g1 still feeds g3");
        nl.validate().unwrap();
    }

    #[test]
    fn mffc_of_tree_is_whole_tree() {
        let (nl, _a, _b, g1, g2) = small();
        let cone = nl.mffc(g2);
        assert!(cone.contains(&g2));
        assert!(cone.contains(&g1));
        assert_eq!(cone.len(), 2);
    }

    #[test]
    fn mffc_excludes_shared_gates() {
        let (mut nl, _a, _b, g1, g2) = small();
        let lib = nl.library().clone();
        let inv = lib.find_by_name("inv1").unwrap();
        let g3 = nl.add_cell("g3", inv, &[g1]);
        nl.add_output("f2", g3);
        let cone = nl.mffc(g2);
        assert_eq!(cone, vec![g2], "g1 is shared with g3");
    }

    #[test]
    fn load_cap_sums_pins() {
        let (nl, _a, b, _g1, g2) = small();
        // b feeds and2 pin (1.0) and or2 pin (1.0)
        assert!((nl.load_cap(b, 3.0) - 2.0).abs() < 1e-9);
        // g2 feeds one PO with output load 3.0
        assert!((nl.load_cap(g2, 3.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn validate_catches_arity_mismatch() {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            nl.add_cell("g", and2, &[a]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn const_gates() {
        let lib = Arc::new(lib2());
        let mut nl = Netlist::new("t", lib);
        let k = nl.add_const("one", true);
        nl.add_output("f", k);
        nl.validate().unwrap();
        assert_eq!(nl.kind(k), GateKind::Const(true));
    }

    #[test]
    fn arena_stats_track_liveness_and_pools() {
        let (mut nl, _a, _b, g1, g2) = small();
        let s = nl.arena_stats();
        assert_eq!(s.slots, 5);
        assert_eq!(s.live, 5);
        assert_eq!(s.dead, 0);
        // fanins: g1(2) + g2(2) + output(1)
        assert_eq!(s.fanin_pool, 5);
        assert_eq!(s.fanout_branches, 5);
        assert!(s.column_bytes > 0);
        let _ = g1;
        // Sweeping tombstones a slot without shrinking the arena.
        nl.replace_all_fanouts(g2, nl.inputs()[0]);
        nl.sweep_from(g2);
        let s2 = nl.arena_stats();
        assert_eq!(s2.slots, 5);
        assert!(s2.dead >= 1);
        assert_eq!(s2.fanin_pool, 5, "pool slots persist as tombstones");
    }

    /// The full observable state a rollback must restore, captured in a
    /// comparable form (BLIF text covers structure; the rest covers the
    /// journal and bookkeeping analyses key on).
    fn fingerprint(nl: &Netlist) -> (String, u64, usize, usize, String) {
        (
            crate::blif::write_blif(nl),
            nl.generation(),
            nl.live_gate_count(),
            nl.id_bound(),
            format!("{:?}", nl.stats()),
        )
    }

    #[test]
    fn rollback_restores_rewire_and_sweep_exactly() {
        let (mut nl, a, b, g1, g2) = small();
        let _ = nl.drain_dirty();
        let before = fingerprint(&nl);
        // Write set of the edit below: g1 (loses fanouts, then swept),
        // g2 (rewired), a (gains a branch, and is g1's fanin), b
        // (g1's fanin loses a branch on sweep).
        let cp = nl.checkpoint(&[a, b, g1, g2]);
        nl.replace_all_fanouts(g1, a);
        nl.sweep_from(g1);
        assert!(!nl.is_live(g1));
        nl.rollback(cp);
        nl.validate().unwrap();
        assert!(nl.is_live(g1));
        assert_eq!(fingerprint(&nl), before);
        assert!(!nl.has_pending_edits(), "journal rewound to watermark");
    }

    #[test]
    fn rollback_restores_in_place_pin_rewire() {
        let (mut nl, a, _b, g1, g2) = small();
        let _ = nl.drain_dirty();
        let before = fingerprint(&nl);
        let cp = nl.checkpoint(&[a, g1, g2]);
        // IS2 mutates g2's fanin slot inside the shared CSR pool.
        nl.replace_fanin(g2, 0, a);
        assert_eq!(nl.fanins(g2)[0], a);
        nl.rollback(cp);
        nl.validate().unwrap();
        assert_eq!(nl.fanins(g2)[0], g1);
        assert_eq!(fingerprint(&nl), before);
    }

    #[test]
    fn rollback_releases_names_of_created_gates() {
        let (mut nl, a, b, _g1, _g2) = small();
        let and2 = nl.library().find_by_name("and2").unwrap();
        let before = fingerprint(&nl);
        let cp = nl.checkpoint(&[a, b]);
        nl.add_cell("fresh", and2, &[a, b]);
        assert!(nl.find_by_name("fresh").is_some());
        nl.rollback(cp);
        assert!(nl.find_by_name("fresh").is_none());
        assert_eq!(fingerprint(&nl), before);
        // The name is reusable after the rollback.
        let again = nl.add_cell("fresh", and2, &[a, b]);
        assert!(nl.is_live(again));
        nl.validate().unwrap();
        // The rolled-back creation's pool slots were reclaimed too.
        assert_eq!(nl.arena_stats().slots, 6);
    }

    #[test]
    fn rollback_is_a_noop_without_edits() {
        let (mut nl, a, _b, g1, _g2) = small();
        let before = fingerprint(&nl);
        let cp = nl.checkpoint(&[a, g1]);
        assert_eq!(cp.saved_gates(), 2);
        nl.rollback(cp);
        assert_eq!(fingerprint(&nl), before);
        nl.validate().unwrap();
    }
}
