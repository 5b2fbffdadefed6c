//! Overlapping-window partitioning for large-netlist optimization.
//!
//! POWDER's candidate generation and gain scoring walk every stem/branch
//! pair they consider; on a 100k-gate netlist a whole-netlist pass is
//! hopeless. [`partition_windows`] carves the live netlist into
//! MFFC-seeded regions of bounded size so the optimizer can run
//! window-locally:
//!
//! * **Cores** partition the live cell/constant gates: windows are grown
//!   in reverse topological order, pulling in each seed's maximum
//!   fanout-free cone (so a cone the optimizer would sweep as a unit is
//!   never split) until the configured size is reached.
//! * **Halos** extend each window across its fanin frontier by at most
//!   [`WindowConfig::overlap`] gates, giving substitutions near the
//!   window boundary neighbouring signals to draw from. Halo gates belong
//!   to another window's core; they are read/substitute-from material,
//!   never rewrite targets.
//! * **Boundaries** carry the interface pseudo-gates (primary inputs
//!   feeding the core, primary outputs fed by it), plus a deterministic
//!   fallback so that *every* live gate appears in at least one window's
//!   scope.
//!
//! Invariants (unit-tested here, property-tested in `proptests`):
//!
//! 1. every live gate is in at least one window's [`Window::scope`];
//! 2. every live cell/constant gate is in exactly one [`Window::core`];
//! 3. for any two windows, the member overlap (`core ∪ halo`)
//!    intersection is at most [`WindowConfig::overlap`] gates.

use crate::netlist::{GateId, GateKind, Netlist};

/// Shape parameters for [`partition_windows`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowConfig {
    /// Target core size in gates; a window closes once its core reaches
    /// this. Must be non-zero.
    pub size: usize,
    /// Maximum halo gates borrowed from neighbouring cores. Must be
    /// strictly less than `size`.
    pub overlap: usize,
}

impl WindowConfig {
    /// Netlists at or above this many live gates get windowed by default.
    pub const AUTO_THRESHOLD: usize = 4096;
    /// Core size the automatic policy picks.
    pub const AUTO_SIZE: usize = 2048;
    /// Halo budget the automatic policy picks.
    pub const AUTO_OVERLAP: usize = 256;

    /// The automatic policy: `None` (whole-netlist optimization, exactly
    /// the classic code path) below [`Self::AUTO_THRESHOLD`] live gates,
    /// otherwise [`Self::AUTO_SIZE`]-gate windows with a
    /// [`Self::AUTO_OVERLAP`]-gate halo budget.
    #[must_use]
    pub fn auto(live_gates: usize) -> Option<WindowConfig> {
        if live_gates < Self::AUTO_THRESHOLD {
            None
        } else {
            Some(WindowConfig {
                size: Self::AUTO_SIZE,
                overlap: Self::AUTO_OVERLAP,
            })
        }
    }
}

/// One optimization region produced by [`partition_windows`].
#[derive(Clone, Debug)]
pub struct Window {
    /// Position of this window in the plan (processing order).
    pub index: usize,
    /// Rewrite targets: live cell/constant gates owned by this window,
    /// ascending. Cores are disjoint across windows.
    pub core: Vec<GateId>,
    /// Borrowed fanin-frontier gates from other cores (substitution
    /// sources only), ascending; at most `overlap` of them.
    pub halo: Vec<GateId>,
    /// Interface gates: primary inputs/outputs touching the core, plus
    /// coverage fallbacks; ascending.
    pub boundary: Vec<GateId>,
}

impl Window {
    /// Gates the optimizer may edit or read as member signals
    /// (`core ∪ halo`), ascending, without duplicates.
    #[must_use]
    pub fn members(&self) -> Vec<GateId> {
        let mut m = Vec::with_capacity(self.core.len() + self.halo.len());
        merge_sorted(&self.core, &self.halo, &mut m);
        m
    }

    /// Everything visible to this window (`core ∪ halo ∪ boundary`),
    /// ascending, without duplicates.
    #[must_use]
    pub fn scope(&self) -> Vec<GateId> {
        let members = self.members();
        let mut s = Vec::with_capacity(members.len() + self.boundary.len());
        merge_sorted(&members, &self.boundary, &mut s);
        s
    }
}

/// Merges two ascending id slices into `out`, deduplicating.
fn merge_sorted(a: &[GateId], b: &[GateId], out: &mut Vec<GateId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x <= y => {
                i += 1;
                if x == y {
                    j += 1;
                }
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        out.push(next);
    }
}

/// A full partitioning of a netlist into overlapping windows, plus the
/// dense topological-position column the windowed driver sorts by.
#[derive(Clone, Debug)]
pub struct WindowPlan {
    /// The configuration the plan was built with.
    pub config: WindowConfig,
    /// Windows in processing order (reverse-topological seeding, so
    /// output-side logic is optimized first, matching the sequential
    /// optimizer's preference for downstream gains).
    pub windows: Vec<Window>,
    /// Dense column: `topo_pos[id] = position of gate id in topological
    /// order`, `u32::MAX` for dead slots. Indexed by `GateId.0`.
    pub topo_pos: Vec<u32>,
}

impl WindowPlan {
    /// Number of windows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the plan has no windows (empty netlist).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

/// Partitions the live gates of `nl` into overlapping MFFC-seeded
/// windows. Deterministic: depends only on the arena state, never on
/// iteration order of hash containers.
///
/// # Panics
///
/// Panics if `config.size == 0` or `config.overlap >= config.size`.
#[must_use]
pub fn partition_windows(nl: &Netlist, config: WindowConfig) -> WindowPlan {
    assert!(config.size > 0, "window size must be non-zero");
    assert!(
        config.overlap < config.size,
        "window overlap must be smaller than the window size"
    );
    let bound = nl.id_bound();
    let topo = nl.topo_order();
    let mut topo_pos = vec![u32::MAX; bound];
    for (pos, &g) in topo.iter().enumerate() {
        topo_pos[g.0 as usize] = pos as u32;
    }

    let windowable = |id: GateId| matches!(nl.kind(id), GateKind::Cell(_) | GateKind::Const(_));

    // Owner of each gate's core slot (usize::MAX = unassigned).
    let mut owner = vec![usize::MAX; bound];
    let mut cores: Vec<Vec<GateId>> = Vec::new();
    let mut current: Vec<GateId> = Vec::new();
    // Seed in reverse topological order so each window is grown from
    // output-side roots downward, and pull whole MFFCs so a sweepable
    // cone never straddles a window boundary.
    for &seed in topo.iter().rev() {
        if !windowable(seed) || owner[seed.0 as usize] != usize::MAX {
            continue;
        }
        let windex = cores.len();
        owner[seed.0 as usize] = windex;
        current.push(seed);
        for m in nl.mffc(seed) {
            if windowable(m) && owner[m.0 as usize] == usize::MAX {
                owner[m.0 as usize] = windex;
                current.push(m);
            }
        }
        if current.len() >= config.size {
            current.sort_unstable();
            cores.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        current.sort_unstable();
        cores.push(current);
    }

    let mut windows: Vec<Window> = cores
        .into_iter()
        .enumerate()
        .map(|(index, core)| {
            // Halo: fanin-frontier gates owned by other cores, nearest
            // (largest topo position) first, capped at `overlap`.
            let mut frontier: Vec<GateId> = Vec::new();
            for &g in &core {
                for &fi in nl.fanins(g) {
                    if windowable(fi) && owner[fi.0 as usize] != index {
                        frontier.push(fi);
                    }
                }
            }
            frontier.sort_unstable();
            frontier.dedup();
            if frontier.len() > config.overlap {
                frontier.sort_unstable_by_key(|g| std::cmp::Reverse(topo_pos[g.0 as usize]));
                frontier.truncate(config.overlap);
                frontier.sort_unstable();
            }
            // Boundary: interface pseudo-gates touching the core.
            let mut boundary: Vec<GateId> = Vec::new();
            for &g in &core {
                for &fi in nl.fanins(g) {
                    if matches!(nl.kind(fi), GateKind::Input) {
                        boundary.push(fi);
                    }
                }
                for c in nl.fanouts(g) {
                    if matches!(nl.kind(c.gate), GateKind::Output) {
                        boundary.push(c.gate);
                    }
                }
            }
            boundary.sort_unstable();
            boundary.dedup();
            Window {
                index,
                core,
                halo: frontier,
                boundary,
            }
        })
        .collect();

    // Coverage fallback: any live gate not yet in some window's scope
    // (dangling inputs, outputs fed straight by inputs, …) is attached to
    // the first window's boundary; an all-pseudo netlist gets one window.
    let mut covered = vec![false; bound];
    for w in &windows {
        for g in w.scope() {
            covered[g.0 as usize] = true;
        }
    }
    let leftovers: Vec<GateId> = nl.iter_live().filter(|g| !covered[g.0 as usize]).collect();
    if !leftovers.is_empty() {
        if windows.is_empty() {
            windows.push(Window {
                index: 0,
                core: Vec::new(),
                halo: Vec::new(),
                boundary: Vec::new(),
            });
        }
        let w0 = &mut windows[0];
        w0.boundary.extend(leftovers);
        w0.boundary.sort_unstable();
        w0.boundary.dedup();
    }

    WindowPlan {
        config,
        windows,
        topo_pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;
    use std::sync::Arc;

    /// Deterministic layered DAG: `layers × width` and/or gates.
    fn grid(layers: usize, width: usize) -> Netlist {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("grid", lib);
        let mut prev: Vec<GateId> = (0..width).map(|i| nl.add_input(format!("i{i}"))).collect();
        for l in 0..layers {
            let mut next = Vec::with_capacity(width);
            for w in 0..width {
                let a = prev[w];
                let b = prev[(w + 1) % width];
                let cell = if (l + w) % 2 == 0 { and2 } else { or2 };
                next.push(nl.add_cell(format!("g{l}_{w}"), cell, &[a, b]));
            }
            prev = next;
        }
        for (w, &g) in prev.iter().enumerate() {
            nl.add_output(format!("o{w}"), g);
        }
        let _ = nl.drain_dirty();
        nl.validate().unwrap();
        nl
    }

    fn plan_of(nl: &Netlist, size: usize, overlap: usize) -> WindowPlan {
        partition_windows(nl, WindowConfig { size, overlap })
    }

    #[test]
    fn cores_partition_cells() {
        let nl = grid(10, 8);
        let plan = plan_of(&nl, 16, 4);
        assert!(plan.len() > 1);
        let mut seen = std::collections::HashSet::new();
        for w in &plan.windows {
            for &g in &w.core {
                assert!(seen.insert(g), "gate {g} in two cores");
            }
        }
        let cells = nl
            .iter_live()
            .filter(|&g| matches!(nl.kind(g), GateKind::Cell(_) | GateKind::Const(_)))
            .count();
        assert_eq!(seen.len(), cells);
    }

    #[test]
    fn every_live_gate_in_some_scope() {
        let nl = grid(6, 5);
        let plan = plan_of(&nl, 7, 3);
        let mut covered = vec![false; nl.id_bound()];
        for w in &plan.windows {
            for g in w.scope() {
                covered[g.0 as usize] = true;
            }
        }
        for g in nl.iter_live() {
            assert!(covered[g.0 as usize], "gate {g} uncovered");
        }
    }

    #[test]
    fn member_overlap_is_bounded() {
        let nl = grid(12, 6);
        let overlap = 3;
        let plan = plan_of(&nl, 10, overlap);
        let members: Vec<Vec<GateId>> = plan.windows.iter().map(Window::members).collect();
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                let shared = members[i]
                    .iter()
                    .filter(|g| members[j].binary_search(g).is_ok())
                    .count();
                assert!(
                    shared <= overlap,
                    "windows {i}/{j} share {shared} members > {overlap}"
                );
            }
        }
    }

    #[test]
    fn auto_policy_gates_on_size() {
        assert!(WindowConfig::auto(100).is_none());
        assert!(WindowConfig::auto(WindowConfig::AUTO_THRESHOLD).is_some());
    }

    #[test]
    fn rejects_degenerate_config() {
        let nl = grid(2, 2);
        for (size, overlap) in [(0, 0), (4, 4), (4, 9)] {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                partition_windows(&nl, WindowConfig { size, overlap })
            }));
            assert!(r.is_err(), "size={size} overlap={overlap} must be rejected");
        }
    }

    #[test]
    fn topo_pos_column_matches_topo_order() {
        let nl = grid(4, 4);
        let plan = plan_of(&nl, 8, 2);
        let topo = nl.topo_order();
        for (pos, &g) in topo.iter().enumerate() {
            assert_eq!(plan.topo_pos[g.0 as usize], pos as u32);
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let nl = grid(9, 7);
        let a = plan_of(&nl, 12, 4);
        let b = plan_of(&nl, 12, 4);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
