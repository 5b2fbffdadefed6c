//! A hash-cons hit allocates nothing: re-adding every node of saturated
//! cones returns that node's class without touching the heap.

use powder_egraph::{build_egraph, collect_cone, saturate, EgraphConfig, RuleCache};
use powder_library::lib2;
use powder_netlist::{GateId, GateKind, Netlist};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

impl Counting {
    fn count() {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// Six inputs under a mix of lib2 cells of one to three pins.
fn netlist() -> Netlist {
    let lib = Arc::new(lib2());
    let cell = |name: &str| lib.find_by_name(name).expect("lib2 cell");
    let mut nl = Netlist::new("cones", Arc::clone(&lib));
    let x: Vec<GateId> = (0..6).map(|i| nl.add_input(format!("x{i}"))).collect();
    let a = nl.add_cell("a", cell("nand2"), &[x[0], x[1]]);
    let b = nl.add_cell("b", cell("xor2"), &[a, x[2]]);
    let c = nl.add_cell("c", cell("aoi21"), &[b, x[3], x[4]]);
    let d = nl.add_cell("d", cell("mux21"), &[x[5], c, x[0]]);
    let e = nl.add_cell("e", cell("oai21"), &[x[1], x[2], x[3]]);
    let f = nl.add_cell("f", cell("nor2"), &[e, x[4]]);
    nl.add_output("y", d);
    nl.add_output("z", f);
    nl
}

#[test]
fn hashcons_hits_allocate_nothing() {
    let nl = netlist();
    let mut cache = RuleCache::new(Arc::clone(nl.library()));
    let roots: Vec<GateId> = nl
        .iter_live()
        .filter(|&g| matches!(nl.kind(g), GateKind::Cell(_)))
        .collect();
    let mut checked = 0;
    for root in roots {
        let Some(cone) = collect_cone(&nl, root) else {
            continue;
        };
        let mut cg = build_egraph(&nl, &cone);
        saturate(&mut cg.eg, &EgraphConfig::default(), &mut cache);
        let eg = &mut cg.eg;
        let nodes: Vec<_> = eg
            .node_entries()
            .iter()
            .map(|e| (e.op, eg.children(e).to_vec(), e.class, e.rule))
            .collect();
        let before = allocs();
        let mut wrong = 0;
        for (op, children, class, rule) in &nodes {
            wrong += usize::from(eg.add(*op, children, *rule) != *class);
        }
        let made = allocs() - before;
        assert_eq!(wrong, 0, "a hit returned another class");
        assert_eq!(made, 0, "{} hits allocated {made} times", nodes.len());
        assert_eq!(eg.node_count(), nodes.len(), "a hit added a node");
        checked += nodes.len();
    }
    assert!(checked > 1000, "only {checked} nodes re-added");
}
