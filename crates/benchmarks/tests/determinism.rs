//! Every Table-1 generator is a pure function of its name: two builds in
//! one process write byte-identical BLIF. Hash-ordered collections in the
//! synthesis flow would break this, because each hash set draws its own
//! random seed.
//!
//! Release-only: the unoptimized synthesis flow takes minutes for the
//! whole suite. CI also compares builds from two separate processes.

#![cfg(not(debug_assertions))]

use powder_benchmarks::{build, table1_names};
use powder_library::lib2;
use powder_netlist::blif::write_blif;
use std::sync::Arc;

#[test]
fn table1_generators_are_deterministic_in_process() {
    let lib = Arc::new(lib2());
    for name in table1_names() {
        let first = write_blif(&build(name, lib.clone()).expect("suite circuit"));
        let second = write_blif(&build(name, lib.clone()).expect("suite circuit"));
        assert!(first == second, "{name}: two builds differ");
    }
}
