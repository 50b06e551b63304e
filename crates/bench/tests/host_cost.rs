//! Every call shape's host cost matches `host_cost.golden.json`: a change
//! that adds or removes an allocation, lock acquisition, atomic RMW,
//! signal, ring, kick, sleep or staging chunk on a shape's path fails,
//! naming shape, side and count, and prints the `cp` line that accepts it.
//! A `main` of its own (`harness = false`): the allocation count is
//! process-wide, and the test harness's threads allocate.

use std::path::Path;

use vphi_bench::{host_cost, support::first_difference};

fn main() {
    let fresh = format!("[\n{}\n]\n", host_cost::figure().virt_json());
    let golden = include_str!("../host_cost.golden.json");
    let moved = first_difference(&host_cost::comparable(golden), &host_cost::comparable(&fresh));
    if let Some(moved) = moved {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("host_cost.golden.json");
        std::fs::write(&out, &fresh).expect("write the fresh host cost");
        let from = if vphi_sync::audit::ENABLED { "" } else { " from a debug or sync-audit build" };
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("host_cost.golden.json");
        panic!(
            "a host cost moved: {moved}\naccept it{from}:\n  cp {} {}",
            out.display(),
            golden.display()
        );
    }
}
