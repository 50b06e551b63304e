//! `figures` — regenerate the paper's tables and figures (plus the
//! ablations) and print them as tables of virtual-time measurements.
//!
//! ```text
//! figures                # every id in vphi_bench::FIGURES, in order
//! figures --fig <id>     # one of them, e.g. 4, breakdown, abl-cache
//! ```
//!
//! Nothing is written: the virtual-time record of every figure is
//! `crates/bench/figures.golden.json`, kept current by `tests/golden.rs`.

use vphi_bench::FIGURES;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args
        .iter()
        .position(|a| a == "--fig")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all");

    let chosen: Vec<_> = FIGURES.iter().filter(|(id, _)| which == "all" || *id == which).collect();
    if chosen.is_empty() {
        let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown figure '{which}': use {}|all", ids.join("|"));
        std::process::exit(2);
    }
    println!("vPHI reproduction — figure harness (virtual-time measurements)\n");
    for (_, run) in chosen {
        for figure in run() {
            print!("{figure}");
        }
    }
}
