//! Regenerate the tables and figures of the ERIS paper.
//!
//! ```text
//! experiments <id>... [--quick]
//! experiments all [--quick]
//! ```
//!
//! Ids: table1 table2 fig1 fig5 fig8 fig9 fig10 fig11 fig12 fig13 energy
//! zipf kernels.  `--quick` shrinks sweeps for CI smoke runs.  The
//! `kernels` id also writes `BENCH_kernels.json` and honours the
//! `ERIS_BENCH_BASELINE` regression gate.

use eris_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    if ids.is_empty() {
        eprintln!(
            "usage: experiments <id>... [--quick]   (ids: all {:?})",
            experiments::ALL
        );
        std::process::exit(2);
    }
    let run_list: Vec<&str> = if ids == ["all"] {
        experiments::ALL.to_vec()
    } else {
        ids
    };
    for (i, id) in run_list.iter().enumerate() {
        if i > 0 {
            println!("\n{}\n", "=".repeat(78));
        }
        let t = std::time::Instant::now();
        experiments::run(id, quick);
        eprintln!("[{} finished in {:.1}s]", id, t.elapsed().as_secs_f64());
    }
}
