//! One module per table/figure of the paper's evaluation section.

pub mod driver;
pub mod energy;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig5;
pub mod fig8;
pub mod fig9;
pub mod kernels;
pub mod server;
pub mod storm;
pub mod table1;
pub mod table2;
pub mod zipf;

/// How far below its committed baseline a gated metric may fall: the
/// floor is `baseline * (1 - BASELINE_TOLERANCE)`.
const BASELINE_TOLERANCE: f64 = 0.5;

/// Gate `keys` of `m` against the baseline file that the environment
/// variable `var` names, when it is set: a metric below its floor —
/// [`BASELINE_TOLERANCE`] under the baseline value, or an absolute
/// `<key>_floor` of the baseline when that is higher — fails the run.  A
/// key the baseline lacks is skipped.
fn gate_against_baseline(var: &str, what: &str, keys: &[&str], m: &kernels::Metrics) {
    let Ok(path) = std::env::var(var) else {
        return;
    };
    let baseline =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("baseline {path}: {e}"));
    println!("baseline gate: {path} (tolerance {BASELINE_TOLERANCE})");
    let mut failed = false;
    for &key in keys {
        let Some(want) = kernels::extract(&baseline, key) else {
            println!("  {key}: not in baseline, skipped");
            continue;
        };
        let got = m.get(key);
        let mut floor = want * (1.0 - BASELINE_TOLERANCE);
        if let Some(abs) = kernels::extract(&baseline, &format!("{key}_floor")) {
            floor = floor.max(abs);
        }
        let ok = got >= floor;
        println!(
            "  {key}: measured {got:.3} vs baseline {want:.3} (floor {floor:.3}) {}",
            if ok { "ok" } else { "REGRESSION" }
        );
        failed |= !ok;
    }
    if failed {
        eprintln!("{what} benchmark regressed beyond tolerance");
        std::process::exit(1);
    }
}

/// All experiment ids, in paper order.
pub const ALL: &[&str] = &[
    "table1", "table2", "fig1", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "energy", "zipf", "kernels", "storm", "server",
];

/// Run one experiment by id (with `quick` shrinking the sweep for CI).
pub fn run(id: &str, quick: bool) {
    match id {
        "table1" => table1::run(),
        "table2" => table2::run(),
        "fig1" => fig1::run(quick),
        "fig5" => fig5::run(quick),
        "fig8" => fig8::run(quick),
        "fig9" => fig9::run(quick),
        "fig10" => fig10::run(quick),
        "fig11" => fig11::run(quick),
        "fig12" => fig12::run(quick),
        "fig13" => fig13::run(quick),
        "energy" => energy::run(quick),
        "zipf" => zipf::run(quick),
        "kernels" => kernels::run(quick),
        "storm" => storm::run(quick),
        "server" => server::run(quick),
        other => {
            eprintln!("unknown experiment '{other}'; available: {ALL:?}");
            std::process::exit(2);
        }
    }
}
