//! Determinism golden test: the `tables123` and `table4` workloads must
//! produce byte-identical reports run twice in-process and through the
//! batch engine at 1, 2 and N threads, matching the goldens committed
//! under `tests/golden/`; and the per-site template cache must run
//! induction exactly once per site per batch run.

use std::path::PathBuf;

use tableseg_bench::{run_sites, run_sites_robust, table4_report, tables123_report};
use tableseg_sitegen::chaos::{apply_chaos, ChaosConfig};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn read_golden(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()))
}

#[test]
fn reports_are_deterministic_across_threads_and_match_goldens() {
    let specs = paper_sites::all();
    let n = tableseg::batch::default_threads().max(3);

    // table4 at 1, 2 and N threads, plus a repeat at 1 thread: all byte
    // identical. Each run must induce exactly one template per site.
    let mut reports = Vec::new();
    for threads in [1usize, 1, 2, n] {
        let outcome = run_sites(&specs, threads);
        assert_eq!(
            outcome.inductions,
            specs.len() as u64,
            "template induction must run exactly once per site ({threads} threads)"
        );
        reports.push((threads, table4_report(&outcome.runs, false)));

        // The RT registry carries one row per site with solve time
        // accounted, at every thread count.
        let rows = outcome.timing.rows();
        assert_eq!(rows.len(), specs.len(), "one timing row per site");
        for (label, times) in &rows {
            assert!(
                times.get(tableseg::timing::Stage::Solve) > std::time::Duration::ZERO,
                "no solve time recorded for {label}"
            );
        }
    }
    let (_, first) = &reports[0];
    for (threads, report) in &reports[1..] {
        assert_eq!(report, first, "table4 report differs at {threads} threads");
    }
    assert_eq!(
        first,
        &read_golden("table4.txt"),
        "table4 report drifted from tests/golden/table4.txt \
         (regenerate with `cargo run -p tableseg-bench --bin table4 > tests/golden/table4.txt` \
         and review the diff)"
    );

    // tables123 twice in-process: byte identical and matching its golden.
    let a = tables123_report();
    let b = tables123_report();
    assert_eq!(a, b, "tables123 report not deterministic in-process");
    assert_eq!(
        a,
        read_golden("tables123.txt"),
        "tables123 report drifted from tests/golden/tables123.txt \
         (regenerate with `cargo run -p tableseg-bench --bin tables123 > tests/golden/tables123.txt`)"
    );
}

/// Differential: with every fault probability at zero, the chaos wrapper
/// is byte-identical to the plain generator on all twelve paper sites,
/// and the fallible batch path reproduces the same golden Table 4 report
/// at 1, 2 and N threads.
#[test]
fn robust_path_at_zero_chaos_matches_goldens() {
    let specs = paper_sites::all();
    let cfg = ChaosConfig::uniform(0.0, 0xC0DE);
    assert!(cfg.is_noop());

    for spec in &specs {
        let clean = generate(spec);
        let (wrapped, log) = apply_chaos(&clean, &cfg);
        assert!(log.is_empty(), "{}", spec.name);
        assert_eq!(
            wrapped, clean,
            "{}: chaos at p=0 must be the identity",
            spec.name
        );
    }

    let golden = read_golden("table4.txt");
    let n = tableseg::batch::default_threads().max(3);
    for threads in [1usize, 2, n] {
        let outcome = run_sites_robust(&specs, &cfg, threads);
        assert_eq!(
            outcome.report.failed, 0,
            "no page may fail on clean input ({threads} threads)"
        );
        assert!(outcome.fault_counts.iter().all(|&(_, c)| c == 0));
        assert_eq!(
            table4_report(&outcome.runs, false),
            golden,
            "robust path drifted from tests/golden/table4.txt at {threads} threads"
        );
    }
}
