//! Bit-level golden for the production EM loop.
//!
//! `tests/golden/em_bits.txt` holds, for every list page of the 24-page
//! paper corpus and of the first 100 sites of a fixed-seed, fault-injected
//! `Universe`, what `segment_prob` returns: the record assignment, the
//! column labels, the EM iteration count and the learned period π as raw
//! `f64` bits. None of these passes through `ln`, so the file is stable
//! across platforms; any reassociation inside the E-step that moves a
//! single count by one ulp eventually shows up in π.
//!
//! On a mismatch the test writes the output it computed next to the
//! build's temporary files and names the path, so an intended change can
//! be reviewed with `diff` and copied over the golden.

use std::fmt::Write as _;

use tableseg::{prepare_outcome, PageOutcome, SiteTemplate};
use tableseg_prob::{segment_prob, ProbOptions};
use tableseg_sitegen::{generate, paper_sites, GeneratedSite, Universe, UniverseConfig};

const GOLDEN: &str = include_str!("golden/em_bits.txt");

/// Universe sites covered, from index 0.
const UNIVERSE_SITES: usize = 100;

/// Appends one line per list page of `site`.
fn render_site(out: &mut String, label: &str, site: &GeneratedSite) {
    let template = match SiteTemplate::try_build(&site.list_htmls()) {
        Ok(t) => t,
        Err(_) => {
            writeln!(out, "{label} template-failed").unwrap();
            return;
        }
    };
    let opts = ProbOptions::default();
    for (page, gp) in site.pages.iter().enumerate() {
        let details: Vec<&str> = gp.detail_html.iter().map(String::as_str).collect();
        let prepared = match prepare_outcome(&template, page, &details) {
            PageOutcome::Ok(p) | PageOutcome::Degraded { page: p, .. } => p,
            PageOutcome::Failed { .. } => {
                writeln!(out, "{label} p{page} prepare-failed").unwrap();
                continue;
            }
        };
        let res = segment_prob(&prepared.observations, &opts);
        let seg: Vec<String> = res
            .segmentation
            .assignments
            .iter()
            .map(|a| a.map_or_else(|| "-".to_string(), |r| r.to_string()))
            .collect();
        let cols: Vec<String> = res.columns.iter().map(u32::to_string).collect();
        let pi: Vec<String> = res
            .period
            .iter()
            .map(|p| format!("{:016x}", p.to_bits()))
            .collect();
        writeln!(
            out,
            "{label} p{page} it={} seg={} cols={} pi={}",
            res.iterations,
            seg.join(","),
            cols.join(","),
            pi.join(",")
        )
        .unwrap();
    }
}

fn render() -> String {
    let mut out = String::new();
    for spec in paper_sites::all() {
        let label = format!("paper/{}", spec.name.replace(' ', "_"));
        render_site(&mut out, &label, &generate(&spec));
    }
    let universe = Universe::new(UniverseConfig {
        sites: UNIVERSE_SITES,
        fault_rate: 0.1,
        ..UniverseConfig::default()
    });
    for (i, site) in universe.sites().enumerate() {
        render_site(&mut out, &format!("universe/{i}"), &site);
    }
    out
}

#[test]
fn segment_prob_reproduces_the_bit_golden() {
    let actual = render();
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("em_bits.actual.txt");
    std::fs::write(&path, &actual).expect("write the actual output");
    let first = actual
        .lines()
        .zip(GOLDEN.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "segment_prob diverges from tests/golden/em_bits.txt at line {} \
         ({} lines computed, {} in the golden); computed output written to {}",
        first + 1,
        actual.lines().count(),
        GOLDEN.lines().count(),
        path.display()
    );
}
