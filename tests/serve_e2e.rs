//! Black-box service test: a served segmentation of the 12-site paper
//! corpus must be byte-identical to the batch `table4` golden — on a
//! cold cache, on a warm cache (template reuse, zero re-inductions,
//! observed via counters), and after explicit invalidation — at 1, 2
//! and N batch worker threads.
//!
//! The daemon is booted on an ephemeral port and driven over raw TCP
//! through the same client helpers an external caller would use; the
//! Table-4 rows are reconstructed purely from response bytes (extract
//! offsets + record groups) plus the locally generated ground truth.

use std::net::SocketAddr;
use std::path::PathBuf;

use tableseg_bench::servebench::corpus_requests;
use tableseg_bench::{table4_report, PageRun};
use tableseg_eval::classify::{classify, truth_of_extracts};
use tableseg_serve::client;
use tableseg_serve::proto::SegmentResponse;
use tableseg_serve::{SegmentRequest, Server, ServerConfig};
use tableseg_sitegen::site::GeneratedSite;

fn read_golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()))
}

/// Reconstructs the batch harness's `PageRun`s from a served response:
/// classification happens client-side against the locally generated
/// ground truth, exactly as `run_sites` does it.
fn runs_from_response(site: &GeneratedSite, name: &str, resp: &SegmentResponse) -> Vec<PageRun> {
    resp.page_results
        .iter()
        .map(|p| {
            assert_ne!(
                p.status, "failed",
                "{name} page {} failed: {:?}",
                p.target, p.error
            );
            let spans: Vec<std::ops::Range<usize>> = site.pages[p.target]
                .truth
                .records
                .iter()
                .map(|r| r.start..r.end)
                .collect();
            let truth = truth_of_extracts(&p.offsets, &spans);
            let num_truth = site.pages[p.target].truth.len();
            let prob = p.prob.as_ref().expect("prob result");
            let csp = p.csp.as_ref().expect("csp result");
            PageRun {
                site: name.to_string(),
                page: p.target,
                prob: classify(&prob.groups, &truth, num_truth),
                csp: classify(&csp.groups, &truth, num_truth),
                used_whole_page: p.whole_page,
                csp_relaxed: csp.relaxed,
            }
        })
        .collect()
}

/// One full pass over the corpus; returns the Table-4 report plus every
/// response for further assertions.
fn served_pass(
    addr: SocketAddr,
    corpus: &[(GeneratedSite, SegmentRequest)],
) -> (String, Vec<SegmentResponse>) {
    let mut runs = Vec::new();
    let mut responses = Vec::new();
    for (site, request) in corpus {
        let resp = client::segment(addr, request, None, true)
            .unwrap_or_else(|e| panic!("segment {} failed: {e}", request.site));
        assert_eq!(
            resp.pages,
            resp.ok + resp.degraded + resp.failed,
            "{}: page accounting broken",
            request.site
        );
        runs.extend(runs_from_response(site, &request.site, &resp));
        responses.push(resp);
    }
    (table4_report(&runs, false), responses)
}

#[test]
fn served_segmentation_matches_table4_golden_cold_warm_and_after_invalidation() {
    let corpus = corpus_requests();
    let golden = read_golden("table4.txt");
    let n = tableseg::batch::default_threads().max(3);

    for batch_threads in [1usize, 2, n] {
        let server = Server::start(ServerConfig {
            batch_threads,
            workers: 2,
            ..ServerConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = server.addr();

        // Cold: exactly one induction per site (per-response manifest
        // counter), report matches golden.
        let (cold_report, cold_responses) = served_pass(addr, &corpus);
        assert_eq!(cold_responses.len(), corpus.len());
        assert_eq!(
            cold_report, golden,
            "cold served report drifted from the batch golden ({batch_threads} threads)"
        );
        for resp in &cold_responses {
            assert_eq!(resp.cache, "cold", "{}", resp.site);
            assert!(
                resp.manifest.contains("\"template.inductions\": 1"),
                "{}: cold manifest should record one induction",
                resp.site
            );
        }

        // Warm: zero inductions, nothing recomputed, same bytes.
        let (warm_report, warm_responses) = served_pass(addr, &corpus);
        assert_eq!(
            warm_report, golden,
            "warm served report drifted ({batch_threads} threads)"
        );
        for (resp, cold) in warm_responses.iter().zip(&cold_responses) {
            assert_eq!(resp.cache, "warm", "{}", resp.site);
            assert_eq!(
                resp.generation, cold.generation,
                "{}: warm hit must not change the generation",
                resp.site
            );
            assert!(
                resp.page_results.iter().all(|p| p.cached),
                "{}: warm targets must come from the result cache",
                resp.site
            );
            assert!(
                resp.manifest.contains("\"template.inductions\": 0"),
                "{}: warm manifest must record zero inductions",
                resp.site
            );
        }

        // Post-invalidation: cold again, generation bumped, same bytes.
        for (_, request) in &corpus {
            let reply = client::invalidate(addr, &request.site).expect("invalidate");
            assert!(reply.starts_with("invalidated"), "{reply}");
        }
        let (post_report, post_responses) = served_pass(addr, &corpus);
        assert_eq!(post_responses.len(), corpus.len());
        assert_eq!(
            post_report, golden,
            "post-invalidation report drifted ({batch_threads} threads)"
        );
        for (resp, warm) in post_responses.iter().zip(&warm_responses) {
            assert_eq!(resp.cache, "cold", "{}", resp.site);
            assert!(
                resp.manifest.contains("\"template.inductions\": 1"),
                "{}: post-invalidation manifest should record one induction",
                resp.site
            );
            assert!(
                resp.generation > warm.generation,
                "{}: invalidation must advance the generation",
                resp.site
            );
        }

        server.shutdown();
    }
}
