//! Differential reference implementations ("oracles") for tableseg.
//!
//! Each production layer ships one implementation. The generations it
//! replaced live here, verbatim, because they are simple enough to trust
//! and independent enough to catch regressions: the property suites in
//! `tests/` compare the production paths against them, and the
//! `solvebench`, `inducebench` and matchbench baselines time them.
//!
//! * [`wsat`] — the pre-overhaul sequential WSAT(OIP) solver;
//! * [`relax`] — the whole-instance CSP relaxation ladder (no reduction);
//! * [`exact`] — the branch-and-bound without the clique-cover bound;
//! * [`em`] — the log-space EM loop and the unmemoized per-edge scaled
//!   EM loop, over the passes in [`forward_backward`] and [`viterbi`];
//! * [`induce`] — the Hirschberg template-induction fold;
//! * [`matcher`] / [`observations`] — the clone-and-scan string matcher
//!   and the naive observation-table builder.
//!
//! Production crates may not depend on this crate (CI checks the normal
//! dependency graph), so nothing here is reachable from their public API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod em;
pub mod exact;
pub mod forward_backward;
pub mod induce;
pub mod matcher;
pub mod observations;
pub mod relax;
pub mod viterbi;
pub mod wsat;
