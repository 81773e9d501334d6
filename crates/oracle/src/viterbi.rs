//! The log-space MAP decode that
//! [`tableseg_prob::viterbi::viterbi_scaled`] replaced, kept verbatim.

use tableseg_prob::forward_backward::Chain;

/// The most likely state path through the chain given log emissions.
/// Returns one state index per extract. Empty input yields an empty path.
pub fn viterbi(chain: &Chain, emits: &[Vec<f64>]) -> Vec<usize> {
    let n = emits.len();
    if n == 0 {
        return Vec::new();
    }
    let ns = chain.dims.num_states();

    let mut delta = vec![f64::NEG_INFINITY; ns];
    for s in 0..ns {
        delta[s] = chain.init[s] + emits[0][s];
    }
    // back[i][s] = predecessor state of s at step i.
    let mut back = vec![vec![usize::MAX; ns]; n];

    for i in 1..n {
        let mut next = vec![f64::NEG_INFINITY; ns];
        for (s, out) in chain.edges.iter().enumerate() {
            let d = delta[s];
            if d == f64::NEG_INFINITY {
                continue;
            }
            for e in out {
                let v = d + e.logp + emits[i][e.to];
                if v > next[e.to] {
                    next[e.to] = v;
                    back[i][e.to] = s;
                }
            }
        }
        delta = next;
    }

    // Best final state (ties broken toward the lowest state index, which is
    // the earliest record/column — deterministic).
    let mut best_s = 0;
    let mut best = f64::NEG_INFINITY;
    for (s, &d) in delta.iter().enumerate() {
        if d > best {
            best = d;
            best_s = s;
        }
    }

    let mut path = vec![0usize; n];
    path[n - 1] = best_s;
    for i in (1..n).rev() {
        let prev = back[i][path[i]];
        debug_assert_ne!(prev, usize::MAX, "broken backpointer at {i}");
        path[i - 1] = prev;
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_prob::forward_backward::build_chain;
    use tableseg_prob::model::Dims;
    use tableseg_prob::params::Params;
    use tableseg_prob::ProbOptions;

    fn chain2x2() -> Chain {
        let dims = Dims {
            num_records: 2,
            num_columns: 2,
        };
        let params = Params::uniform(2, vec![1.0, 1.0]);
        build_chain(dims, &params, &ProbOptions::default())
    }

    #[test]
    fn empty_input() {
        let chain = chain2x2();
        assert!(viterbi(&chain, &[]).is_empty());
    }

    #[test]
    fn single_extract_takes_best_initial_state() {
        let chain = chain2x2();
        let dims = chain.dims;
        // Strong emission for record 1, column 0.
        let mut e = vec![-10.0; dims.num_states()];
        e[dims.state(1, 0)] = 0.0;
        let path = viterbi(&chain, &[e]);
        assert_eq!(path, vec![dims.state(1, 0)]);
    }

    #[test]
    fn prefers_structural_path() {
        let chain = chain2x2();
        let dims = chain.dims;
        // Two extracts, both record-ambiguous: the path should continue
        // the same record (0,0) → (0,1) rather than jump records, because
        // initial mass prefers record 0 and continuing beats the fallback.
        let flat = vec![0.0; dims.num_states()];
        let path = viterbi(&chain, &[flat.clone(), flat]);
        assert_eq!(path[0], dims.state(0, 0));
        let (r1, c1) = dims.unpack(path[1]);
        assert!((r1 == 0 && c1 == 1) || (r1 == 1 && c1 == 0), "{path:?}");
    }

    #[test]
    fn follows_emissions_across_records() {
        let chain = chain2x2();
        let dims = chain.dims;
        let mut e0 = vec![-20.0; dims.num_states()];
        e0[dims.state(0, 0)] = 0.0;
        let mut e1 = vec![-20.0; dims.num_states()];
        e1[dims.state(1, 0)] = 0.0;
        let path = viterbi(&chain, &[e0, e1]);
        assert_eq!(path, vec![dims.state(0, 0), dims.state(1, 0)]);
    }

    #[test]
    fn fallback_keeps_path_alive() {
        // Emissions force an "illegal" repeat of the same state; only the
        // fallback self-loop allows it.
        let chain = chain2x2();
        let dims = chain.dims;
        let mut e = vec![-40.0; dims.num_states()];
        e[dims.state(1, 1)] = 0.0;
        let path = viterbi(&chain, &[e.clone(), e]);
        // First step cannot be (1,1) (not an initial state) but the second
        // should reach it; path must exist regardless.
        assert_eq!(path.len(), 2);
        assert_eq!(path[1], dims.state(1, 1));
    }
}
