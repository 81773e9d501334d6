//! Automatic detail-page identification.
//!
//! The paper's experiments downloaded detail pages manually and defer the
//! automation to future work (Section 6.1): "one can download all the
//! pages that are linked on the list pages, and then use a classification
//! algorithm to find a subset that contains the detail pages only. The
//! detail pages, generated from the same template, will look similar to
//! one another and different from advertisement pages, which probably
//! don't share any common structure."
//!
//! This module implements that classifier: pairwise token-LCS similarity
//! over the candidate pages, single-link clustering at a threshold, and
//! selection of the largest cluster. Pages from one detail template share
//! most of their token stream; ad pages do not.

use tableseg_html::lexer::tokenize;
use tableseg_html::Interner;
use tableseg_template::lcs::lcs_length;

/// Similarity threshold for two pages to be considered same-template.
pub const SIMILARITY_THRESHOLD: f64 = 0.6;

/// Normalized token-LCS similarity between two token streams:
/// `|LCS| / max(|a|, |b|)`. 1.0 for identical pages, near 0 for unrelated
/// structures.
pub fn page_similarity(a: &[u32], b: &[u32]) -> f64 {
    let denom = a.len().max(b.len());
    if denom == 0 {
        return 1.0;
    }
    lcs_length(a, b) as f64 / denom as f64
}

/// Identifies the detail pages among candidate linked pages.
///
/// Returns the indices of the largest same-template cluster, in input
/// order. Ties go to the cluster with the lower first index
/// (deterministic). With no candidates the result is empty; a single
/// candidate is returned as-is (nothing to contrast it against).
pub fn identify_detail_pages(candidates: &[&str]) -> Vec<usize> {
    let n = candidates.len();
    if n <= 1 {
        return (0..n).collect();
    }
    let mut interner = Interner::new();
    let streams: Vec<Vec<u32>> = candidates
        .iter()
        .map(|html| {
            let toks = tokenize(html);
            toks.iter().map(|t| interner.intern(&t.text)).collect()
        })
        .collect();

    // Single-link clustering via union-find.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for i in 0..n {
        for j in i + 1..n {
            if page_similarity(&streams[i], &streams[j]) >= SIMILARITY_THRESHOLD {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
    }

    // Largest cluster wins.
    let mut clusters: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for i in 0..n {
        let root = find(&mut parent, i);
        clusters.entry(root).or_default().push(i);
    }
    clusters
        .into_values()
        .max_by_key(|members| (members.len(), std::cmp::Reverse(members[0])))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detail(name: &str, phone: &str) -> String {
        format!(
            "<html><h1>Example Pages</h1><h2>{name}</h2><table>\
             <tr><td><b>Name:</b></td><td>{name}</td></tr>\
             <tr><td><b>Phone:</b></td><td>{phone}</td></tr>\
             </table><p>Copyright 2004 Example Inc</p></html>"
        )
    }

    fn ad(n: usize) -> String {
        match n {
            0 => "<html><body><center><font size=7>HUGE SALE</font></center>\
                  <marquee>Buy now pay later great deals every day</marquee></body></html>"
                .to_owned(),
            _ => "<html><frameset><frame src=x></frameset>\
                  <div><div><div>Click here to win a prize now</div></div></div></html>"
                .to_owned(),
        }
    }

    #[test]
    fn picks_the_template_cluster() {
        let pages = [
            ad(0),
            detail("Ada Lovelace", "(555) 100-0001"),
            detail("Alan Turing", "(555) 100-0002"),
            ad(1),
            detail("Grace Hopper", "(555) 100-0003"),
        ];
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        assert_eq!(identify_detail_pages(&refs), vec![1, 2, 4]);
    }

    #[test]
    fn all_details_all_returned() {
        let pages = [
            detail("A B", "(555) 100-0001"),
            detail("C D", "(555) 100-0002"),
        ];
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        assert_eq!(identify_detail_pages(&refs), vec![0, 1]);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(identify_detail_pages(&[]).is_empty());
        assert_eq!(identify_detail_pages(&["<p>x</p>"]), vec![0]);
    }

    #[test]
    fn similarity_bounds() {
        let mut interner = Interner::new();
        let a: Vec<u32> = tokenize("<p>a b c</p>")
            .iter()
            .map(|t| interner.intern(&t.text))
            .collect();
        let b: Vec<u32> = tokenize("<div><div>zz</div></div>")
            .iter()
            .map(|t| interner.intern(&t.text))
            .collect();
        assert_eq!(page_similarity(&a, &a), 1.0);
        assert!(page_similarity(&a, &b) < 0.5);
        assert_eq!(page_similarity(&[], &[]), 1.0);
    }
}
