//! Automatic site navigation — the application the paper envisions.
//!
//! "We envision an application where the user provides a pointer to the
//! top-level page — index page or a form — and the system automatically
//! navigates the site, retrieving all pages, classifying them as list and
//! detail pages, and extracting structured data from these pages."
//! (Section 3)
//!
//! [`navigate`] starts from one list page and, using only a fetch
//! function:
//!
//! 1. discovers **sibling list pages** by following links whose content is
//!    template-similar to the start page (the "Next" chain);
//! 2. fetches every other link on each list page and **classifies** the
//!    results with [`identify_detail_pages`]
//!    — same-template pages are the detail pages, advertisements fall out;
//! 3. returns, per list page, the detail pages in link (= row) order —
//!    exactly the input `prepare` needs.

use std::collections::HashMap;

use tableseg_html::lexer::tokenize;
use tableseg_html::links::extract_links;
use tableseg_html::Interner;

use crate::detail_id::{identify_detail_pages, page_similarity};

/// Similarity above which a linked page counts as another *list* page of
/// the same site (the next results page). List pages share the full page
/// template; detail pages do not resemble the list page this strongly.
pub const LIST_SIMILARITY: f64 = 0.55;

/// Everything the navigator discovered, ready for
/// [`prepare`](crate::prepare).
#[derive(Debug, Clone)]
pub struct NavigatedSite {
    /// URLs of the discovered list pages, in discovery order (the start
    /// page first).
    pub list_urls: Vec<String>,
    /// The list pages' HTML, aligned with `list_urls`.
    pub list_pages: Vec<String>,
    /// Per list page: the detail-page URLs in row order.
    pub detail_urls: Vec<Vec<String>>,
    /// Per list page: the detail pages' HTML, aligned with `detail_urls`.
    pub detail_pages: Vec<Vec<String>>,
    /// Linked pages that were fetched but classified as non-detail
    /// (advertisements and other extraneous pages).
    pub rejected: usize,
}

/// Navigates a site from `start_url`, fetching at most `max_list_pages`
/// list pages. `fetch` returns the HTML of a URL, or `None` for dead
/// links. Returns `None` if the start page itself cannot be fetched.
pub fn navigate(
    fetch: &dyn Fn(&str) -> Option<String>,
    start_url: &str,
    max_list_pages: usize,
) -> Option<NavigatedSite> {
    let start_html = fetch(start_url)?;

    // Phase 1: discover the list-page chain.
    let mut interner = Interner::new();
    let tokens_of = |html: &str, interner: &mut Interner| -> Vec<u32> {
        tokenize(html)
            .iter()
            .map(|t| interner.intern(&t.text))
            .collect()
    };
    let start_stream = tokens_of(&start_html, &mut interner);

    let mut list_urls = vec![start_url.to_owned()];
    let mut list_pages = vec![start_html];
    let mut fetched: HashMap<String, Option<String>> = HashMap::new();
    fetched.insert(start_url.to_owned(), None); // never refetch the start

    let mut frontier = 0;
    while frontier < list_pages.len() && list_pages.len() < max_list_pages {
        let links = extract_links(&tokenize(&list_pages[frontier]));
        for link in links {
            if list_pages.len() >= max_list_pages {
                break;
            }
            if fetched.contains_key(&link.href) {
                continue;
            }
            match fetch(&link.href) {
                Some(html)
                    if page_similarity(&start_stream, &tokens_of(&html, &mut interner))
                        >= LIST_SIMILARITY =>
                {
                    fetched.insert(link.href.clone(), None);
                    list_urls.push(link.href);
                    list_pages.push(html);
                }
                // Cache for phase 2 (detail candidates), including dead
                // links as None.
                body => {
                    fetched.insert(link.href, body);
                }
            }
        }
        frontier += 1;
    }

    // Phase 2: per list page, classify the remaining links.
    let mut detail_urls = Vec::with_capacity(list_pages.len());
    let mut detail_pages = Vec::with_capacity(list_pages.len());
    let mut rejected = 0;
    for html in &list_pages {
        let mut urls = Vec::new();
        let mut bodies = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for link in extract_links(&tokenize(html)) {
            if list_urls.contains(&link.href) || !seen.insert(link.href.clone()) {
                continue;
            }
            let body = fetched
                .entry(link.href.clone())
                .or_insert_with(|| fetch(&link.href));
            if let Some(body) = body.clone() {
                urls.push(link.href);
                bodies.push(body);
            }
        }
        let refs: Vec<&str> = bodies.iter().map(String::as_str).collect();
        let keep = identify_detail_pages(&refs);
        rejected += bodies.len() - keep.len();
        detail_urls.push(keep.iter().map(|&i| urls[i].clone()).collect());
        detail_pages.push(keep.iter().map(|&i| bodies[i].clone()).collect());
    }

    Some(NavigatedSite {
        list_urls,
        list_pages,
        detail_urls,
        detail_pages,
        rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare, SitePages};
    use crate::segmenter::{CspSegmenter, Segmenter};
    use tableseg_sitegen::paper_sites;
    use tableseg_sitegen::site::generate;

    fn fetcher(map: std::collections::HashMap<String, String>) -> impl Fn(&str) -> Option<String> {
        move |url: &str| map.get(url).cloned()
    }

    #[test]
    fn discovers_list_chain_and_details() {
        let site = generate(&paper_sites::ohio());
        let truth_counts: Vec<usize> = site.pages.iter().map(|p| p.truth.len()).collect();
        let fetch = fetcher(site.site_map(2));
        let nav = navigate(&fetch, "/list/0", 4).expect("start fetches");
        assert_eq!(nav.list_urls, vec!["/list/0", "/list/1"]);
        assert_eq!(nav.detail_pages.len(), 2);
        for (p, urls) in nav.detail_urls.iter().enumerate() {
            assert_eq!(urls.len(), truth_counts[p], "page {p}: {urls:?}");
            // Row order preserved.
            for (i, url) in urls.iter().enumerate() {
                assert_eq!(url, &format!("/detail/{p}/{i}"));
            }
        }
        // The two ad pages were fetched and rejected (once per list page
        // that links them, deduplicated by the per-page seen set).
        assert!(nav.rejected >= 2, "{}", nav.rejected);
    }

    #[test]
    fn navigated_site_segments_end_to_end() {
        let site = generate(&paper_sites::butler());
        let fetch = fetcher(site.site_map(2));
        let nav = navigate(&fetch, "/list/0", 4).expect("start fetches");
        let prepared = prepare(&SitePages {
            list_pages: nav.list_pages.iter().map(String::as_str).collect(),
            target: 0,
            detail_pages: nav.detail_pages[0].iter().map(String::as_str).collect(),
        });
        let outcome = CspSegmenter::default().segment(&prepared.observations);
        assert!(!outcome.relaxed);
        let non_empty = outcome
            .segmentation
            .records()
            .iter()
            .filter(|r| !r.is_empty())
            .count();
        assert_eq!(non_empty, site.pages[0].truth.len());
    }

    #[test]
    fn dead_start_url_is_none() {
        let fetch = fetcher(std::collections::HashMap::new());
        assert!(navigate(&fetch, "/list/0", 4).is_none());
    }

    #[test]
    fn max_list_pages_caps_the_chain() {
        let site = generate(&paper_sites::ohio());
        let fetch = fetcher(site.site_map(0));
        let nav = navigate(&fetch, "/list/0", 1).expect("start fetches");
        assert_eq!(nav.list_pages.len(), 1);
    }
}
