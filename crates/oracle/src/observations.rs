//! The naive observation-table builder the indexed matcher replaced,
//! kept verbatim.

use tableseg_extract::filter::{decide, Decision};
use tableseg_extract::observations::SkippedExtract;
use tableseg_extract::{Extract, ObsItem, Observations, PagePos};
use tableseg_html::Token;

use crate::matcher::MatchStream;

/// The original per-extract string scan over [`MatchStream`]s, kept as the
/// **test oracle** for [`tableseg_extract::match_extracts`] (see
/// `tests/extract_props.rs`): trivially correct, no interning, no index,
/// no memoization.
pub fn match_extracts_naive(
    extracts: Vec<Extract>,
    other_list_pages: &[&[Token]],
    detail_pages: &[&[Token]],
) -> Observations {
    let detail_streams: Vec<MatchStream> =
        detail_pages.iter().map(|p| MatchStream::new(p)).collect();
    let other_streams: Vec<MatchStream> = other_list_pages
        .iter()
        .map(|p| MatchStream::new(p))
        .collect();

    let mut items = Vec::new();
    let mut skipped = Vec::new();

    for extract in extracts {
        let texts = extract.token_texts();
        let mut pages = Vec::new();
        let mut positions = Vec::new();
        for (j, stream) in detail_streams.iter().enumerate() {
            let hits = stream.find_all(&texts);
            if !hits.is_empty() {
                pages.push(j as u32);
                for pos in hits {
                    positions.push(PagePos {
                        page: j as u32,
                        pos: pos as u32,
                    });
                }
            }
        }
        let decision = decide(pages.len(), detail_streams.len(), || {
            !other_streams.is_empty() && other_streams.iter().all(|s| s.contains(&texts))
        });
        match decision {
            Decision::Keep => items.push(ObsItem::new(extract, pages, positions)),
            Decision::Skip(reason) => skipped.push(SkippedExtract { extract, reason }),
        }
    }

    Observations {
        num_records: detail_pages.len(),
        items,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_extract::{derive_extracts, match_extracts};
    use tableseg_html::lexer::tokenize;

    /// A miniature of the paper's Superpages example (Table 1): two records
    /// sharing a name and a phone number, plus a third record.
    fn superpages_fixture() -> (Vec<Token>, Vec<Vec<Token>>) {
        let list = tokenize(
            "<tr><td>John Smith</td><td>221 Washington</td><td>New Holland</td><td>(740) 335-5555</td></tr>\
             <tr><td>John Smith</td><td>221R Washington</td><td>Washington</td><td>(740) 335-5555</td></tr>\
             <tr><td>George W. Smith</td><td>Findlay, OH</td><td>(419) 423-1212</td></tr>",
        );
        let details = vec![
            tokenize(
                "<h1>John Smith</h1><p>221 Washington</p><p>New Holland</p><p>(740) 335-5555</p>",
            ),
            tokenize(
                "<h1>John Smith</h1><p>221R Washington</p><p>Washington</p><p>(740) 335-5555</p>",
            ),
            tokenize("<h1>George W. Smith</h1><p>Findlay, OH</p><p>(419) 423-1212</p>"),
        ];
        (list, details)
    }

    #[test]
    fn indexed_agrees_with_naive_on_superpages() {
        let (list, details) = superpages_fixture();
        let detail_refs: Vec<&[Token]> = details.iter().map(Vec::as_slice).collect();
        let fast = match_extracts(derive_extracts(&list), &[], &detail_refs);
        let naive = match_extracts_naive(derive_extracts(&list), &[], &detail_refs);
        assert_eq!(fast.items, naive.items);
        assert_eq!(fast.skipped, naive.skipped);
        assert_eq!(fast.num_records, naive.num_records);
    }
}
