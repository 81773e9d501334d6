//! The Hirschberg template-induction fold the histogram rolling merge
//! ([`tableseg_template::induce_with`]) replaced, kept verbatim:
//! progressive Hirschberg LCS ([`tableseg_template::lcs::lcs_indices`])
//! over the candidate streams in input-page order.

use tableseg_html::{Symbol, Token};
use tableseg_template::lcs::lcs_indices;
use tableseg_template::{candidate_streams, restabilize, InduceStats, Induction, Template};

/// [`tableseg_template::induce_with`] on the **Hirschberg path**
/// (input-order fold, quadratic LCS), reporting what it did. Same stream
/// contract; the `lcs` window statistics stay zero.
pub fn induce_interned(
    pages: &[Vec<Token>],
    streams: &[Vec<Symbol>],
    num_symbols: usize,
) -> (Induction, InduceStats) {
    debug_assert_eq!(pages.len(), streams.len());
    let mut stats = InduceStats {
        pages: pages.len(),
        ..InduceStats::default()
    };
    if pages.len() < 2 {
        return (
            Induction {
                template: Template { tokens: Vec::new() },
                anchors: vec![Vec::new(); pages.len()],
            },
            stats,
        );
    }

    let filtered = candidate_streams(streams, num_symbols);
    let template = fold_hirschberg(&filtered, &mut stats);
    let mut induction = embed(pages, &filtered, template);
    stats.unstable_dropped = restabilize(
        &mut induction,
        &pages.iter().map(Vec::len).collect::<Vec<_>>(),
    );
    (induction, stats)
}

/// The pre-histogram fold, verbatim: progressive Hirschberg LCS over the
/// candidate streams in input-page order.
fn fold_hirschberg(filtered: &[Vec<(Symbol, usize)>], stats: &mut InduceStats) -> Vec<Symbol> {
    let mut template: Vec<Symbol> = filtered[0].iter().map(|&(s, _)| s).collect();
    for stream in &filtered[1..] {
        let s_syms: Vec<Symbol> = stream.iter().map(|&(s, _)| s).collect();
        let pairs = lcs_indices(&template, &s_syms);
        stats.folds += 1;
        stats.anchors_dropped += template.len() - pairs.len();
        template = pairs.iter().map(|&(ti, _)| template[ti]).collect();
        if template.is_empty() {
            break;
        }
    }
    template
}

/// Embeds the folded template into every page and takes representative
/// tokens from the first page (the production finish step before its
/// anchor-stability pass, which [`restabilize`] applies).
fn embed(
    pages: &[Vec<Token>],
    filtered: &[Vec<(Symbol, usize)>],
    template: Vec<Symbol>,
) -> Induction {
    // Every template symbol occurs exactly once per page, so the embedding
    // is unique: look the position up in the filtered stream. A symbol
    // whose embedding is missing on some page is dropped.
    let embeddings: Vec<Vec<Option<usize>>> = filtered
        .iter()
        .map(|stream| {
            template
                .iter()
                .map(|&sym| stream.iter().find(|&&(s, _)| s == sym).map(|&(_, pos)| pos))
                .collect()
        })
        .collect();
    let kept: Vec<usize> = (0..template.len())
        .filter(|&col| embeddings.iter().all(|e| e[col].is_some()))
        .collect();
    let anchors: Vec<Vec<usize>> = embeddings
        .iter()
        .map(|e| kept.iter().map(|&col| e[col].unwrap_or_default()).collect())
        .collect();

    let template_tokens: Vec<Token> = kept
        .iter()
        .map(|&col| {
            let first_idx = embeddings[0][col].unwrap_or_default();
            pages[0][first_idx].clone()
        })
        .collect();

    debug_assert!(anchors.iter().all(|a| a.windows(2).all(|w| w[0] < w[1])));

    Induction {
        template: Template {
            tokens: template_tokens,
        },
        anchors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_html::lexer::tokenize;
    use tableseg_html::Interner;
    use tableseg_template::induce_with;

    fn page(body: &str) -> Vec<Token> {
        tokenize(&format!(
            "<html><body><h1>Results</h1><table>{body}</table><p>Copyright 2004</p></body></html>"
        ))
    }

    /// Runs both backends over the same pages and returns (histogram,
    /// hirschberg) inductions.
    fn both_paths(pages: &[Vec<Token>]) -> (Induction, Induction) {
        let mut interner = Interner::new();
        let streams: Vec<Vec<Symbol>> = pages.iter().map(|p| interner.intern_tokens(p)).collect();
        let hist = induce_with(pages, &streams, interner.len()).0;
        let hirsch = induce_interned(pages, &streams, interner.len()).0;
        (hist, hirsch)
    }

    #[test]
    fn histogram_and_hirschberg_agree_on_clean_pages() {
        let pages = vec![
            page("<tr><td>John Smith</td><td>New Holland</td></tr>"),
            page("<tr><td>Bob Jones</td><td>Columbus</td></tr><tr><td>Ann Fuller</td><td>Dayton</td></tr>"),
        ];
        let (hist, hirsch) = both_paths(&pages);
        let texts = |i: &Induction| {
            i.template
                .tokens
                .iter()
                .map(|t| t.text.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(&hist), texts(&hirsch));
        assert_eq!(hist.anchors, hirsch.anchors);
    }
}
