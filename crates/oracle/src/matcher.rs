//! The clone-and-scan string matcher the production
//! [`PageIndex`](tableseg_extract::PageIndex) replaced, kept verbatim as the reference
//! semantics for extract matching (footnote 1 of the paper: matching
//! ignores intervening separators and is case-sensitive).

use tableseg_extract::is_separator;
use tableseg_html::Token;

/// A page reduced to its non-separator tokens, the form in which extract
/// matching is performed. Construction is O(page length); each match query
/// is a naive linear scan of the whole reduced stream.
///
/// This is the **oracle** implementation: simple enough to trust, used by
/// the property tests to validate
/// [`PageIndex`](tableseg_extract::PageIndex), which must return exactly
/// the same positions.
#[derive(Debug, Clone)]
pub struct MatchStream {
    texts: Vec<String>,
}

impl MatchStream {
    /// Builds the match stream of a page.
    pub fn new(tokens: &[Token]) -> MatchStream {
        MatchStream {
            texts: tokens
                .iter()
                .filter(|t| !is_separator(t))
                .map(|t| t.text.clone())
                .collect(),
        }
    }

    /// Number of matchable tokens.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// True if the page has no matchable tokens.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// The token texts.
    pub fn texts(&self) -> &[String] {
        &self.texts
    }

    /// All starting positions (token number within this reduced stream) at
    /// which `needle` occurs as a contiguous run.
    pub fn find_all(&self, needle: &[&str]) -> Vec<usize> {
        if needle.is_empty() || needle.len() > self.texts.len() {
            return Vec::new();
        }
        let mut out = Vec::new();
        'outer: for start in 0..=self.texts.len() - needle.len() {
            for (k, &n) in needle.iter().enumerate() {
                if self.texts[start + k] != n {
                    continue 'outer;
                }
            }
            out.push(start);
        }
        out
    }

    /// Returns `true` if `needle` occurs at least once.
    pub fn contains(&self, needle: &[&str]) -> bool {
        !self.find_all(needle).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_html::lexer::tokenize;

    fn stream(html: &str) -> MatchStream {
        MatchStream::new(&tokenize(html))
    }

    #[test]
    fn ignores_intervening_tags() {
        // The paper's footnote example.
        let s = stream("FirstName <br>LastName");
        assert!(s.contains(&["FirstName", "LastName"]));
    }

    #[test]
    fn ignores_intervening_special_punctuation() {
        let s = stream("Name: John | Smith");
        assert!(s.contains(&["John", "Smith"]));
    }

    #[test]
    fn preserves_allowed_punctuation() {
        let s = stream("(740) 335-5555");
        assert!(s.contains(&["(", "740", ")", "335", "-", "5555"]));
        assert!(!s.contains(&["740", "335", "5555"]));
    }

    #[test]
    fn case_sensitive() {
        let s = stream("PAROLE");
        assert!(!s.contains(&["Parole"]));
        assert!(s.contains(&["PAROLE"]));
    }

    #[test]
    fn find_all_positions() {
        let s = stream("a b a b a");
        assert_eq!(s.find_all(&["a", "b"]), vec![0, 2]);
        assert_eq!(s.find_all(&["a"]), vec![0, 2, 4]);
        assert_eq!(s.find_all(&["b", "a"]), vec![1, 3]);
    }

    #[test]
    fn needle_longer_than_page() {
        let s = stream("x");
        assert!(s.find_all(&["x", "y"]).is_empty());
        assert!(s.find_all(&[]).is_empty());
    }

    #[test]
    fn positions_index_reduced_stream() {
        // Tags do not count towards positions.
        let s = stream("<html><body>first <b>second</b></body>");
        assert_eq!(s.find_all(&["second"]), vec![1]);
    }

    #[test]
    fn empty_page() {
        let s = stream("<br><td></td>");
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(&["x"]));
    }
}
