//! Sentiment lexicons and the prior matrix `Sf0`.
//!
//! The paper initializes the feature–sentiment prior `Sf0` from an
//! automatically built lexicon ("Yes" and "No" word lists from Smith et
//! al.). `Sf0(ij)` is the probability that feature `i` belongs to
//! sentiment class `j`; features absent from the lexicon receive a uniform
//! prior so the `α‖Sf − Sf0‖²` regularizer neither pushes nor pulls them.

use std::collections::HashMap;

use tgs_linalg::DenseMatrix;

use crate::sentiment::Sentiment;
use crate::vocab::Vocabulary;

/// A word → sentiment-class prior map.
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    entries: HashMap<String, Sentiment>,
}

impl Lexicon {
    /// An empty lexicon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds or replaces a word's class.
    pub fn insert(&mut self, word: &str, class: Sentiment) {
        self.entries.insert(word.to_lowercase(), class);
    }

    /// Looks up a word (case-insensitive).
    pub fn class_of(&self, word: &str) -> Option<Sentiment> {
        self.entries.get(&word.to_lowercase()).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(word, class)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Sentiment)> {
        self.entries.iter().map(|(w, &c)| (w.as_str(), c))
    }

    /// Builds the `l × k` prior matrix `Sf0` over a vocabulary.
    ///
    /// Lexicon words put `confidence` mass on their class and spread the
    /// remainder uniformly; out-of-lexicon words get the uniform prior
    /// `1/k`. Rows always sum to one.
    pub fn prior_matrix(&self, vocab: &Vocabulary, k: usize, confidence: f64) -> DenseMatrix {
        assert!(k >= 2, "need at least two sentiment classes");
        assert!(
            (0.0..=1.0).contains(&confidence),
            "confidence must be in [0, 1]"
        );
        let uniform = 1.0 / k as f64;
        let off = (1.0 - confidence) / (k as f64 - 1.0);
        let mut sf0 = DenseMatrix::filled(vocab.len(), k, uniform);
        for (w, class) in self.iter() {
            let j = class.index();
            if j >= k {
                continue; // e.g. a Neutral entry with k = 2
            }
            if let Some(i) = vocab.id(w) {
                let row = sf0.row_mut(i);
                for (col, v) in row.iter_mut().enumerate() {
                    *v = if col == j { confidence } else { off };
                }
            }
        }
        sf0
    }

    /// Lexicon coverage of a vocabulary: fraction of features with a
    /// lexicon entry.
    pub fn coverage(&self, vocab: &Vocabulary) -> f64 {
        if vocab.is_empty() {
            return 0.0;
        }
        let hit = vocab
            .tokens()
            .iter()
            .filter(|t| self.class_of(t).is_some())
            .count();
        hit as f64 / vocab.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex() -> Lexicon {
        let mut lex = Lexicon::new();
        for w in ["yeson37", "labelgmo", "safe"] {
            lex.insert(w, Sentiment::Positive);
        }
        for w in ["noprop37", "evil"] {
            lex.insert(w, Sentiment::Negative);
        }
        lex
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let l = lex();
        assert_eq!(l.class_of("YesOn37"), Some(Sentiment::Positive));
        assert_eq!(l.class_of("EVIL"), Some(Sentiment::Negative));
        assert_eq!(l.class_of("unknown"), None);
    }

    #[test]
    fn prior_matrix_rows_sum_to_one() {
        let l = lex();
        let vocab = Vocabulary::from_tokens(["yeson37", "evil", "corn"]);
        let sf0 = l.prior_matrix(&vocab, 3, 0.8);
        for i in 0..3 {
            let s: f64 = sf0.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {i} sums to {s}");
        }
    }

    #[test]
    fn prior_matrix_places_confidence_on_class() {
        let l = lex();
        let vocab = Vocabulary::from_tokens(["yeson37", "evil", "corn"]);
        let sf0 = l.prior_matrix(&vocab, 3, 0.8);
        let yid = vocab.id("yeson37").unwrap();
        let eid = vocab.id("evil").unwrap();
        let cid = vocab.id("corn").unwrap();
        assert!((sf0.get(yid, Sentiment::Positive.index()) - 0.8).abs() < 1e-12);
        assert!((sf0.get(eid, Sentiment::Negative.index()) - 0.8).abs() < 1e-12);
        assert!((sf0.get(cid, 0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn prior_matrix_k2_ignores_neutral_entries() {
        let mut l = lex();
        l.insert("meh", Sentiment::Neutral);
        let vocab = Vocabulary::from_tokens(["meh"]);
        let sf0 = l.prior_matrix(&vocab, 2, 0.9);
        assert!((sf0.get(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coverage_fraction() {
        let l = lex();
        let vocab = Vocabulary::from_tokens(["yeson37", "evil", "corn", "farmer"]);
        assert!((l.coverage(&vocab) - 0.5).abs() < 1e-12);
    }
}
