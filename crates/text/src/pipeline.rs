//! End-to-end text pipeline: tokenized tweets → vocabulary → `Xp`,
//! `Xu`, `Sf0`.
//!
//! This is the front door most callers want: feed it tokenized
//! documents with user ids, get back everything the tri-clustering
//! framework needs on the text side.

use tgs_linalg::{CsrMatrix, DenseMatrix};

use crate::lexicon::Lexicon;
use crate::tfidf::{doc_feature_matrix, user_feature_matrix, Weighting};
use crate::token::TokenizerConfig;
use crate::vocab::{VocabConfig, Vocabulary};

/// Pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Tokenizer settings.
    pub tokenizer: TokenizerConfig,
    /// Vocabulary settings.
    pub vocab: VocabConfig,
    /// Term weighting for `Xp` / `Xu`.
    pub weighting: Weighting,
    /// Lexicon confidence mass for `Sf0` rows (see
    /// [`Lexicon::prior_matrix`]).
    pub lexicon_confidence: f64,
}

impl PipelineConfig {
    /// Default with the paper-style settings (tf-idf, 0.8 lexicon mass).
    pub fn paper_defaults() -> Self {
        Self {
            tokenizer: TokenizerConfig::default(),
            vocab: VocabConfig::default(),
            weighting: Weighting::TfIdf,
            lexicon_confidence: 0.8,
        }
    }
}

/// Output of the text pipeline.
#[derive(Debug, Clone)]
pub struct TextMatrices {
    /// Frozen vocabulary (feature layer `F`).
    pub vocab: Vocabulary,
    /// Tweet–feature matrix `Xp` (`n × l`).
    pub xp: CsrMatrix,
    /// User–feature matrix `Xu` (`m × l`).
    pub xu: CsrMatrix,
    /// Feature-sentiment prior `Sf0` (`l × k`).
    pub sf0: DenseMatrix,
    /// Encoded documents (feature ids per tweet), for downstream reuse.
    pub encoded: Vec<Vec<usize>>,
}

/// Runs the full pipeline over pre-tokenized documents.
///
/// * `docs[i]` holds the features of tweet `i`: raw text goes through
///   [`crate::tokenize_features`], while the synthetic generator
///   produces tokens directly;
/// * `doc_user[i]` is the (dense, `0..num_users`) id of its author;
/// * `lexicon` seeds the `Sf0` prior;
/// * `k` is the number of sentiment classes.
pub fn build_from_tokens(
    docs: &[Vec<String>],
    doc_user: &[usize],
    num_users: usize,
    lexicon: &Lexicon,
    k: usize,
    config: &PipelineConfig,
) -> TextMatrices {
    assert_eq!(
        docs.len(),
        doc_user.len(),
        "one author per document required"
    );
    let vocab = Vocabulary::build(
        docs.iter().map(|d| d.iter().map(String::as_str)),
        &config.vocab,
    );
    let encoded: Vec<Vec<usize>> = docs
        .iter()
        .map(|d| vocab.encode(d.iter().map(String::as_str)))
        .collect();
    let xp = doc_feature_matrix(&encoded, vocab.len(), config.weighting);
    let xu = user_feature_matrix(&xp, doc_user, num_users);
    let sf0 = lexicon.prior_matrix(&vocab, k, config.lexicon_confidence);
    TextMatrices {
        vocab,
        xp,
        xu,
        sf0,
        encoded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sentiment::Sentiment;
    use crate::token::tokenize_features;

    /// Tokenizes raw tweets the way the pipeline's config says to.
    fn tokenized(texts: &[&str], cfg: &PipelineConfig) -> Vec<Vec<String>> {
        texts
            .iter()
            .map(|t| tokenize_features(t, &cfg.tokenizer))
            .collect()
    }

    #[test]
    fn pipeline_end_to_end_shapes() {
        let texts = [
            "Support the #GMO Labeling Ballot Initiative #prop37",
            "Monsanto is pure evil",
            "GM crops poses no greater risk than conventional food",
            "Love this Yes on #Prop37 add :)",
        ];
        let users = vec![0, 1, 1, 0];
        let mut lexicon = Lexicon::new();
        for (w, class) in [
            ("love", Sentiment::Positive),
            ("support", Sentiment::Positive),
            ("evil", Sentiment::Negative),
            ("risk", Sentiment::Negative),
        ] {
            lexicon.insert(w, class);
        }
        let mut cfg = PipelineConfig::paper_defaults();
        cfg.vocab.min_count = 1;
        let out = build_from_tokens(&tokenized(&texts, &cfg), &users, 2, &lexicon, 3, &cfg);
        assert_eq!(out.xp.rows(), 4);
        assert_eq!(out.xu.rows(), 2);
        assert_eq!(out.xp.cols(), out.vocab.len());
        assert_eq!(out.xu.cols(), out.vocab.len());
        assert_eq!(out.sf0.shape(), (out.vocab.len(), 3));
        // lexicon word present in vocab ends up with high prior on its class
        let evil = out.vocab.id("evil").unwrap();
        assert!(out.sf0.get(evil, Sentiment::Negative.index()) > 0.5);
    }

    #[test]
    fn user_rows_aggregate_multiple_tweets() {
        let texts = ["gmo gmo labeling", "gmo safe"];
        let users = vec![0, 0];
        let mut cfg = PipelineConfig::paper_defaults();
        cfg.vocab.min_count = 1;
        cfg.weighting = Weighting::Counts;
        let docs = tokenized(&texts, &cfg);
        let out = build_from_tokens(&docs, &users, 1, &Lexicon::new(), 3, &cfg);
        let gmo = out.vocab.id("gmo").unwrap();
        assert_eq!(out.xu.get(0, gmo), 3.0);
    }

    #[test]
    fn build_from_tokens_matches_manual_encoding() {
        let docs = vec![
            vec!["alpha".to_string(), "beta".to_string()],
            vec!["beta".to_string(), "beta".to_string()],
        ];
        let mut cfg = PipelineConfig::paper_defaults();
        cfg.vocab.min_count = 1;
        cfg.weighting = Weighting::Counts;
        let out = build_from_tokens(&docs, &[0, 1], 2, &Lexicon::new(), 2, &cfg);
        let beta = out.vocab.id("beta").unwrap();
        assert_eq!(out.xp.get(1, beta), 2.0);
        assert_eq!(out.encoded[1].len(), 2);
    }
}
