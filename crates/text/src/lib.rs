//! # tgs-text
//!
//! The text/NLP substrate of the tripartite sentiment workspace: a
//! tweet-aware tokenizer, vocabulary construction, tf-idf vectorization
//! (producing the paper's `Xp` and `Xu` matrices), sentiment lexicons and
//! the `Sf0` feature–sentiment prior.
//!
//! ```
//! use tgs_text::{build_from_tokens, tokenize_features, Lexicon, PipelineConfig, Sentiment};
//!
//! let texts = ["I love #gmo labeling :)", "no on 37, gmo crops are safe"];
//! let mut cfg = PipelineConfig::paper_defaults();
//! cfg.vocab.min_count = 1;
//! let docs: Vec<Vec<String>> = texts.iter().map(|t| tokenize_features(t, &cfg.tokenizer)).collect();
//! let mut lexicon = Lexicon::new();
//! lexicon.insert("love", Sentiment::Positive);
//! lexicon.insert("no", Sentiment::Negative);
//! let m = build_from_tokens(&docs, &[0, 1], 2, &lexicon, 3, &cfg);
//! assert_eq!(m.xp.rows(), 2);
//! ```

mod lexicon;
mod pipeline;
mod sentiment;
mod tfidf;
mod token;
mod vocab;

pub use lexicon::Lexicon;
pub use pipeline::{build_from_tokens, PipelineConfig, TextMatrices};
pub use sentiment::Sentiment;
pub use tfidf::{doc_feature_matrix, user_feature_matrix, Weighting};
pub use token::{tokenize, tokenize_features, tokenize_features_into, Token, TokenizerConfig};
pub use vocab::{VocabConfig, Vocabulary};
