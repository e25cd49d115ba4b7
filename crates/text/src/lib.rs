//! # tgs-text
//!
//! The text/NLP substrate of the tripartite sentiment workspace: a
//! tweet-aware tokenizer, vocabulary construction, tf-idf vectorization
//! (producing the paper's `Xp` and `Xu` matrices), sentiment lexicons and
//! the `Sf0` feature–sentiment prior.
//!
//! ```
//! use tgs_text::{build_text_matrices, Lexicon, PipelineConfig};
//!
//! let texts = vec!["I love #gmo labeling :)".to_string(), "no on 37, gmo crops are safe".to_string()];
//! let mut cfg = PipelineConfig::paper_defaults();
//! cfg.vocab.min_count = 1;
//! let lexicon = Lexicon::from_word_lists(&["love"], &["no"]);
//! let m = build_text_matrices(&texts, &[0, 1], 2, &lexicon, 3, &cfg);
//! assert_eq!(m.xp.rows(), 2);
//! ```

pub mod lexicon;
pub mod pipeline;
pub mod sentiment;
pub mod tfidf;
pub mod token;
pub mod vocab;

pub use lexicon::{lexicon_vote, Lexicon};
pub use pipeline::{build_from_tokens, build_text_matrices, PipelineConfig, TextMatrices};
pub use sentiment::Sentiment;
pub use tfidf::{doc_feature_matrix, user_feature_matrix, Weighting};
pub use token::{tokenize, tokenize_features, tokenize_features_into, Token, TokenizerConfig};
pub use vocab::{VocabConfig, Vocabulary, STOPWORDS};
