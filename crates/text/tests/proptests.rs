//! Property-based tests for the text substrate.

use proptest::prelude::*;
use tgs_text::{
    doc_feature_matrix, tokenize_features, Lexicon, Sentiment, TokenizerConfig, VocabConfig,
    Vocabulary, Weighting,
};

/// Strategy: short "tweets" of lowercase words, hashtags and junk.
fn raw_tweet() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            "[a-z]{2,8}",
            "#[a-z]{2,8}",
            "@[a-z]{2,8}",
            Just("http://t.co/xyz".to_string()),
            Just(":)".to_string()),
            "[0-9]{1,4}",
        ],
        0..12,
    )
    .prop_map(|words| words.join(" "))
}

proptest! {
    #[test]
    fn tokenizer_never_panics_and_output_is_clean(text in raw_tweet()) {
        let toks = tokenize_features(&text, &TokenizerConfig::default());
        for t in &toks {
            prop_assert!(!t.is_empty());
            prop_assert!(!t.starts_with("http"), "URLs must be dropped: {t}");
            prop_assert!(!t.starts_with('@'), "mentions dropped by default: {t}");
            prop_assert_eq!(t.to_lowercase(), t.clone(), "tokens are lowercased");
        }
    }

    #[test]
    fn tokenizer_idempotent_on_its_own_output(text in raw_tweet()) {
        let cfg = TokenizerConfig::default();
        let once = tokenize_features(&text, &cfg);
        let rejoined = once.join(" ");
        let twice = tokenize_features(&rejoined, &cfg);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn vocabulary_ids_are_dense_and_consistent(
        docs in proptest::collection::vec(
            proptest::collection::vec("[a-z]{2,5}", 1..8),
            1..10,
        )
    ) {
        let vocab = Vocabulary::build(
            docs.iter().map(|d| d.iter().map(String::as_str)),
            &VocabConfig { min_count: 1, max_features: 0, remove_stopwords: false },
        );
        for id in 0..vocab.len() {
            let tok = vocab.token(id);
            prop_assert_eq!(vocab.id(tok), Some(id), "id/token must roundtrip");
        }
        // every document token must be in the vocabulary (min_count = 1)
        for d in &docs {
            let enc = vocab.encode(d.iter().map(String::as_str));
            prop_assert_eq!(enc.len(), d.len());
        }
    }

    #[test]
    fn doc_feature_matrix_preserves_token_mass(
        docs in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 1..10),
            1..8,
        )
    ) {
        let vocab = Vocabulary::from_tokens((0..6).map(|i| format!("w{i}")));
        let x = doc_feature_matrix(&docs, vocab.len(), Weighting::Counts);
        let total_tokens: usize = docs.iter().map(Vec::len).sum();
        prop_assert!((x.sum() - total_tokens as f64).abs() < 1e-9);
    }

    #[test]
    fn prior_matrix_rows_always_sum_to_one(
        words in proptest::collection::btree_set("[a-z]{3,6}", 1..10),
        confidence in 0.0..1.0f64,
    ) {
        let words: Vec<String> = words.into_iter().collect();
        let mut lexicon = Lexicon::new();
        for (i, w) in words.iter().enumerate() {
            let class = if i % 2 == 0 { Sentiment::Positive } else { Sentiment::Negative };
            lexicon.insert(w, class);
        }
        let vocab = Vocabulary::from_tokens(words.iter().cloned().chain(["neutralword".into()]));
        for k in [2usize, 3] {
            let sf0 = lexicon.prior_matrix(&vocab, k, confidence);
            for i in 0..vocab.len() {
                let sum: f64 = sf0.row(i).iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}");
                prop_assert!(sf0.row(i).iter().all(|&v| v >= 0.0));
            }
        }
    }
}
