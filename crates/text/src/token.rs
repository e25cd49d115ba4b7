//! Tweet-aware tokenization.
//!
//! Twitter text is short, noisy, and full of platform artifacts that carry
//! sentiment signal (hashtags like `#yeson37`, emoticons) or none at all
//! (URLs, mention targets). The tokenizer keeps the former, normalizes or
//! drops the latter, and lowercases everything else.

/// Kinds of tokens a tweet decomposes into.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Token {
    /// A plain word, lowercased.
    Word(String),
    /// A `#hashtag`, lowercased, without the `#`.
    Hashtag(String),
    /// A `@mention`, lowercased, without the `@`.
    Mention(String),
    /// An emoticon such as `:)` or `:(`.
    Emoticon(String),
}

impl Token {
    /// The token's feature string as used in the vocabulary. Hashtags keep
    /// a `#` prefix and mentions a `@` prefix so they remain distinct
    /// features from plain words; emoticons are kept verbatim.
    pub(crate) fn feature(&self) -> String {
        match self {
            Token::Word(w) => w.clone(),
            Token::Hashtag(h) => format!("#{h}"),
            Token::Mention(m) => format!("@{m}"),
            Token::Emoticon(e) => e.clone(),
        }
    }
}

/// Configuration for [`tokenize`].
#[derive(Debug, Clone)]
pub struct TokenizerConfig {
    /// Drop tokens shorter than this many characters (after stripping).
    pub min_token_len: usize,
    /// Keep `@mention` tokens (they identify interaction, rarely sentiment).
    pub keep_mentions: bool,
    /// Keep numeric tokens such as `2012` or `$14`.
    pub keep_numbers: bool,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        Self {
            min_token_len: 2,
            keep_mentions: false,
            keep_numbers: false,
        }
    }
}

/// Emoticons recognized as single tokens (checked before punctuation
/// stripping). Sentiment-bearing, so worth preserving.
const EMOTICONS: &[&str] = &[
    ":)", ":-)", ":d", ":-d", ";)", ";-)", ":(", ":-(", ":'(", ":/", ":-/", "<3", "=)", "=(",
];

/// Splits raw tweet text into [`Token`]s.
///
/// Rules, in order:
/// 1. whitespace-split;
/// 2. URLs (`http…`, `www.…`) are dropped;
/// 3. known emoticons are kept verbatim;
/// 4. `#tag` / `@user` become [`Token::Hashtag`] / [`Token::Mention`];
/// 5. everything else is lowercased and stripped of non-alphanumerics;
/// 6. too-short and (optionally) numeric tokens are dropped.
pub fn tokenize(text: &str, config: &TokenizerConfig) -> Vec<Token> {
    let mut out = Vec::new();
    for raw in text.split_whitespace() {
        let lower = raw.to_lowercase();
        if lower.starts_with("http://")
            || lower.starts_with("https://")
            || lower.starts_with("www.")
        {
            continue;
        }
        if EMOTICONS.contains(&lower.as_str()) {
            out.push(Token::Emoticon(lower));
            continue;
        }
        if let Some(tag) = lower.strip_prefix('#') {
            let clean = strip_non_alnum(tag);
            if clean.len() >= config.min_token_len {
                out.push(Token::Hashtag(clean));
            }
            continue;
        }
        if let Some(user) = lower.strip_prefix('@') {
            if config.keep_mentions {
                let clean = strip_non_alnum(user);
                if clean.len() >= config.min_token_len {
                    out.push(Token::Mention(clean));
                }
            }
            continue;
        }
        // A word possibly glued to punctuation; split runs of alphanumerics.
        for piece in lower.split(|c: char| !c.is_alphanumeric() && c != '\'') {
            let clean: String = piece.chars().filter(|c| c.is_alphanumeric()).collect();
            if clean.len() < config.min_token_len {
                continue;
            }
            if !config.keep_numbers && clean.chars().all(|c| c.is_ascii_digit()) {
                continue;
            }
            out.push(Token::Word(clean));
        }
    }
    out
}

fn strip_non_alnum(s: &str) -> String {
    s.chars().filter(|c| c.is_alphanumeric()).collect()
}

/// Convenience: tokenize and return feature strings directly.
pub fn tokenize_features(text: &str, config: &TokenizerConfig) -> Vec<String> {
    let mut out = Vec::new();
    tokenize_features_into(text, config, &mut out);
    out
}

/// Buffer-reusing variant of [`tokenize_features`]: clears `out` and
/// fills it with the feature strings. High-rate ingest paths (the
/// `tgs-engine` worker) call this with a scratch buffer hoisted across
/// documents instead of allocating a fresh `Vec` per document.
pub fn tokenize_features_into(text: &str, config: &TokenizerConfig, out: &mut Vec<String>) {
    out.clear();
    out.extend(tokenize(text, config).iter().map(Token::feature));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(text: &str) -> Vec<String> {
        tokenize_features(text, &TokenizerConfig::default())
    }

    #[test]
    fn lowercases_and_strips_punctuation() {
        assert_eq!(
            features("Monsanto is PURE evil!!!"),
            vec!["monsanto", "is", "pure", "evil"]
        );
    }

    #[test]
    fn keeps_hashtags_with_prefix() {
        assert_eq!(
            features("Support the #California #GMO labeling"),
            vec!["support", "the", "#california", "#gmo", "labeling"]
        );
    }

    #[test]
    fn drops_urls_and_mentions_by_default() {
        assert_eq!(
            features("read this http://t.co/abc @someone now"),
            vec!["read", "this", "now"]
        );
    }

    #[test]
    fn keeps_mentions_when_configured() {
        let cfg = TokenizerConfig {
            keep_mentions: true,
            ..Default::default()
        };
        assert_eq!(tokenize_features("hi @Bob!", &cfg), vec!["hi", "@bob"]);
    }

    #[test]
    fn recognizes_emoticons() {
        let toks = tokenize("Love this :) so much", &TokenizerConfig::default());
        assert!(toks.contains(&Token::Emoticon(":)".into())));
    }

    #[test]
    fn drops_numbers_by_default_keeps_when_asked() {
        assert_eq!(features("14 billion in 2010"), vec!["billion", "in"]);
        let cfg = TokenizerConfig {
            keep_numbers: true,
            ..Default::default()
        };
        assert_eq!(
            tokenize_features("14 billion in 2010", &cfg),
            vec!["14", "billion", "in", "2010"]
        );
    }

    #[test]
    fn splits_glued_punctuation() {
        assert_eq!(
            features("risk,than conventional/food"),
            vec!["risk", "than", "conventional", "food"]
        );
    }

    #[test]
    fn min_len_filters_single_chars() {
        assert_eq!(features("a b cc"), vec!["cc"]);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(features("").is_empty());
        assert!(features("   \t \n ").is_empty());
    }
}
