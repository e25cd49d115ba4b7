//! Corpus import/export in a plain TSV interchange format, so real
//! (non-synthetic) Twitter datasets can be fed through the same pipeline
//! and synthetic corpora can be shared between tools.
//!
//! Format (tab-separated, one record per line, `#`-prefixed comments):
//!
//! ```text
//! # tweets
//! T <id> <author> <day> <sentiment> <label|-> <token token …>
//! # retweets
//! R <user> <tweet> <day>
//! # users
//! U <id> <stance|before:after:day> <label|-> <activity> <join> <leave>
//! # lexicon
//! L <word> <pos|neg>
//! ```

use std::io::{BufRead, Write};

use tgs_text::{Lexicon, Sentiment};

use crate::model::{Corpus, Retweet, Trajectory, Tweet, UserProfile};

/// Errors raised when parsing a corpus file.
#[derive(Debug)]
pub enum CorpusIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for CorpusIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusIoError::Io(e) => write!(f, "corpus io error: {e}"),
            CorpusIoError::Parse { line, message } => {
                write!(f, "corpus parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for CorpusIoError {}

impl From<std::io::Error> for CorpusIoError {
    fn from(e: std::io::Error) -> Self {
        CorpusIoError::Io(e)
    }
}

fn sentiment_tag(s: Sentiment) -> &'static str {
    s.as_str()
}

fn parse_sentiment(tag: &str, line: usize) -> Result<Sentiment, CorpusIoError> {
    match tag {
        "pos" => Ok(Sentiment::Positive),
        "neg" => Ok(Sentiment::Negative),
        "neu" => Ok(Sentiment::Neutral),
        other => Err(CorpusIoError::Parse {
            line,
            message: format!("unknown sentiment tag '{other}'"),
        }),
    }
}

/// Writes a corpus to any writer in the TSV interchange format, then
/// flushes it. Equal corpora write equal bytes: the lexicon's `L` lines
/// come sorted by word, not in hash-map order.
pub fn write_corpus<W: Write>(corpus: &Corpus, mut out: W) -> std::io::Result<()> {
    writeln!(out, "# tripartite-sentiment corpus v1")?;
    writeln!(out, "# topic\t{}\tdays\t{}", corpus.topic, corpus.num_days)?;
    for t in &corpus.tweets {
        let label = t.label.map(sentiment_tag).unwrap_or("-");
        writeln!(
            out,
            "T\t{}\t{}\t{}\t{}\t{}\t{}",
            t.id,
            t.author,
            t.day,
            sentiment_tag(t.sentiment),
            label,
            t.tokens.join(" ")
        )?;
    }
    for r in &corpus.retweets {
        writeln!(out, "R\t{}\t{}\t{}", r.user, r.tweet, r.day)?;
    }
    for u in &corpus.users {
        let stance = match u.trajectory {
            Trajectory::Stable(s) => sentiment_tag(s).to_string(),
            Trajectory::Flip {
                before,
                after,
                at_day,
            } => {
                format!(
                    "{}:{}:{}",
                    sentiment_tag(before),
                    sentiment_tag(after),
                    at_day
                )
            }
        };
        let label = u.label.map(sentiment_tag).unwrap_or("-");
        writeln!(
            out,
            "U\t{}\t{}\t{}\t{}\t{}\t{}",
            u.id, stance, label, u.activity, u.join_day, u.leave_day
        )?;
    }
    let mut lexicon: Vec<(&str, Sentiment)> = corpus.lexicon.iter().collect();
    lexicon.sort_unstable_by_key(|&(word, _)| word);
    for (word, class) in lexicon {
        writeln!(out, "L\t{}\t{}", word, sentiment_tag(class))?;
    }
    out.flush()
}

/// Reads a corpus from any buffered reader. Records may appear in any
/// order; tweets are re-sorted by day and re-numbered if needed.
pub fn read_corpus<R: BufRead>(reader: R) -> Result<Corpus, CorpusIoError> {
    let mut topic = "imported".to_string();
    let mut num_days = 0u32;
    let mut tweets: Vec<Tweet> = Vec::new();
    let mut retweets: Vec<Retweet> = Vec::new();
    let mut users: Vec<UserProfile> = Vec::new();
    let mut lexicon = Lexicon::new();

    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# topic\t") {
            let mut it = rest.split('\t');
            if let Some(t) = it.next() {
                topic = t.to_string();
            }
            if let (Some("days"), Some(d)) = (it.next(), it.next()) {
                num_days = d.parse().map_err(|_| CorpusIoError::Parse {
                    line: line_no,
                    message: "bad day count".into(),
                })?;
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let parse_err = |message: String| CorpusIoError::Parse {
            line: line_no,
            message,
        };
        let num = |s: &str| -> Result<usize, CorpusIoError> {
            s.parse().map_err(|_| CorpusIoError::Parse {
                line: line_no,
                message: format!("expected a number, got '{s}'"),
            })
        };
        match fields.first() {
            Some(&"T") => {
                if fields.len() != 7 {
                    return Err(parse_err(format!(
                        "T record needs 7 fields, got {}",
                        fields.len()
                    )));
                }
                let sentiment = parse_sentiment(fields[4], line_no)?;
                let label = if fields[5] == "-" {
                    None
                } else {
                    Some(parse_sentiment(fields[5], line_no)?)
                };
                tweets.push(Tweet {
                    id: num(fields[1])?,
                    author: num(fields[2])?,
                    day: num(fields[3])? as u32,
                    sentiment,
                    label,
                    tokens: fields[6].split(' ').map(str::to_string).collect(),
                });
            }
            Some(&"R") => {
                if fields.len() != 4 {
                    return Err(parse_err(format!(
                        "R record needs 4 fields, got {}",
                        fields.len()
                    )));
                }
                retweets.push(Retweet {
                    user: num(fields[1])?,
                    tweet: num(fields[2])?,
                    day: num(fields[3])? as u32,
                });
            }
            Some(&"U") => {
                if fields.len() != 7 {
                    return Err(parse_err(format!(
                        "U record needs 7 fields, got {}",
                        fields.len()
                    )));
                }
                let trajectory = if let Some((before, rest)) = fields[2].split_once(':') {
                    let (after, day) =
                        rest.split_once(':').ok_or_else(|| CorpusIoError::Parse {
                            line: line_no,
                            message: "flip stance needs before:after:day".into(),
                        })?;
                    Trajectory::Flip {
                        before: parse_sentiment(before, line_no)?,
                        after: parse_sentiment(after, line_no)?,
                        at_day: num(day)? as u32,
                    }
                } else {
                    Trajectory::Stable(parse_sentiment(fields[2], line_no)?)
                };
                let label = if fields[3] == "-" {
                    None
                } else {
                    Some(parse_sentiment(fields[3], line_no)?)
                };
                let activity: f64 = fields[4].parse().map_err(|_| CorpusIoError::Parse {
                    line: line_no,
                    message: format!("bad activity '{}'", fields[4]),
                })?;
                users.push(UserProfile {
                    id: num(fields[1])?,
                    trajectory,
                    label,
                    activity,
                    join_day: num(fields[5])? as u32,
                    leave_day: num(fields[6])? as u32,
                });
            }
            Some(&"L") => {
                if fields.len() != 3 {
                    return Err(parse_err(format!(
                        "L record needs 3 fields, got {}",
                        fields.len()
                    )));
                }
                lexicon.insert(fields[1], parse_sentiment(fields[2], line_no)?);
            }
            Some(other) => {
                return Err(parse_err(format!("unknown record type '{other}'")));
            }
            None => {}
        }
    }

    // Normalize: sort tweets by (day, id) and re-number densely so the
    // invariants the rest of the pipeline expects always hold.
    tweets.sort_by_key(|t| (t.day, t.id));
    let mut id_map = std::collections::HashMap::with_capacity(tweets.len());
    for (new_id, t) in tweets.iter_mut().enumerate() {
        id_map.insert(t.id, new_id);
        t.id = new_id;
    }
    for r in &mut retweets {
        r.tweet = *id_map.get(&r.tweet).ok_or(CorpusIoError::Parse {
            line: 0,
            message: format!("retweet references unknown tweet {}", r.tweet),
        })?;
    }
    users.sort_by_key(|u| u.id);
    let max_day = tweets.iter().map(|t| t.day).max().unwrap_or(0);
    let num_days = num_days.max(max_day + 1);
    // Validate references.
    for t in &tweets {
        if t.author >= users.len() {
            return Err(CorpusIoError::Parse {
                line: 0,
                message: format!("tweet {} authored by unknown user {}", t.id, t.author),
            });
        }
    }
    for r in &retweets {
        if r.user >= users.len() {
            return Err(CorpusIoError::Parse {
                line: 0,
                message: format!("retweet by unknown user {}", r.user),
            });
        }
    }
    Ok(Corpus {
        topic,
        users,
        tweets,
        retweets,
        lexicon,
        num_days,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::presets;

    #[test]
    fn roundtrip_preserves_corpus() {
        let corpus = generate(&presets::tiny(99));
        let mut buf = Vec::new();
        write_corpus(&corpus, &mut buf).unwrap();
        let back = read_corpus(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.topic, corpus.topic);
        assert_eq!(back.num_days, corpus.num_days);
        assert_eq!(back.num_tweets(), corpus.num_tweets());
        assert_eq!(back.num_users(), corpus.num_users());
        assert_eq!(back.retweets.len(), corpus.retweets.len());
        assert_eq!(back.lexicon.len(), corpus.lexicon.len());
        for (a, b) in corpus.tweets.iter().zip(back.tweets.iter()) {
            assert_eq!(a.tokens, b.tokens);
            assert_eq!(a.sentiment, b.sentiment);
            assert_eq!(a.label, b.label);
            assert_eq!(a.author, b.author);
            assert_eq!(a.day, b.day);
        }
        for (a, b) in corpus.users.iter().zip(back.users.iter()) {
            assert_eq!(a.trajectory, b.trajectory);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn rejects_malformed_records() {
        let cases = [
            "T\t0\t0",                     // too few fields
            "T\t0\t0\t0\tmaybe\t-\thello", // bad sentiment
            "X\t1\t2\t3",                  // unknown record
            "U\t0\tpos:neg\t-\t1.0\t0\t5", // bad flip spec
        ];
        for case in cases {
            let err = read_corpus(std::io::BufReader::new(case.as_bytes()));
            assert!(err.is_err(), "should reject: {case}");
        }
    }

    #[test]
    fn reorders_out_of_order_tweets() {
        let data = "\
# topic\tdemo\tdays\t5
U\t0\tpos\t-\t1.0\t0\t4
T\t7\t0\t3\tpos\t-\tlate words
T\t2\t0\t1\tneg\tneg\tearly words
R\t0\t7\t3
";
        // retweet by author is allowed at the io layer
        let corpus = read_corpus(std::io::BufReader::new(data.as_bytes())).unwrap();
        assert_eq!(corpus.tweets[0].day, 1);
        assert_eq!(corpus.tweets[1].day, 3);
        // the retweet's reference follows the renumbering
        assert_eq!(corpus.retweets[0].tweet, 1);
        assert_eq!(corpus.num_days, 5);
    }

    #[test]
    fn rejects_dangling_references() {
        let data = "U\t0\tpos\t-\t1.0\t0\t4\nT\t0\t5\t0\tpos\t-\thello world\n";
        assert!(read_corpus(std::io::BufReader::new(data.as_bytes())).is_err());
    }
}
