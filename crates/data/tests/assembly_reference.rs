//! Bit-level reference for the text matrices.
//!
//! `assemble_snapshot_matrices` (the per-snapshot path) and
//! `build_from_tokens` (the offline path) must produce `Xp` and `Xu` with
//! the same `indptr`, the same `indices` and the same bits in every value
//! as the straightforward algorithm written out below: document
//! frequencies from a sorted, deduplicated copy of each document, one
//! weighted `(feature, weight)` list per document, one hash map per user
//! accumulating its documents' weights in ascending document order, and
//! both matrices assembled through `CsrMatrix::from_triplets`.
//!
//! Each case mixes duplicate ids within a document, empty documents,
//! authors interleaved across documents and users who only re-tweet;
//! one case runs past 4,096 rows.

use std::collections::HashMap;

use tgs_data::assemble_snapshot_matrices;
use tgs_linalg::CsrMatrix;
use tgs_text::{build_from_tokens, Lexicon, PipelineConfig, Vocabulary, Weighting};

const WEIGHTINGS: [Weighting; 3] = [Weighting::Counts, Weighting::Binary, Weighting::TfIdf];

/// The weighted `(feature, weight)` list of each document, in feature
/// order.
fn reference_docs(
    vocab_len: usize,
    docs: &[Vec<usize>],
    weighting: Weighting,
) -> Vec<Vec<(usize, f64)>> {
    let mut df = vec![0u64; vocab_len];
    for doc in docs {
        let mut seen = doc.clone();
        seen.sort_unstable();
        seen.dedup();
        for &f in &seen {
            df[f] += 1;
        }
    }
    let n = docs.len() as f64;
    let idf: Vec<f64> = match weighting {
        Weighting::TfIdf => df
            .iter()
            .map(|&d| ((1.0 + n) / (1.0 + d as f64)).ln() + 1.0)
            .collect(),
        _ => vec![1.0; vocab_len],
    };
    docs.iter()
        .map(|doc| {
            let mut sorted = doc.clone();
            sorted.sort_unstable();
            let mut out = Vec::new();
            let mut i = 0;
            while i < sorted.len() {
                let f = sorted[i];
                let mut c = 0.0;
                while i < sorted.len() && sorted[i] == f {
                    c += 1.0;
                    i += 1;
                }
                out.push((
                    f,
                    match weighting {
                        Weighting::Counts => c,
                        Weighting::Binary => 1.0,
                        Weighting::TfIdf => c * idf[f],
                    },
                ));
            }
            out
        })
        .collect()
}

/// Reference `(Xp, Xu)`.
fn reference(
    vocab_len: usize,
    docs: &[Vec<usize>],
    doc_user: &[usize],
    num_users: usize,
    weighting: Weighting,
) -> (CsrMatrix, CsrMatrix) {
    let weighted = reference_docs(vocab_len, docs, weighting);
    let mut xp = Vec::new();
    let mut per_user: Vec<HashMap<usize, f64>> = vec![HashMap::new(); num_users];
    for (d, row) in weighted.iter().enumerate() {
        for &(f, w) in row {
            xp.push((d, f, w));
            *per_user[doc_user[d]].entry(f).or_insert(0.0) += w;
        }
    }
    let xu: Vec<(usize, usize, f64)> = per_user
        .into_iter()
        .enumerate()
        .flat_map(|(u, feats)| feats.into_iter().map(move |(f, w)| (u, f, w)))
        .collect();
    (
        CsrMatrix::from_triplets(docs.len(), vocab_len, &xp).unwrap(),
        CsrMatrix::from_triplets(num_users, vocab_len, &xu).unwrap(),
    )
}

/// `(shape, indptr, indices, value bits)` of a CSR matrix.
type Parts = ((usize, usize), Vec<usize>, Vec<u32>, Vec<u64>);

fn parts(m: &CsrMatrix) -> Parts {
    let mut indptr = vec![0];
    let mut indices = Vec::new();
    let mut bits = Vec::new();
    for r in 0..m.rows() {
        let (cols, vals) = m.row_entries(r);
        indices.extend_from_slice(cols);
        bits.extend(vals.iter().map(|v| v.to_bits()));
        indptr.push(indices.len());
    }
    (m.shape(), indptr, indices, bits)
}

fn assert_same_bits(got: &CsrMatrix, expected: &CsrMatrix, what: &str) {
    assert!(
        parts(got) == parts(expected),
        "{what}: indptr, indices or value bits differ from the reference"
    );
}

/// xorshift64: a fixed, dependency-free stream.
struct Stream(u64);

impl Stream {
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound as u64) as usize
    }

    /// Skewed toward small values, so documents repeat features and
    /// users share them across their documents.
    fn skewed(&mut self, bound: usize) -> usize {
        let a = self.below(bound);
        let b = self.below(bound);
        a.min(b)
    }
}

/// A snapshot-shaped case: documents over `vocab_len` feature ids by
/// `authors` interleaved authors, `retweeters` users with no documents,
/// and about one empty document in twelve.
struct Case {
    vocab_len: usize,
    docs: Vec<Vec<usize>>,
    doc_user: Vec<usize>,
    authors: usize,
    num_users: usize,
    retweets: Vec<(usize, usize)>,
}

fn case(seed: u64, vocab_len: usize, n: usize, authors: usize, retweeters: usize) -> Case {
    let mut s = Stream(seed);
    let mut docs = Vec::with_capacity(n);
    let mut doc_user = Vec::with_capacity(n);
    for _ in 0..n {
        let len = if s.below(12) == 0 { 0 } else { 1 + s.below(24) };
        docs.push((0..len).map(|_| s.skewed(vocab_len)).collect());
        doc_user.push(s.skewed(authors));
    }
    let num_users = authors + retweeters;
    let retweets = (0..n / 2)
        .map(|i| {
            let user = if i % 3 == 0 {
                authors + s.below(retweeters)
            } else {
                s.below(authors)
            };
            (user, s.below(n))
        })
        .collect();
    Case {
        vocab_len,
        docs,
        doc_user,
        authors,
        num_users,
        retweets,
    }
}

fn cases() -> Vec<Case> {
    vec![
        case(0x9e37_79b9_7f4a_7c15, 40, 60, 7, 5),
        case(0x2545_f491_4f6c_dd1d, 300, 900, 80, 40),
        // past 4,096 document and user rows
        case(0xd1b5_4a32_d192_ed03, 2_600, 6_000, 4_500, 300),
    ]
}

#[test]
fn snapshot_assembly_matches_the_reference_by_bits() {
    for (i, c) in cases().iter().enumerate() {
        assert!(
            c.docs.iter().any(Vec::is_empty),
            "case {i} has an empty document"
        );
        assert!(
            c.docs
                .iter()
                .any(|d| (1..d.len()).any(|j| d[..j].contains(&d[j]))),
            "case {i} repeats an id within a document"
        );
        let vocab = Vocabulary::from_tokens((0..c.vocab_len).map(|f| format!("w{f}")));
        for weighting in WEIGHTINGS {
            let got = assemble_snapshot_matrices(
                &vocab,
                &c.docs,
                &c.doc_user,
                c.num_users,
                &c.retweets,
                weighting,
            );
            let (xp, xu) = reference(c.vocab_len, &c.docs, &c.doc_user, c.num_users, weighting);
            assert_same_bits(&got.xp, &xp, &format!("case {i} {weighting:?} Xp"));
            assert_same_bits(&got.xu, &xu, &format!("case {i} {weighting:?} Xu"));
            for u in c.authors..c.num_users {
                assert_eq!(got.xu.iter_row(u).count(), 0, "re-tweet-only user {u}");
            }
        }
    }
}

#[test]
fn offline_text_matrices_match_the_reference_by_bits() {
    for (i, c) in cases().iter().enumerate() {
        // Ids become tokens; every document also gets a word seen once
        // (below `min_count`) or a stopword, so documents of only those
        // encode empty.
        let mut s = Stream(i as u64 + 1);
        let tokens: Vec<Vec<String>> = c
            .docs
            .iter()
            .enumerate()
            .map(|(d, doc)| {
                let mut toks: Vec<String> = doc.iter().map(|f| format!("w{f}")).collect();
                let noise = match s.below(2) {
                    0 => format!("once{d}"),
                    _ => "the".to_string(),
                };
                toks.insert(s.below(toks.len() + 1), noise);
                toks
            })
            .collect();
        for weighting in WEIGHTINGS {
            let mut config = PipelineConfig::paper_defaults();
            config.weighting = weighting;
            let out = build_from_tokens(
                &tokens,
                &c.doc_user,
                c.num_users,
                &Lexicon::new(),
                3,
                &config,
            );
            assert!(
                out.encoded.iter().any(Vec::is_empty),
                "case {i} has an empty document"
            );
            let (xp, xu) = reference(
                out.vocab.len(),
                &out.encoded,
                &c.doc_user,
                c.num_users,
                weighting,
            );
            assert_same_bits(&out.xp, &xp, &format!("case {i} {weighting:?} Xp"));
            assert_same_bits(&out.xu, &xu, &format!("case {i} {weighting:?} Xu"));
        }
    }
}
