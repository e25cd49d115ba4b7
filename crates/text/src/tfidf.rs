//! Term weighting: building the tweet–feature matrix `Xp` and the
//! user–feature matrix `Xu` from encoded documents.

use tgs_linalg::CsrMatrix;

/// Term weighting schemes for document vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Weighting {
    /// Raw term counts.
    Counts,
    /// Presence/absence.
    Binary,
    /// Term frequency × smoothed inverse document frequency
    /// (`idf = ln((1 + N) / (1 + df)) + 1`), the paper's "tf-idf term
    /// vector representation".
    #[default]
    TfIdf,
}

/// Builds the document–feature matrix (`docs.len() × vocab_len`) — the
/// paper's `Xp` when documents are tweets. `docs[d]` lists the feature
/// ids of document `d`, each below `vocab_len`. Document frequencies, and
/// so the idf weights, are taken from `docs` themselves. Rows stay raw
/// (the scale the tri-clustering solver is balanced for).
///
/// One sort of each document yields both its term counts and its
/// distinct features; the rows are written straight into CSR arrays.
pub fn doc_feature_matrix(
    docs: &[Vec<usize>],
    vocab_len: usize,
    weighting: Weighting,
) -> CsrMatrix {
    let mut df = vec![0u64; vocab_len];
    let mut indptr = Vec::with_capacity(docs.len() + 1);
    let total: usize = docs.iter().map(Vec::len).sum();
    let mut indices: Vec<u32> = Vec::with_capacity(total);
    let mut values: Vec<f64> = Vec::with_capacity(total);
    let mut sorted: Vec<usize> = Vec::new();
    indptr.push(0);
    for doc in docs {
        sorted.clear();
        sorted.extend_from_slice(doc);
        sorted.sort_unstable();
        for run in sorted.chunk_by(|a, b| a == b) {
            df[run[0]] += 1;
            // lossless: below `vocab_len`, which `from_sorted_rows`
            // caps at `u32::MAX` before it reads an index
            indices.push(run[0] as u32);
            values.push(run.len() as f64);
        }
        indptr.push(indices.len());
    }
    match weighting {
        Weighting::Counts => {}
        Weighting::Binary => values.fill(1.0),
        Weighting::TfIdf => {
            let n = docs.len() as f64;
            let idf: Vec<f64> = df
                .iter()
                .map(|&d| match d {
                    0 => 0.0, // not in these documents: never read
                    d => ((1.0 + n) / (1.0 + d as f64)).ln() + 1.0,
                })
                .collect();
            for (w, &f) in values.iter_mut().zip(&indices) {
                *w *= idf[f as usize];
            }
        }
    }
    CsrMatrix::from_sorted_rows(docs.len(), vocab_len, indptr, indices, values)
        .expect("document rows are sorted, in range and positive")
}

/// Builds the user–feature matrix (`num_users × xp.cols()`) as the sum of
/// each user's rows of `xp` (from [`doc_feature_matrix`]) — the paper's
/// `Xu` ("users can be characterized by the word features of their
/// tweets"). `doc_user[d]` is the author of row `d`.
///
/// Each entry is summed from 0.0 in ascending document order, so the
/// result does not depend on anything but the input.
pub fn user_feature_matrix(xp: &CsrMatrix, doc_user: &[usize], num_users: usize) -> CsrMatrix {
    assert_eq!(xp.rows(), doc_user.len(), "one user per document required");
    // Stable counting sort of the documents by author.
    let mut start = vec![0usize; num_users + 1];
    for &u in doc_user {
        assert!(
            u < num_users,
            "user id {u} out of range ({num_users} users)"
        );
        start[u + 1] += 1;
    }
    for u in 0..num_users {
        start[u + 1] += start[u];
    }
    let mut by_author = vec![0usize; doc_user.len()];
    let mut cursor = start.clone();
    for (d, &u) in doc_user.iter().enumerate() {
        by_author[cursor[u]] = d;
        cursor[u] += 1;
    }

    // One dense accumulator row; `touched` lists the columns the
    // current user wrote (a column re-enters only if its sum passed
    // through exactly zero, which `dedup` absorbs).
    let mut acc = vec![0.0f64; xp.cols()];
    let mut touched: Vec<u32> = Vec::new();
    let mut indptr = Vec::with_capacity(num_users + 1);
    let mut indices: Vec<u32> = Vec::with_capacity(xp.nnz());
    let mut values: Vec<f64> = Vec::with_capacity(xp.nnz());
    indptr.push(0);
    for docs in start.windows(2).map(|s| &by_author[s[0]..s[1]]) {
        for &d in docs {
            let (cols, vals) = xp.row_entries(d);
            for (&c, &w) in cols.iter().zip(vals) {
                let slot = &mut acc[c as usize];
                if *slot == 0.0 {
                    touched.push(c);
                }
                *slot += w;
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for &c in &touched {
            let sum = std::mem::take(&mut acc[c as usize]);
            if sum != 0.0 {
                indices.push(c);
                values.push(sum);
            }
        }
        touched.clear();
        indptr.push(values.len());
    }
    CsrMatrix::from_sorted_rows(num_users, xp.cols(), indptr, indices, values)
        .expect("summed rows are sorted, in range and nonzero")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocabulary;

    fn setup() -> (Vocabulary, Vec<Vec<usize>>) {
        let vocab = Vocabulary::from_tokens(["gmo", "labeling", "evil", "safe"]);
        let docs = vec![
            vocab.encode(["gmo", "labeling", "gmo"]),
            vocab.encode(["evil", "gmo"]),
            vocab.encode(["safe"]),
        ];
        (vocab, docs)
    }

    #[test]
    fn counts_weighting_counts_occurrences() {
        let (vocab, docs) = setup();
        let x = doc_feature_matrix(&docs, vocab.len(), Weighting::Counts);
        assert_eq!(x.get(0, vocab.id("gmo").unwrap()), 2.0);
        assert_eq!(x.get(0, vocab.id("labeling").unwrap()), 1.0);
        assert_eq!(x.get(2, vocab.id("safe").unwrap()), 1.0);
    }

    #[test]
    fn binary_weighting_caps_at_one() {
        let (vocab, docs) = setup();
        let x = doc_feature_matrix(&docs, vocab.len(), Weighting::Binary);
        assert_eq!(x.get(0, vocab.id("gmo").unwrap()), 1.0);
    }

    #[test]
    fn tfidf_downweights_common_terms() {
        let (vocab, docs) = setup();
        let x = doc_feature_matrix(&docs, vocab.len(), Weighting::TfIdf);
        // "gmo" appears in 2 of 3 docs, "evil" in 1: idf(evil) > idf(gmo).
        let gmo_w = x.get(1, vocab.id("gmo").unwrap());
        let evil_w = x.get(1, vocab.id("evil").unwrap());
        assert!(evil_w > gmo_w, "evil={evil_w} gmo={gmo_w}");
    }

    #[test]
    fn user_matrix_aggregates_docs() {
        let (vocab, docs) = setup();
        // Docs 0 and 1 belong to user 0, doc 2 to user 1.
        let xp = doc_feature_matrix(&docs, vocab.len(), Weighting::Counts);
        let xu = user_feature_matrix(&xp, &[0, 0, 1], 2);
        assert_eq!(xu.rows(), 2);
        assert_eq!(xu.get(0, vocab.id("gmo").unwrap()), 3.0);
        assert_eq!(xu.get(1, vocab.id("safe").unwrap()), 1.0);
        assert_eq!(xu.get(1, vocab.id("gmo").unwrap()), 0.0);
    }

    #[test]
    fn user_matrix_sums_signed_rows_and_drops_cancelled_entries() {
        // Not a vectorizer output, but any xp must sum correctly, even
        // when a running sum passes through zero.
        let xp =
            CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (1, 0, -1.0), (1, 1, 2.0), (2, 0, 4.0)])
                .unwrap();
        let xu = user_feature_matrix(&xp, &[0, 0, 0], 1);
        let row: Vec<_> = xu.iter_row(0).collect();
        assert_eq!(row, vec![(0, 4.0), (1, 2.0)]);
        let xu = user_feature_matrix(&xp, &[0, 0, 1], 2);
        assert_eq!(xu.iter_row(0).collect::<Vec<_>>(), vec![(1, 2.0)]);
    }

    #[test]
    fn empty_docs_produce_empty_rows() {
        let (vocab, mut docs) = setup();
        docs.push(vec![]);
        let x = doc_feature_matrix(&docs, vocab.len(), Weighting::TfIdf);
        assert_eq!(x.rows(), 4);
        assert_eq!(x.iter_row(3).count(), 0);
    }
}
