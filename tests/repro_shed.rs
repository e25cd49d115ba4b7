use std::cell::RefCell;

use tripartite_sentiment::core::TgsError;
use tripartite_sentiment::engine::{BatchPolicy, BatchingIngest, EngineSnapshot, IngestSink};

struct SheddingSink {
    shed_all: RefCell<bool>,
    accepted: RefCell<Vec<EngineSnapshot>>,
}

impl IngestSink for SheddingSink {
    fn try_submit(&self, batch: EngineSnapshot) -> Result<Option<EngineSnapshot>, TgsError> {
        if *self.shed_all.borrow() {
            Ok(Some(batch))
        } else {
            self.accepted.borrow_mut().push(batch);
            Ok(None)
        }
    }
}

fn snap(ts: u64, n: usize) -> EngineSnapshot {
    let mut s = EngineSnapshot::new(ts);
    for u in 0..n {
        s.push_tokens(u, vec!["w".into()]);
    }
    s
}

#[test]
fn bucket_change_shed_then_full_flush_conserves_every_document() {
    let sink = SheddingSink {
        shed_all: RefCell::new(true),
        accepted: RefCell::new(Vec::new()),
    };
    let policy = BatchPolicy {
        bucket_width: 1,
        max_docs: 2,
    };
    let mut b = BatchingIngest::new(&sink, policy).unwrap();
    // Open a pending batch at bucket 0 (1 doc < max_docs: stays pending).
    assert!(b.submit(snap(0, 1)).unwrap().is_none());
    // New bucket + the new snapshot alone reaches max_docs, while the
    // sink sheds everything: the bucket-change flush sheds batch A, then
    // the size-triggered flush sheds batch B, overwriting A.
    let shed = b.submit(snap(1, 2)).unwrap();
    // We got at most one batch back; where did the other go?
    let got_back: usize = shed.map(|s| s.len()).unwrap_or(0);
    let accepted: usize = sink.accepted.borrow().iter().map(|s| s.len()).sum();
    let pending = b.pending_docs();
    assert_eq!(
        got_back + accepted + pending,
        3,
        "a shed batch was silently dropped"
    );
}
