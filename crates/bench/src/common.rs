//! Shared experiment infrastructure: scales, corpus/instance caches,
//! calendar axis, evaluation subsets.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use tgs_core::TriInput;
use tgs_data::{build_offline, generate, presets, Corpus, GeneratorConfig, ProblemInstance};
use tgs_eval::clustering_accuracy;
use tgs_text::PipelineConfig;

/// Experiment scale: `Small` runs in seconds (scaled-down presets),
/// `Full` mirrors the paper's dataset sizes (Table 3). Selected via the
/// `TGS_SCALE` env var (`small` | `full`), default `small`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ≈10% sized corpora, coarser sweeps.
    Small,
    /// Paper-scale corpora, fine sweeps.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("TGS_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Small,
        }
    }

    /// Short name for notes.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }
}

/// The two paper datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topic {
    /// Proposition 30 (education taxes).
    Prop30,
    /// Proposition 37 (GMO labeling).
    Prop37,
}

impl Topic {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Topic::Prop30 => "Prop 30",
            Topic::Prop37 => "Prop 37",
        }
    }

    /// Generator preset for a scale.
    pub(crate) fn config(self, scale: Scale, seed: u64) -> GeneratorConfig {
        match (self, scale) {
            (Topic::Prop30, Scale::Full) => presets::prop30(seed),
            (Topic::Prop30, Scale::Small) => presets::prop30_small(seed),
            (Topic::Prop37, Scale::Full) => presets::prop37(seed),
            (Topic::Prop37, Scale::Small) => presets::prop37_small(seed),
        }
    }
}

/// The corpus seed shared by all experiments (so every table/figure sees
/// the same data, like the paper's fixed crawl).
pub(crate) const CORPUS_SEED: u64 = 2012;

/// Text pipeline used everywhere.
pub fn pipeline() -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_defaults();
    cfg.vocab.min_count = 2;
    cfg
}

/// A random sparse matrix with `per_row` entries per row, values drawn
/// uniformly from `values` — the synthetic-matrix builder shared by the
/// kernel benches, the solver-iteration benches and `fused_ratio`. The
/// RNG stream is consumed as `(column, value)` per entry, so instances
/// built with a shared `rng` across several matrices (the preset
/// solver-iteration instance) keep their historical data exactly.
pub fn random_csr_with(
    rows: usize,
    cols: usize,
    per_row: usize,
    values: std::ops::Range<f64>,
    rng: &mut rand::rngs::StdRng,
) -> tgs_linalg::CsrMatrix {
    use rand::RngExt;
    let mut trip = Vec::with_capacity(rows * per_row);
    for r in 0..rows {
        for _ in 0..per_row {
            trip.push((
                r,
                rng.random_range(0..cols),
                rng.random_range(values.clone()),
            ));
        }
    }
    tgs_linalg::CsrMatrix::from_triplets(rows, cols, &trip).unwrap()
}

/// [`random_csr_with`] with its own seeded RNG (independent matrices).
pub fn random_csr(
    rows: usize,
    cols: usize,
    per_row: usize,
    values: std::ops::Range<f64>,
    seed: u64,
) -> tgs_linalg::CsrMatrix {
    let mut rng = tgs_linalg::seeded_rng(seed);
    random_csr_with(rows, cols, per_row, values, &mut rng)
}

type CorpusCache = Mutex<HashMap<(Topic, Scale), Arc<Corpus>>>;
type InstanceCache = Mutex<HashMap<(Topic, Scale), Arc<ProblemInstance>>>;

static CORPORA: std::sync::OnceLock<CorpusCache> = std::sync::OnceLock::new();
static INSTANCES: std::sync::OnceLock<InstanceCache> = std::sync::OnceLock::new();

/// The shared corpus for a topic+scale (generated once per process).
pub fn corpus(topic: Topic, scale: Scale) -> Arc<Corpus> {
    let mut cache = CORPORA.get_or_init(|| Mutex::new(HashMap::new())).lock();
    cache
        .entry((topic, scale))
        .or_insert_with(|| Arc::new(generate(&topic.config(scale, CORPUS_SEED))))
        .clone()
}

/// The shared offline problem instance (k = 3) for a topic+scale.
pub fn instance(topic: Topic, scale: Scale) -> Arc<ProblemInstance> {
    let mut cache = INSTANCES.get_or_init(|| Mutex::new(HashMap::new())).lock();
    cache
        .entry((topic, scale))
        .or_insert_with(|| {
            let c = corpus(topic, scale);
            Arc::new(build_offline(&c, 3, &pipeline()))
        })
        .clone()
}

/// Borrow an instance as a solver input.
pub fn as_input(inst: &ProblemInstance) -> TriInput<'_> {
    TriInput {
        xp: &inst.xp,
        xu: &inst.xu,
        xr: &inst.xr,
        graph: &inst.graph,
        sf0: &inst.sf0,
    }
}

/// Indices of tweets whose ground truth is polar (pos/neg) — the paper's
/// tweet-level evaluation set (Table 3 lists only pos/neg tweets).
pub fn polar_tweets(truth: &[usize]) -> Vec<usize> {
    truth
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c != tgs_text::Sentiment::Neutral.index())
        .map(|(i, _)| i)
        .collect()
}

/// Restricts parallel prediction/truth vectors to the given indices.
pub fn select(indices: &[usize], values: &[usize]) -> Vec<usize> {
    indices.iter().map(|&i| values[i]).collect()
}

/// Indices of users carrying a visible label — the paper's user-level
/// evaluation set (Table 3's labeled users).
pub fn labeled_users(labels: &[Option<usize>]) -> Vec<usize> {
    labels
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.map(|_| i))
        .collect()
}

/// Row label of [`floor`] in the accuracy tables.
pub const FLOOR_ROW: &str = "floor (one cluster)";

/// Accuracy of the trivial predictor that puts every item in one
/// cluster: the `clustering_accuracy` of a constant labelling, which is
/// the share of the largest class in `truth` (0 when empty). Its NMI
/// is 0, so a method that scores the floor has learnt nothing.
pub fn floor(truth: &[usize]) -> f64 {
    clustering_accuracy(&vec![0; truth.len()], truth)
}

/// Calendar label for a day offset from Aug 1 (matching the figures'
/// x-axes: Aug 1 / Sep 1 / Oct 1 / Election / Dec 1).
pub(crate) fn day_label(day: u32) -> String {
    const MONTHS: &[(&str, u32)] = &[
        ("Aug", 31),
        ("Sep", 30),
        ("Oct", 31),
        ("Nov", 30),
        ("Dec", 31),
    ];
    if day == presets::DAY_ELECTION {
        return "Election".to_string();
    }
    let mut d = day;
    for &(name, len) in MONTHS {
        if d < len {
            return format!("{name} {}", d + 1);
        }
        d -= len;
    }
    format!("day {day}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_cache_returns_same_instance() {
        let a = corpus(Topic::Prop30, Scale::Small);
        let b = corpus(Topic::Prop30, Scale::Small);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn instance_shapes_are_consistent() {
        let inst = instance(Topic::Prop30, Scale::Small);
        assert_eq!(inst.xp.rows(), inst.tweet_truth.len());
        assert_eq!(inst.xu.rows(), inst.user_truth.len());
        let input = as_input(&inst);
        input.validate(3);
    }

    #[test]
    fn polar_subset_excludes_neutral() {
        let truth = vec![0, 2, 1, 2, 0];
        assert_eq!(polar_tweets(&truth), vec![0, 2, 4]);
        assert_eq!(select(&[0, 2, 4], &truth), vec![0, 1, 0]);
    }

    #[test]
    fn floor_is_the_largest_class_share() {
        assert_eq!(floor(&[0, 1, 1, 2]), 0.5);
        assert_eq!(floor(&[2, 2, 2]), 1.0);
        assert_eq!(floor(&[0, 1, 2, 2, 2]), 0.6);
        assert_eq!(floor(&[]), 0.0);
    }

    #[test]
    fn day_labels_match_calendar() {
        assert_eq!(day_label(0), "Aug 1");
        assert_eq!(day_label(31), "Sep 1");
        assert_eq!(day_label(61), "Oct 1");
        assert_eq!(day_label(presets::DAY_ELECTION), "Election");
        assert_eq!(day_label(122), "Dec 1");
    }

    #[test]
    fn scale_from_env_defaults_small() {
        // NOTE: don't set the env var here (tests run in parallel);
        // just check the default path.
        if std::env::var("TGS_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Small);
        }
    }
}
