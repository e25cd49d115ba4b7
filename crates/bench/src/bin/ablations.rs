//! Ablation study: what each piece of the framework contributes.
//!
//! Not a paper table — it measures the framework's design choices:
//!   1. each coupling term of Eq. 1 (drop Xu / Xr / lexicon / graph);
//!   2. lexicon-seeded vs random initialization;
//!   3. majority-vote vs Hungarian-optimal cluster→class mapping;
//!   4. online, the default configuration against γ = 0 and α = 0.
//!
//! `cargo run -p tgs-bench --release --bin ablations`

use tgs_baselines::subsample_labels;
use tgs_bench::common::{
    as_input, corpus, floor, instance, labeled_users, pipeline, polar_tweets, select, Scale, Topic,
    FLOOR_ROW,
};
use tgs_bench::report::{emit, pct, Table};
use tgs_bench::stream::run_online_stream;
use tgs_core::{
    solve_guided, solve_offline, Guidance, GuidedConfig, InitStrategy, OfflineConfig, OnlineConfig,
    TriInput,
};
use tgs_data::SnapshotBuilder;
use tgs_eval::{clustering_accuracy, hungarian_accuracy};
use tgs_graph::UserGraph;
use tgs_linalg::CsrMatrix;

fn main() {
    let scale = Scale::from_env();
    let inst = instance(Topic::Prop30, scale);
    let polar = polar_tweets(&inst.tweet_truth);
    let t_truth = select(&polar, &inst.tweet_truth);
    let u_eval = labeled_users(&inst.user_labels);
    let u_truth = select(&u_eval, &inst.user_truth);

    let mut table = Table::new(
        "Ablations: contribution of each framework component (Prop 30)",
        &[
            "variant",
            "tweet acc %",
            "user acc %",
            "tweet acc (Hungarian) %",
        ],
    )
    .with_note(format!(
        "offline k=3, alpha=0.05, beta=0.8 unless stated; scale = {}",
        scale.name()
    ));

    let mut run = |name: &str, input: &TriInput<'_>, cfg: &OfflineConfig| {
        let result = solve_offline(input, cfg);
        let t_pred = select(&polar, &result.tweet_labels());
        let u_pred = select(&u_eval, &result.user_labels());
        table.push_row(vec![
            name.to_string(),
            pct(clustering_accuracy(&t_pred, &t_truth)),
            pct(clustering_accuracy(&u_pred, &u_truth)),
            pct(hungarian_accuracy(&t_pred, &t_truth)),
        ]);
    };

    let full_input = as_input(&inst);
    let base = OfflineConfig::default();
    run("full framework", &full_input, &base);

    // 1. coupling ablations: empty matrices switch terms off.
    let (n, m, l) = (inst.xp.rows(), inst.xu.rows(), inst.xp.cols());
    let empty_xu = CsrMatrix::zeros(m, l);
    let no_xu = TriInput {
        xp: &inst.xp,
        xu: &empty_xu,
        xr: &inst.xr,
        graph: &inst.graph,
        sf0: &inst.sf0,
    };
    run("- user-feature term (Xu)", &no_xu, &base);

    let empty_xr = CsrMatrix::zeros(m, n);
    let no_xr = TriInput {
        xp: &inst.xp,
        xu: &inst.xu,
        xr: &empty_xr,
        graph: &inst.graph,
        sf0: &inst.sf0,
    };
    run("- user-tweet term (Xr)", &no_xr, &base);

    let empty_graph = UserGraph::empty(m);
    let no_graph = TriInput {
        xp: &inst.xp,
        xu: &inst.xu,
        xr: &inst.xr,
        graph: &empty_graph,
        sf0: &inst.sf0,
    };
    run("- social graph (beta term)", &no_graph, &base);

    run(
        "- lexicon (alpha = 0)",
        &full_input,
        &OfflineConfig {
            alpha: 0.0,
            ..base.clone()
        },
    );
    // alpha = 0 still inherits the lexicon through the seeded init; this
    // row removes it entirely.
    run(
        "- lexicon entirely (alpha = 0, random init)",
        &full_input,
        &OfflineConfig {
            alpha: 0.0,
            init: InitStrategy::Random,
            ..base.clone()
        },
    );

    // 2. initialization ablation.
    run(
        "random init (paper-literal)",
        &full_input,
        &OfflineConfig {
            init: InitStrategy::Random,
            ..base.clone()
        },
    );

    // Extension from the paper's conclusion: guided (semi-supervised)
    // regularization with 10% tweet and user labels.
    {
        let tweet_seeds = subsample_labels(&inst.tweet_labels, 0.10);
        let user_seeds = subsample_labels(&inst.user_labels, 0.10);
        let guidance = Guidance {
            tweet_labels: &tweet_seeds,
            user_labels: &user_seeds,
        };
        let cfg = GuidedConfig {
            delta: 0.8,
            base: OfflineConfig::default(),
        };
        let result = solve_guided(&full_input, &guidance, &cfg);
        let t_pred = select(&polar, &result.tweet_labels());
        let u_pred = select(&u_eval, &result.user_labels());
        table.push_row(vec![
            "(+) guided regularization, 10% labels".to_string(),
            pct(clustering_accuracy(&t_pred, &t_truth)),
            pct(clustering_accuracy(&u_pred, &u_truth)),
            pct(hungarian_accuracy(&t_pred, &t_truth)),
        ]);
    }
    // One cluster maps to the largest class under either mapping.
    table.push_row(vec![
        FLOOR_ROW.to_string(),
        pct(floor(&t_truth)),
        pct(floor(&u_truth)),
        pct(floor(&t_truth)),
    ]);

    emit(&table, "ablations_offline");

    // 4. temporal-term ablation (online).
    let c = corpus(Topic::Prop30, scale);
    let builder = SnapshotBuilder::new(&c, 3, &pipeline());
    let mut online_table = Table::new(
        "Ablations: online temporal-window variants (Prop 30, daily stream)",
        &[
            "variant",
            "tweet acc %",
            "user acc %",
            "user acc (majority vote) %",
        ],
    )
    .with_note(format!(
        "w = 2, alpha = tau = 0.9, beta = 0.8, gamma = 0.2; the floor's tweet column puts \
         each day in one cluster, as the tweet column averages daily accuracies; scale = {}",
        scale.name()
    ));
    let mut tweet_floor = 0.0;
    for (name, cfg) in [
        (
            "default configuration",
            OnlineConfig {
                max_iters: 40,
                ..Default::default()
            },
        ),
        (
            "gamma = 0 (no user smoothing)",
            OnlineConfig {
                gamma: 0.0,
                max_iters: 40,
                ..Default::default()
            },
        ),
        (
            "alpha = 0 (no Sf smoothing)",
            OnlineConfig {
                alpha: 0.0,
                max_iters: 40,
                ..Default::default()
            },
        ),
    ] {
        let eval = run_online_stream(&c, &builder, &cfg, 1);
        tweet_floor = eval.tweet_floor;
        online_table.push_row(vec![
            name.to_string(),
            pct(eval.tweet_acc),
            pct(eval.user_acc),
            pct(eval.user_majority_acc),
        ]);
    }
    online_table.push_row(vec![
        FLOOR_ROW.to_string(),
        pct(tweet_floor),
        pct(floor(&u_truth)),
        pct(floor(&u_truth)),
    ]);
    emit(&online_table, "ablations_online");
}
