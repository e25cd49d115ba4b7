//! Fig. 4 (feature evolution), Figs. 6–7 (α/β parameter sweeps) and
//! Fig. 8 (convergence curves).

use tgs_core::{solve_offline, OfflineConfig};
use tgs_data::period_feature_frequencies;
use tgs_eval::{clustering_accuracy, nmi};

use crate::common::{as_input, corpus, instance, polar_tweets, select, Scale, Topic};
use crate::report::{pct, Table};

/// Fig. 4: the frequency distribution of features in two periods
/// (Aug 1–2 vs Sep 30–Oct 1 in the paper). Reports the top features of
/// each period plus overlap statistics showing the drift.
pub fn fig4_feature_evolution(scale: Scale) -> Table {
    let c = corpus(Topic::Prop37, scale);
    // at small scale the corpus is 40 days; use proportional periods
    let (a_lo, a_hi, b_lo, b_hi) = if c.num_days >= 62 {
        (0, 2, 60, 62) // Aug 1–2 vs Sep 30–Oct 1
    } else {
        (0, 2, c.num_days - 2, c.num_days)
    };
    let early = period_feature_frequencies(&c, a_lo, a_hi);
    let late = period_feature_frequencies(&c, b_lo, b_hi);
    let top = 15usize;
    let early_top: Vec<&str> = early.iter().take(top).map(|(w, _)| w.as_str()).collect();
    let late_top: Vec<&str> = late.iter().take(top).map(|(w, _)| w.as_str()).collect();
    let overlap = early_top.iter().filter(|w| late_top.contains(w)).count();
    // Distribution-level drift: cosine between the two full frequency
    // vectors, and features exclusive to one period. The paper's own
    // Table 2 notes high-frequency words stay popular — the *shape* of
    // the distribution is what changes (Fig. 4).
    let mut freqs: std::collections::HashMap<&str, (f64, f64)> = std::collections::HashMap::new();
    for (w, c0) in &early {
        freqs.entry(w.as_str()).or_default().0 = *c0 as f64;
    }
    for (w, c1) in &late {
        freqs.entry(w.as_str()).or_default().1 = *c1 as f64;
    }
    let (mut dot, mut na, mut nb, mut exclusive) = (0.0, 0.0, 0.0, 0usize);
    for &(a, b) in freqs.values() {
        dot += a * b;
        na += a * a;
        nb += b * b;
        if a == 0.0 || b == 0.0 {
            exclusive += 1;
        }
    }
    let cosine = dot / (na.sqrt() * nb.sqrt()).max(1e-12);
    let mut t = Table::new(
        "Fig. 4: evolution of features (Prop 37)",
        &[
            "rank",
            "early period word",
            "freq",
            "late period word",
            "freq",
        ],
    )
    .with_note(format!(
        "periods: days {a_lo}-{a_hi} vs {b_lo}-{b_hi}; top-{top} overlap = {overlap}/{top} \
         (high-frequency words stay popular, matching the paper's Table 2 note); \
         full-vocabulary frequency cosine = {cosine:.3}, {exclusive} of {} features \
         appear in only one period (the distribution shift of Fig. 4); scale = {}",
        freqs.len(),
        scale.name()
    ));
    for i in 0..top {
        let (ew, ec) = early.get(i).cloned().unwrap_or_default();
        let (lw, lc) = late.get(i).cloned().unwrap_or_default();
        t.push_row(vec![
            (i + 1).to_string(),
            ew,
            ec.to_string(),
            lw,
            lc.to_string(),
        ]);
    }
    t
}

/// Figs. 6 and 7: accuracy and NMI when varying α and β on Prop 30 —
/// user-level (Fig. 6) and tweet-level (Fig. 7), produced from one sweep.
pub fn param_sweep(scale: Scale) -> (Table, Table) {
    let inst = instance(Topic::Prop30, scale);
    let input = as_input(&inst);
    let grid: Vec<f64> = match scale {
        Scale::Small => vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        Scale::Full => (0..=10).map(|i| i as f64 / 10.0).collect(),
    };
    let polar = polar_tweets(&inst.tweet_truth);
    let tweet_truth = select(&polar, &inst.tweet_truth);
    let headers = ["alpha", "beta", "accuracy %", "NMI %"];
    let mut user_table = Table::new(
        "Fig. 6: user-level quality varying alpha and beta (Prop 30)",
        &headers,
    )
    .with_note(format!(
        "paper: best accuracy at alpha=0, beta in [0.5, 0.8]; heavy beta=1 hurts. \
         Reproduction finding: our sweep is nearly flat — on raw tf-idf scales the \
         alpha/beta terms are orders of magnitude below the data terms, and the \
         lexicon-seeded init already carries the prior; scale = {}",
        scale.name()
    ));
    let mut tweet_table = Table::new(
        "Fig. 7: tweet-level quality varying alpha and beta (Prop 30)",
        &headers,
    )
    .with_note(format!(
        "paper: best around alpha=0.1, beta in [0.8, 0.9]; much less sensitive than user-level \
         (81-82% band). Same flatness caveat as Fig. 6; scale = {}",
        scale.name()
    ));
    for &alpha in &grid {
        for &beta in &grid {
            let cfg = OfflineConfig {
                k: 3,
                alpha,
                beta,
                max_iters: 60,
                ..Default::default()
            };
            let result = solve_offline(&input, &cfg);
            let u_pred = result.user_labels();
            let t_pred_all = result.tweet_labels();
            let t_pred = select(&polar, &t_pred_all);
            user_table.push_row(vec![
                format!("{alpha:.1}"),
                format!("{beta:.1}"),
                pct(clustering_accuracy(&u_pred, &inst.user_truth)),
                pct(nmi(&u_pred, &inst.user_truth)),
            ]);
            tweet_table.push_row(vec![
                format!("{alpha:.1}"),
                format!("{beta:.1}"),
                pct(clustering_accuracy(&t_pred, &tweet_truth)),
                pct(nmi(&t_pred, &tweet_truth)),
            ]);
        }
    }
    (user_table, tweet_table)
}

/// Fig. 8: the average Frobenius losses of the tweet-feature term
/// (Eq. 2), the user-feature term (Eq. 3) and the total objective
/// (Eq. 1) over 100 iterations on Prop 30, then each term of Eq. 1 as a
/// percentage of the total.
pub fn fig8_convergence(scale: Scale) -> Table {
    let inst = instance(Topic::Prop30, scale);
    let input = as_input(&inst);
    let cfg = OfflineConfig {
        k: 3,
        max_iters: 100,
        tol: 0.0, // run all iterations like the figure
        track_objective: true,
        ..Default::default()
    };
    let result = solve_offline(&input, &cfg);
    let mut t = Table::new(
        "Fig. 8: convergence of the offline algorithm (Prop 30)",
        &[
            "iteration",
            "||Xp-SpHpSf'||_F (Eq.2)",
            "||Xu-SuHuSf'||_F (Eq.3)",
            "total error (Eq.1)",
            "Xp %",
            "Xu %",
            "Xr %",
            "lexicon %",
            "graph %",
        ],
    )
    .with_note(format!(
        "paper: total error converges by ~10 iterations while components trade off; scale = {}",
        scale.name()
    ));
    for (i, parts) in result.history.iter().enumerate() {
        if i % 5 != 0 && i != result.history.len() - 1 {
            continue; // sample every 5th iteration like the plot ticks
        }
        let total = parts.total();
        let mut row = vec![
            i.to_string(),
            format!("{:.1}", parts.tweet_feature.sqrt()),
            format!("{:.1}", parts.user_feature.sqrt()),
            format!("{total:.1}"),
        ];
        // Offline, the temporal term is zero, so these five sum to 100.
        for term in [
            parts.tweet_feature,
            parts.user_feature,
            parts.user_tweet,
            parts.lexicon,
            parts.graph,
        ] {
            row.push(format!("{:.4}", 100.0 * term / total));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_reports_overlap_note() {
        let t = fig4_feature_evolution(Scale::Small);
        assert!(t.note.contains("overlap"));
        assert_eq!(t.rows.len(), 15);
    }

    #[test]
    fn fig8_total_error_non_increasing() {
        let t = fig8_convergence(Scale::Small);
        let totals: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        // Raw objective vs the Lagrangian the updates descend on: small
        // transient rises are expected (see tests/offline_pipeline.rs);
        // with the vendored RNG stream the Prop 30 instance peaks at ~1.3%.
        assert!(
            totals.windows(2).all(|w| w[1] <= w[0] * 1.02),
            "totals: {totals:?}"
        );
        let (first, last) = (totals[0], *totals.last().unwrap());
        assert!(last < first, "objective must trend down: {first} -> {last}");
    }

    #[test]
    fn fig8_term_shares_sum_to_100() {
        let t = fig8_convergence(Scale::Small);
        for row in &t.rows {
            let shares: Vec<f64> = row[4..].iter().map(|v| v.parse().unwrap()).collect();
            assert_eq!(shares.len(), 5);
            let sum: f64 = shares.iter().sum();
            assert!((sum - 100.0).abs() <= 0.01, "row {row:?} sums to {sum}");
        }
    }
}
