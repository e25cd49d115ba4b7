//! One module per paper table/figure; each returns [`crate::report::Table`]s.

pub(crate) mod comparison;
pub(crate) mod figs_offline;
pub(crate) mod figs_online;
pub(crate) mod tables23;

pub use comparison::method_comparison;
pub use figs_offline::{fig4_feature_evolution, fig8_convergence, param_sweep};
pub use figs_online::{fig10_gamma, fig9_online_alpha_tau, fig_online_timeline};
pub use tables23::{table2_top_words, table3_stats};
