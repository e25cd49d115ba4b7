//! # tgs-graph
//!
//! Social-graph substrate: the user–user re-tweeting graph `Gu` (with
//! its degrees) and builders that turn raw
//! posting/re-tweeting event logs into the `Xr` matrix and `Gu` graph the
//! tri-clustering framework consumes.
//!
//! ```
//! use tgs_graph::{build_interactions, Interaction};
//!
//! let events = vec![
//!     Interaction::Post { user: 0, tweet: 0 },
//!     Interaction::Retweet { user: 1, tweet: 0, author: 0 },
//! ];
//! let (xr, gu) = build_interactions(2, 1, &events);
//! assert_eq!(xr.get(1, 0), 1.0);
//! assert_eq!(gu.weight(0, 1), 1.0);
//! ```

mod builder;
mod graph;
#[cfg(test)]
mod laplacian;

pub use builder::{build_interactions, Interaction};
pub use graph::UserGraph;
