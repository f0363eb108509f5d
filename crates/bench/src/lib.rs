//! # pbds-bench
//!
//! The harness reproducing every table and figure of the PBDS evaluation
//! (Sec. 9 of the paper). The `paper_figures` binary is the one driver: it
//! prints each experiment as a text table.
//!
//! ```text
//! cargo run -p pbds-bench --release --bin paper_figures -- all
//! cargo run -p pbds-bench --release --bin paper_figures -- fig13 --quick
//! ```

#![warn(missing_docs)]

pub mod datasets;
pub mod figs;
pub mod harness;
