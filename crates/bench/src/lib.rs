//! The benchmark harness: regenerates every table and figure of the paper.
//!
//! * [`experiments`] — one function per paper artifact,
//!   returning structured results.
//! * [`paper`] — the published numbers, transcribed.
//! * [`Comparison`] — paper-vs-measured table rendering.
//!
//! Run the whole evaluation with
//! `cargo run --release -p dsnrep-bench --bin reproduce`, which prints
//! every table and figure in one pass. `DSNREP_TXNS` scales the run
//! lengths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chart;
pub mod diff;
pub mod experiments;
pub mod faultcov;
pub mod json;
pub mod openlat;
pub mod paper;
mod report;
pub mod trace;

pub use chart::ascii_chart;
pub use report::Comparison;
