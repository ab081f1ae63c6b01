//! # rootless-ditl
//!
//! The §2.2 root-traffic study: a calibrated synthetic stand-in for the
//! DITL-2018 j-root capture (which is not redistributable; see DESIGN.md §2)
//! plus the classifier that splits one day of root traffic into bogus-TLD
//! queries, cacheable repeats, and the small valid residue.
//!
//! * [`population`] — resolver classes, bogus-label pool, TLD popularity
//!   with the new-TLD adoption discount.
//! * [`trace`] — constant-memory streaming trace generation
//!   ([`trace::TraceStream`]: per-resolver splitmix64 substreams, bursty
//!   repeats per resolver×TLD, heavy-tailed volumes, replica scaling to
//!   the paper's 4.1M resolvers / 5.7B queries, order-stable resolver
//!   sharding).
//! * [`classify`] — the ideal-cache and 15-minute-window junk classifiers
//!   (streaming via [`classify::classify_stream`], shard folding via
//!   [`TrafficReport::merge`]) and the report formatter.

#![warn(missing_docs)]

pub mod classify;
pub mod population;
pub mod trace;

pub use classify::{classify_stream, TrafficReport};
pub use population::WorkloadConfig;
pub use trace::{Query, QueryName, TraceStream};
