//! The CAPMAN fleet benchmark.
//!
//! One command runs one named workload per process and prints every
//! metric by name and unit, the operations attempted and failed, and
//! the verdict of correctness checks computed apart from the program.
//! Each layer is measured from outside, by timing calls into the
//! program's public functions through the wrapper types in [`seams`].
//! See `README.md` beside this crate for the workloads, the metrics and
//! what each per-layer metric should move.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod cpuclock;
pub mod fixture;
pub mod fleet;
pub mod layers;
pub mod osstat;
pub mod output;
pub mod recorder;
pub mod seams;
pub mod stats;
pub mod workloads;
