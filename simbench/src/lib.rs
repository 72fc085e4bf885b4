//! The simulator's benchmark: workloads, span tracing, result digests and
//! the order statistics it reports. `src/main.rs` drives them; README.md
//! says what is measured and why.

pub mod digest;
pub mod region;
pub mod stats;
pub mod trace;
pub mod workloads;
