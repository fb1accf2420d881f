//! Full-system benchmark of the MultiNoC simulator.
//!
//! Four workloads run through the public `multinoc`, `hermes-noc`, `r8`
//! and `r8c` APIs, each checked against a host-side reference:
//! `edge` and `edge_observed` on the paper's 2×2 system, `sea_compute`
//! on a 4×4 mesh and `sea_shared` on a 6×6 mesh (see [`workload`]). An
//! untraced run reports the end-to-end metrics; a traced run records
//! spans around every call into the simulator and reports the per-layer
//! split (see [`bench`]). Every timing metric is CPU time of the
//! benchmark process (see [`clock`]).

pub mod bench;
pub mod clock;
pub mod json;
pub mod span;
pub mod stats;
pub mod workload;
