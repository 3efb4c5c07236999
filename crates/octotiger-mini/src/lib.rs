//! # octotiger-mini — a proxy for the Octo-Tiger application benchmark
//!
//! Octo-Tiger (§5 of the paper) is an astrophysics application that
//! simulates binary star mergers with the fast multipole method on
//! adaptive octrees, built on HPX actions. The paper uses it for
//! strong-scaling runs (level 6 on SDSC Expanse, level 5 on Rostam, 5
//! steps) where inter-process communication is a significant bottleneck,
//! and reports *step count per second* per parcelport (Figs. 10, 11).
//!
//! This crate reproduces the communication skeleton:
//!
//! * an **adaptive octree** refined around a binary-star shell
//!   ([`octree`]), partitioned across localities by a Morton space-filling
//!   curve ([`sfc`]) — like Octo-Tiger's SFC partitioning;
//! * an **FMM-shaped step** ([`fmm`]): leaves compute multipoles (charged
//!   compute), M2M aggregation up the tree (remote parents receive child
//!   multipoles as actions), M2L neighbor exchange between face-adjacent
//!   leaves, L2L broadcast back down, and a completion reduction to
//!   locality 0 — fan-in, point-to-point and fan-out traffic of small
//!   messages, exactly the latency-bound mix the microbenchmarks stress;
//! * a **driver** ([`driver`]) running N steps over any parcelport
//!   configuration and reporting steps/second.
//!
//! The physics is replaced by deterministic arithmetic on real payloads
//! (multipole = mass + center of mass), which gives a cross-parcelport
//! correctness invariant: the root multipole mass must equal the exact
//! sum of all leaf masses every step, regardless of backend, worker
//! count, or timing.

pub mod driver;
pub mod fmm;
pub mod octree;
pub mod sfc;

pub use driver::{run_octotiger, OctoParams, OctoResult};
pub use octree::{NodeId, Octree};
pub use sfc::partition;
