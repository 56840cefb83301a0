//! # The Data Amnesia Simulator
//!
//! This crate is the Rust reproduction of the system contributed by
//! *"A Database System with Amnesia"* (Kersten & Sidirourgos, CIDR 2017):
//! a simulator that lets a columnar store **forget tuples on purpose** to
//! stay inside a storage budget, and measures how much *query precision*
//! survives.
//!
//! The moving parts:
//!
//! * [`policy`] — the amnesia algorithms of paper §3 (`fifo`, `uniform`,
//!   `ante`, `rot`, `area`, plus the §3.2 "overuse" variant) and the §4.4
//!   extensions (TTL, average-preserving pair forgetting, distribution-
//!   aligned forgetting, composites),
//! * [`budget`] — when to forget: fixed `DBSIZE` (paper default) or
//!   watermark growth bounds (§2.1's "do not let it grow beyond the 90 %
//!   mark"),
//! * [`adaptive`] — §4.4's adaptive partitioning: per-partition policy
//!   choice learned from precision feedback (ε-greedy bandit),
//! * [`metrics`] — the §2.3 precision metrics `RF`, `MF`, `PF`, `E`, the
//!   amnesia-map matrices behind Figures 1–2, and aggregate error
//!   tracking,
//! * [`sim`] — the query-batch → update-batch → amnesia loop (§2.3),
//! * [`store`] — what *physically* happens to forgotten tuples
//!   (mark / delete / de-index / cold-tier / summarize, §1),
//! * [`experiments`] — the paper's evaluation as one table
//!   ([`experiments::EXPERIMENTS`]: every figure, table and ablation) and
//!   one runner ([`experiments::run`]).
//!
//! ## Quickstart
//!
//! ```
//! use amnesia_core::config::SimConfig;
//! use amnesia_core::policy::PolicyKind;
//! use amnesia_core::sim::Simulator;
//! use amnesia_distrib::DistributionKind;
//!
//! let cfg = SimConfig::builder()
//!     .dbsize(200)
//!     .domain(10_000)
//!     .update_fraction(0.2)
//!     .batches(5)
//!     .queries_per_batch(50)
//!     .distribution(DistributionKind::Uniform)
//!     .policy(PolicyKind::Uniform)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! let report = Simulator::new(cfg).unwrap().run().unwrap();
//! assert_eq!(report.batches.len(), 5);
//! // The storage budget held: exactly dbsize tuples stay active.
//! assert_eq!(report.storage.final_active_rows, 200);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod budget;
pub mod config;
pub mod experiments;
pub mod metrics;
pub mod policy;
pub mod sim;
pub mod store;

pub use adaptive::{AdaptiveConfig, AdaptiveStore};
pub use budget::BudgetMode;
pub use config::SimConfig;
pub use metrics::{AmnesiaMap, BatchSummary, MetricsSnapshot, SimReport};
pub use policy::{AmnesiaPolicy, PolicyContext, PolicyKind};
pub use sim::Simulator;
pub use store::{AmnesiacStore, ForgetMode, TierConfig};
