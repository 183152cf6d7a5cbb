//! `splu-sched` — task graphs and scheduling for sparse LU (§4–5).
//!
//! The 1D S\* codes model the factorization as a directed acyclic task
//! graph over `Factor(k)` and `Update(k, j)` tasks ([`taskgraph`], the
//! four dependence properties of §4.1 plus the serialization property),
//! then run it on the discrete-event machine under one of two schedules
//! (on threads, the 1D code is `splu-core::par2d` on a `1 × P` grid):
//!
//! * **compute-ahead (CA)** ([`ca`]) — block-cyclic mapping with one-step
//!   lookahead (Fig. 10): `Factor(k+1)` runs as soon as `Update(k, k+1)`
//!   finishes so the next pivot column is communicated early;
//! * **graph scheduling** ([`graph_sched`]) — RAPID/PYRROS-style list
//!   scheduling using critical-path (bottom-level) priorities and
//!   communication-aware processor selection, which is what lets the
//!   paper's Fig. 11 example start `Factor(3)` before `Update(1, 5)`.
//!
//! [`sim`] is the discrete-event machine simulator that evaluates any
//! (mapping, per-processor order) pair under a [`splu_machine::MachineModel`]
//! — this is how the reproduction projects T3D/T3E parallel times for
//! processor counts beyond the host's cores (see `DESIGN.md` §3).
//! [`gantt`] renders Fig.-11-style charts and [`load_balance`] computes
//! Fig. 18's statistic.
//!
//! This crate is the model only. The thread engine's operation list is
//! built in `splu-core::lookahead` straight from the block pattern, so no
//! factor path builds a [`TaskGraph`].

pub mod ca;
pub mod gantt;
pub mod graph2d;
pub mod graph_sched;
pub mod load_balance;
pub mod sim;
pub mod taskdag;
pub mod taskgraph;

pub use ca::ca_schedule;
pub use graph2d::{build_2d_model, Mode2d, Model2d};
pub use graph_sched::{graph_schedule, graph_schedule_with, MappingPolicy};
pub use sim::{simulate, Schedule, SimResult};
pub use taskdag::{plan_taskdag, taskdag_sim_schedule, TaskDagPlan};
pub use taskgraph::{TaskGraph, TaskKind};
