//! `ecl-obs` — request-scoped observability for the serving stack.
//!
//! The suite already has three profiling lenses — `ecl-trace` event
//! rings, `ecl-prof` launch samples, and `ecl-serve`'s Prometheus
//! counters — but none of them can answer the production question
//! *"why was **this** request slow?"*. This crate adds the
//! pieces that make per-request attribution work end to end, on top
//! of the correlation ids of `ecl_gpusim::ctx` (a process-wide `ReqId`
//! allocator and a per-thread current-request cell that the dispatch
//! pool re-enters on every worker claim):
//!
//! * [`recorder`] — the **flight recorder**: an always-on, bounded
//!   black box of recent request summaries, with full kernel-span
//!   traces retained for recent requests and pinned for slow
//!   outliers.
//! * [`slo`] — the **SLO engine**: declarative per-algorithm latency
//!   and error objectives, multi-window burn rates, and an
//!   exemplar-bearing latency histogram that links Prometheus buckets
//!   back to `ReqId`s in the recorder.
//!
//! [`sink`] ties them together: [`Obs`] is a launch observer of the
//! simulator, installed through the same `ecl_profiling::Hook` as the
//! trace and prof sinks, so the disabled cost is one relaxed atomic
//! load per launch and the overhead noise-budget tests keep holding.

pub mod recorder;
pub mod sink;
pub mod slo;

pub use recorder::{
    FinishInfo, FlightRecorder, KernelSpan, PhaseSpan, RecorderConfig, RequestSummary, RequestTrace,
};
pub use sink::Obs;
pub use slo::{parse_slo_spec, Objective, ObjectiveKind, SloEngine};
