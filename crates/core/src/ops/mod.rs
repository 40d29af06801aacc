//! The five assembly operations of Figure 10.
//!
//! Each operation is a standalone function that takes the caller's
//! [`ExecCtx`](ppa_pregel::ExecCtx) first and consumes and produces plain
//! collections of graph nodes, so that users can compose them into custom
//! workflows exactly as the paper advertises ("users may combine the provided
//! operations to implement various sequencing strategies"). Each is also
//! wrapped as a first-class [`crate::pipeline::Stage`] for composition
//! through the [`crate::pipeline::Pipeline`] builder; the standard pipeline
//! is assembled in [`crate::workflow`].

pub mod bubble;
pub mod construct;
pub mod label;
pub mod label_sv;
pub mod merge;
pub mod tip;

pub use bubble::{filter_bubbles, BubbleConfig, BubbleOutcome};
pub use construct::{build_dbg, ConstructConfig, ConstructOutcome};
pub use label::{label_contigs_lr, LabelOutcome};
pub use label_sv::label_contigs_sv;
pub use merge::{merge_contigs, MergeConfig, MergeOutcome};
pub use tip::{remove_tips, TipConfig, TipOutcome};
