//! # qi-chase — chase engines for data exchange
//!
//! Implements the procedures that the paper's algorithms and proofs run
//! on:
//!
//! * the **standard chase** of a source instance with a finite set of
//!   s-t tgds, producing the canonical universal solution
//!   `chase_Σ(I)` (§2; [FKMP, *Data Exchange: Semantics and Query
//!   Answering*, TCS 2005]) — [`chase`];
//! * the chase with **target dependencies** (target tgds and egds) to a
//!   fixpoint under a step budget — [`target`],
//!   [`chase_with_target_deps`]; naive or semi-naive rounds —
//!   [`ChaseStrategy`];
//! * **incremental maintenance** of a chase result under a source diff,
//!   byte-identical to a re-chase — [`delta`], [`chase_delta`];
//! * the **disjunctive chase** with constants and inequalities
//!   (Definitions 6.2–6.4): a chase *tree* whose leaves are the result —
//!   [`disjunctive_chase`];
//! * **satisfaction** checking `(I,J) ⊨ σ` for plain tgds and for
//!   disjunctive tgds with constants and inequalities — [`satisfies_tgd`],
//!   [`satisfies_disj_tgd`];
//! * the chase-based **logical-implication / generator test** of
//!   Definition 4.2: `β(x,z)` generates `∃y ψ(x,y)` iff the chase of the
//!   frozen canonical instance `I_β` contains a frozen-`x`-preserving
//!   image of `ψ` — [`is_generator`], [`implies_tgd`];
//! * the chase with **SO tgds** — [`so_chase`];
//! * **universal-solution** certificates — [`is_solution`],
//!   [`is_universal_solution`]; certain answers of conjunctive queries —
//!   [`certain_answers`].
//!
//! The standard, target and incremental chases are short drivers over
//! one crate-private kernel: trigger enumeration, ordered commit, and
//! head instantiation (which the disjunctive chase shares).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod disjunctive;
pub mod error;
pub mod implication;
mod kernel;
pub mod query;
pub mod satisfy;
pub mod sotgd_chase;
pub mod standard;
pub mod strategy;
pub mod target;
pub mod universal;

pub use delta::{chase_delta, chase_incremental, ChaseResult, DeltaChaseOptions, SupportLog};
pub use disjunctive::{
    chase_with_guards, disjunctive_chase, disjunctive_chase_with_stats, DisjChaseOptions,
    DisjChaseOutcome,
};
pub use error::{ChaseError, ChasePartial, ResourceError};
pub use implication::{implies_tgd, is_generator};
pub use query::{certain_answers, certain_answers_with_setting, evaluate};
pub use satisfy::{satisfies_all_disj_tgds, satisfies_all_tgds, satisfies_disj_tgd, satisfies_tgd};
pub use sotgd_chase::so_chase;
pub use standard::{chase, chase_oblivious, chase_with_options, ChaseOptions, ChaseOutcome};
pub use strategy::ChaseStrategy;
pub use target::{
    chase_with_target_deps, chase_with_target_deps_stats, critical_instance, ExchangeSetting,
    TargetChaseOptions, TargetChaseResult, TargetChaseStats, FALLBACK_MAX_STEPS,
};
pub use universal::{is_solution, is_universal_solution};
