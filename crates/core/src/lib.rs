//! # vpir-core — the out-of-order pipeline simulator
//!
//! A cycle-level model of the paper's Table 1 machine: a 4-way
//! dynamically scheduled superscalar with a 32-entry reorder buffer,
//! gshare branch prediction, non-blocking caches, and the two
//! redundancy-exploiting mechanisms under study — a Value Prediction
//! Table ([`Enhancement::Vp`]) and a Reuse Buffer ([`Enhancement::Ir`]).
//!
//! See [`Simulator`] for the main entry point and `DESIGN.md` at the
//! repository root for the modelling decisions (execute-at-dispatch,
//! value-speculation tracking, squash recovery).
//!
//! # Examples
//!
//! ```
//! use vpir_core::{CoreConfig, IrConfig, RunLimits, Simulator};
//! use vpir_isa::asm;
//!
//! let prog = asm::assemble(
//!     "       li   r1, 50
//!      loop:  addi r2, r2, 2
//!             addi r1, r1, -1
//!             bne  r1, r0, loop
//!             halt",
//! )?;
//! let mut sim = Simulator::new(&prog, CoreConfig::with_ir(IrConfig::table1()));
//! let stats = sim.run(RunLimits::unbounded());
//! assert!(stats.committed > 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

mod config;
mod error;
mod fu;
mod pipeline;
mod rob;
mod spec_state;
mod stats;
mod trace;

pub use config::{
    BranchResolution, CoreConfig, Enhancement, FaultInjection, FrontEnd, IrConfig,
    Reexecution, RtbConfig, Validation, VpConfig, VpKind,
};
pub use error::{DiagSnapshot, RetiredInst, SimError, RETIRED_RING};
pub use fu::FuPool;
pub use pipeline::{RunLimits, Simulator};
pub use rob::{CtrlState, MemState, Rob, NO_CYCLE};
pub use spec_state::SpecState;
pub use stats::SimStats;
pub use trace::{TraceLog, TraceOutcome, TraceRecord};
