//! # vpir-branch — branch prediction structures
//!
//! The front-end predictors of the Table 1 machine: a gshare direction
//! predictor (10-bit global history, 16K-entry 2-bit counter table, per
//! McFarling), a return-address stack, and a last-target table for
//! indirect jumps.
//!
//! Direction predictors update their global history *speculatively* at
//! predict time and expose it for checkpointing, so the pipeline can
//! restore it on a squash — exactly what an OoO front end does.
//!
//! # Examples
//!
//! ```
//! use vpir_branch::Gshare;
//! let mut bp = Gshare::table1();
//! // A strongly biased branch trains quickly.
//! for _ in 0..24 {
//!     let (taken, token) = bp.predict(0x1000);
//!     bp.update(0x1000, true, token);
//!     if !taken {
//!         bp.recover(token, true); // repair speculative history
//!     }
//! }
//! assert!(bp.predict(0x1000).0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

mod direction;
mod ras;
mod target;

pub use direction::{Bimodal, Gshare};
pub use ras::ReturnStack;
pub use target::TargetTable;
