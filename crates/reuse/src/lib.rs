//! # vpir-reuse — the Reuse Buffer (RB)
//!
//! The hardware structure of the paper's Figure 1(b) pipeline: a
//! PC-indexed, 4K-entry, 4-way set-associative buffer of previous
//! instruction executions, each entry holding the result together with
//! the information needed to establish — *non-speculatively, before use*
//! — that the result is still correct (the *reuse test*).
//!
//! Three reuse-test schemes are implemented (see [`ReuseScheme`]):
//!
//! * [`ReuseScheme::Sn`] — operand register *names* with a valid bit,
//!   invalidated whenever a tracked register is overwritten (scheme
//!   `S_n` of Sodani & Sohi, ISCA 1997).
//! * [`ReuseScheme::SnD`] — names plus *dependence pointers* linking RB
//!   entries into chains; a dependent entry is reusable when the entries
//!   it depends on are reused in the same cycle (`S_{n+d}`, ISCA 1997).
//! * [`ReuseScheme::SnDValues`] — the MICRO 1998 augmentation used
//!   throughout the paper's evaluation: operand *values* are stored with
//!   the entry, an entry is invalidated only if the overwriting value
//!   differs, and it reverts to valid when the operand value becomes
//!   current again. This is the default.
//!
//! Loads are handled specially: a load entry's *memory valid* bit is
//! cleared when a store writes to its address, in which case only the
//! address computation (not the loaded value) may be reused.
//!
//! # Examples
//!
//! ```
//! use vpir_reuse::{OperandView, RbConfig, RbInsert, ReuseBuffer};
//! use vpir_isa::{Op, Reg};
//!
//! let mut rb = ReuseBuffer::new(RbConfig::table1());
//! // Record one execution of `add r1, r2, r3` at pc 0x1000 (r2=4, r3=5).
//! rb.insert(RbInsert {
//!     pc: 0x1000,
//!     op: Op::Add,
//!     srcs: [Some((Reg::int(2), 4)), Some((Reg::int(3), 5))],
//!     result: Some(9),
//!     ..RbInsert::default()
//! });
//! // Next time around, with the same operand values, the result is reused.
//! let view = |reg: Reg| {
//!     if reg == Reg::int(2) {
//!         OperandView::settled(4)
//!     } else {
//!         OperandView::settled(5)
//!     }
//! };
//! let reused = rb.lookup(0x1000, Op::Add, &view, &[]).expect("reusable");
//! assert_eq!(reused.result, Some(9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

mod buffer;
mod slotset;

pub use buffer::{
    EntryRef, OperandView, RbConfig, RbInsert, RbMem, ReuseBuffer, ReuseScheme, Reused,
    ReuseStats,
};
