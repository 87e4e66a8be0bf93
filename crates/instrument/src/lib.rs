//! The LDX progress-counter instrumentation pass.
//!
//! This crate is the static half of the paper's contribution: given a
//! lowered Lx program, it computes for every CFG node the *maximum number of
//! syscalls along any path from the function entry* (paper Algorithm 1) and
//! rewrites the program so that, at runtime, a single counter per execution
//! tracks exactly that value regardless of which path was taken:
//!
//! * edges whose target can be reached along a syscall-richer path receive
//!   **compensation** (`cnt += delta`), so both branch arms of a predicate
//!   produce the same counter at the join;
//! * **loops** (paper Algorithm 3) synchronize at every backedge (an
//!   iteration barrier), reset the counter so it does not grow with the trip
//!   count, and raise it past the loop maximum on exit;
//! * **recursive** and **indirect** calls get a fresh counter frame
//!   (save, reset to zero, restore on return — paper §5–6);
//! * every `return` is compensated to the function's maximum (`FCNT`), so a
//!   call site always observes the same increment regardless of the path
//!   taken inside the callee.
//!
//! The runtime half (maintaining the counter, synchronizing the dual
//! executions) lives in `ldx-runtime` and `ldx-dualex`.
//!
//! # Example
//!
//! ```
//! use ldx_instrument::instrument;
//!
//! let resolved = ldx_lang::compile(r#"
//!     fn main() {
//!         let fd = open("data", 0);
//!         if (len(read(fd, 8)) > 4) {
//!             write(1, "big");     // this arm has 1 more syscall...
//!         }                        // ...so the else edge gets `cnt += 1`
//!         close(fd);
//!     }
//! "#)?;
//! let lowered = ldx_ir::lower(&resolved);
//! let instrumented = instrument(&lowered);
//! assert!(instrumented.report().functions[0].compensation_instrs > 0);
//! # Ok::<(), ldx_lang::LangError>(())
//! ```

mod analysis;
mod pass;
mod report;
mod verify;

pub use analysis::{CounterAnalysis, FuncCounters};
pub use pass::{instrument, InstrumentedProgram};
pub use report::{FuncReport, InstrumentationReport};
pub use verify::{check_counter_consistency, check_counter_consistency_all, ConsistencyError};
