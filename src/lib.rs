//! # MultiNoC platform facade
//!
//! Re-exports the crates that make up the MultiNoC reproduction so examples
//! and integration tests can use a single dependency:
//!
//! - [`hermes`] — the Hermes network-on-chip simulator (§2.1 of the paper),
//! - [`r8`] — the R8 16-bit soft processor: ISA, assembler, core (§2.4),
//! - [`r8c`] — a small C-like compiler targeting R8 (the paper's §5
//!   future work),
//! - [`multinoc`] — the integrated multiprocessing system: memory IP,
//!   serial IP, processor IP, NoC services, host protocol (§1–§4),
//! - [`floorplan`] — the Spartan-IIe resource model and floorplanner used
//!   to reproduce the prototyping results (§3).
//!
//! ## Quickstart
//!
//! ```rust
//! use multinoc::{System, host::Host};
//! use r8::asm::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the paper's 2x2 configuration.
//! let mut system = System::paper_config()?;
//! // Assemble a tiny program for processor 1: store 42 at address 0x20, halt.
//! let program = assemble(
//!     "LIW  R1, 42\n\
//!      LIW  R2, 0x20\n\
//!      XOR  R0, R0, R0\n\
//!      ST   R1, R2, R0\n\
//!      HALT\n",
//! )?;
//! let mut host = Host::new();
//! host.synchronize(&mut system)?;
//! host.load_program(&mut system, multinoc::PROCESSOR_1, program.words())?;
//! host.activate(&mut system, multinoc::PROCESSOR_1)?;
//! system.run_until_idle(100_000)?;
//! let data = host.read_memory(&mut system, multinoc::PROCESSOR_1, 0x20, 1)?;
//! assert_eq!(data, vec![42]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use floorplan;
pub use hermes_noc as hermes;
pub use multinoc;
pub use r8;
pub use r8c;
