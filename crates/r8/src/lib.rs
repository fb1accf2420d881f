//! # R8 — a 16-bit load-store soft processor
//!
//! Reconstruction of the R8 processor used by the MultiNoC system (Mello
//! et al., DATE 2004/05, §2.4): a 16-bit Von Neumann load-store
//! architecture with a 16×16-bit register file, instruction register,
//! program counter, stack pointer, four status flags (negative, zero,
//! carry, overflow), 36 distinct instructions and a CPI between 2 and 4.
//!
//! The original ISA specification (PUCRS/GAPH internal report) is no
//! longer available; the instruction set here is reconstructed to satisfy
//! every constraint visible in the paper — including the three-register
//! load/store addressing used by the synchronization examples
//! (`ST R3, R1, R2` stores R3 at address `R1 + R2`). See [`isa`] for the
//! complete encoding table.
//!
//! The crate provides:
//!
//! - [`isa`] — instruction definitions, binary encoding and decoding;
//! - [`asm`] — a two-pass assembler with labels, directives and the
//!   `LIW` load-immediate-word pseudo-instruction;
//! - [`core`] — the cycle-counting processor core behind a [`Bus`] trait,
//!   so the MultiNoC Processor IP can insert wait states for remote
//!   accesses exactly as the paper's control logic does;
//! - [`Program`] — assembled object code plus its symbol table.
//!
//! ## Example
//!
//! ```rust
//! use r8::asm::assemble;
//! use r8::core::{Cpu, RamBus};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     "        LIW  R1, 20        ; R1 = 20
//!             LIW  R2, 22         ; R2 = 22
//!             ADD  R3, R1, R2     ; R3 = 42
//!             HALT",
//! )?;
//! let mut bus = RamBus::new(1024);
//! bus.load(0, program.words());
//! let mut cpu = Cpu::new();
//! cpu.run(&mut bus, 1_000)?;
//! assert!(cpu.is_halted());
//! assert_eq!(cpu.reg(3), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod asm;
pub mod core;
pub mod disasm;
pub mod isa;
pub mod objfile;

mod program;

pub use crate::core::{Bus, BusResponse, Cpu, CpuImage, CpuState, Pending};
pub use crate::isa::{Cond, DecodeError, Instr, Reg};
pub use program::Program;
