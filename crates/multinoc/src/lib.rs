//! # MultiNoC — a multiprocessing system enabled by a network on chip
//!
//! Full-system reproduction of Mello et al., DATE 2004/05: two (or more)
//! R8 soft processors, a remote memory IP and an RS-232 serial IP,
//! connected by the Hermes NoC and driven by a host computer.
//!
//! The system is a **NUMA** architecture: each processor owns a 1K-word
//! local memory (acting as a unified instruction/data cache) but can also
//! reach the other processors' memories and the remote memory IP through
//! the network, using the address map of Fig. 6:
//!
//! | Address | Target |
//! |---|---|
//! | `0x0000–0x03FF` | local memory |
//! | `0x0400–0x07FF` | first peer window (the other processor in the 2×2 system) |
//! | `0x0800–0x0BFF` | second window (the remote memory IP) |
//! | `0xFFFD` | `notify` — wake the processor whose number is stored |
//! | `0xFFFE` | `wait` — block until notified by the stored processor |
//! | `0xFFFF` | I/O — `ST` performs `printf`, `LD` performs `scanf` |
//!
//! Nine NoC [services](service) implement remote memory access, processor
//! activation, host I/O and message-passing synchronization.
//!
//! ## Quickstart
//!
//! ```rust
//! use multinoc::{host::Host, System, PROCESSOR_1};
//! use r8::asm::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut system = System::paper_config()?;
//! let program = assemble(
//!     "LIW  R1, 42\n\
//!      LIW  R2, 0x20\n\
//!      XOR  R0, R0, R0\n\
//!      ST   R1, R2, R0\n\
//!      HALT",
//! )?;
//! let mut host = Host::new();
//! host.synchronize(&mut system)?;
//! host.load_program(&mut system, PROCESSOR_1, program.words())?;
//! host.activate(&mut system, PROCESSOR_1)?;
//! system.run_until_halted(1_000_000)?;
//! let data = host.read_memory(&mut system, PROCESSOR_1, 0x20, 1)?;
//! assert_eq!(data, vec![42]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod addrmap;
pub mod apps;
pub mod debug;
pub mod directory;
pub mod host;
pub mod memory;
pub mod net;
pub mod processor;
pub mod reliable;
pub mod serial;
pub mod serial_ip;
pub mod service;
pub mod span;
pub mod system;
pub mod trace;

mod error;
mod node;

pub use error::SystemError;
pub use node::{NodeId, NodeKind};
pub use system::{System, SystemBuilder};

/// Node id of the serial IP in [`System::paper_config`].
pub const SERIAL: NodeId = NodeId(0);
/// Node id of the first R8 processor in [`System::paper_config`].
pub const PROCESSOR_1: NodeId = NodeId(1);
/// Node id of the second R8 processor in [`System::paper_config`].
pub const PROCESSOR_2: NodeId = NodeId(2);
/// Node id of the remote memory IP in [`System::paper_config`].
pub const REMOTE_MEMORY: NodeId = NodeId(3);

/// Memory-mapped address of the `notify` command (§2.4).
pub const NOTIFY_ADDR: u16 = 0xFFFD;
/// Memory-mapped address of the `wait` command (§2.4).
pub const WAIT_ADDR: u16 = 0xFFFE;
/// Memory-mapped address of `printf` (ST) / `scanf` (LD) I/O (§2.4).
pub const IO_ADDR: u16 = 0xFFFF;

/// Words in each local / remote memory IP (1K × 16 bit, four BlockRAMs).
pub const MEMORY_WORDS: u16 = 1024;
