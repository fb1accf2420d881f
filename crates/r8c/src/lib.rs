//! # r8c — a small C-like language for the R8 processor
//!
//! Section 5 of the MultiNoC paper names as future work "a C compiler to
//! automatically generate R8 assembly code, allowing faster software
//! implementation". This crate is that compiler: a compact, fully tested
//! C-like language (unsigned 16-bit integers, globals, arrays, functions,
//! `if`/`while`, the usual expression operators) compiled to the R8
//! assembly of the [`r8`] crate.
//!
//! ## Language
//!
//! ```text
//! // globals (u16) and arrays
//! var threshold = 40;
//! var histogram[16];
//!
//! func weight(x) {
//!     var acc = 0;
//!     while (x) {           // any nonzero value is true
//!         acc = acc + (x & 1);
//!         x = x >> 1;
//!     }
//!     return acc;
//! }
//!
//! func main() {
//!     var i = 0;
//!     while (i < 16) {
//!         histogram[i] = weight(i * 259);
//!         i = i + 1;
//!     }
//!     printf(histogram[7]); // send to the host monitor
//! }
//! ```
//!
//! - Every value is an unsigned 16-bit integer; comparisons yield 0/1.
//! - `&&` and `||` short-circuit; `!` is logical not, `~` bitwise not.
//! - Intrinsics map onto the MultiNoC platform: `printf(e)` / `scanf()`
//!   are the `0xFFFF` I/O port, and `peek(addr)` / `poke(addr, value)`
//!   give raw access to the NUMA address map — remote windows, and the
//!   `wait`/`notify` command addresses.
//! - Functions use static storage for parameters and locals (no
//!   recursion), the idiomatic choice for a 1K-word embedded memory;
//!   the compiler rejects recursive calls at compile time.
//!
//! ## Example
//!
//! ```rust
//! use r8::core::{Cpu, RamBus};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let assembly = r8c::compile(
//!     "func main() {
//!          var a = 6;
//!          var b = 7;
//!          poke(0x200, a * b);
//!      }",
//! )?;
//! let program = r8::asm::assemble(&assembly)?;
//! let mut bus = RamBus::new(1024);
//! bus.load(0, program.words());
//! let mut cpu = Cpu::new();
//! cpu.run(&mut bus, 100_000)?;
//! assert_eq!(bus.peek(0x200), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod codegen;
pub mod error;
pub mod fold;
pub mod lexer;
pub mod parser;

pub use error::CompileError;

/// Optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Straight translation, no folding.
    None,
    /// Constant folding and algebraic simplification ([`fold`]); the
    /// default.
    #[default]
    Basic,
}

/// Compiles R8C source text to R8 assembly at the default optimization
/// level ([`OptLevel::Basic`]).
///
/// # Errors
///
/// Returns a [`CompileError`] with the source line for lexical, syntax
/// and semantic errors (unknown names, arity mismatches, recursion).
pub fn compile(source: &str) -> Result<String, CompileError> {
    compile_with(source, OptLevel::default())
}

/// Compiles at an explicit optimization level.
///
/// # Errors
///
/// As [`compile`].
pub fn compile_with(source: &str, opt: OptLevel) -> Result<String, CompileError> {
    let tokens = lexer::lex(source)?;
    let program = parser::parse(&tokens)?;
    match opt {
        OptLevel::None => codegen::generate_with(&program, false),
        OptLevel::Basic => codegen::generate_with(&fold::fold_program(&program), true),
    }
}

/// Compiles and assembles in one step, yielding the loadable image.
///
/// # Errors
///
/// A [`CompileError`] from compilation; assembly of compiler output
/// failing is a compiler bug and panics with the offending assembly.
pub fn build(source: &str) -> Result<r8::Program, CompileError> {
    let assembly = compile(source)?;
    Ok(r8::asm::assemble(&assembly)
        .unwrap_or_else(|e| panic!("compiler emitted invalid assembly ({e}):\n{assembly}")))
}

#[cfg(test)]
mod tests {
    use r8::core::{Cpu, RamBus};

    /// Compiles and runs `source`, returning the memory bus afterwards.
    pub(crate) fn run(source: &str) -> (Cpu, RamBus) {
        let program = crate::build(source).expect("compiles");
        let mut bus = RamBus::new(4096);
        bus.load(0, program.words());
        let mut cpu = Cpu::new();
        cpu.run(&mut bus, 10_000_000).expect("halts");
        (cpu, bus)
    }

    #[test]
    fn end_to_end_smoke() {
        let (_, bus) = run("func main() { poke(0x300, 1 + 2 * 3); }");
        assert_eq!(bus.peek(0x300), 7);
    }
}
