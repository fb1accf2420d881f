//! `r8dis` — disassemble object text.
//!
//! ```text
//! r8dis <input.obj>
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(input), None) = (args.next(), args.next()) else {
        eprintln!("usage: r8dis <input.obj>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&input) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("r8dis: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let words = match r8::objfile::from_text(&text) {
        Ok(words) => words,
        Err(e) => {
            eprintln!("r8dis: {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in r8::disasm::disassemble(0, &words) {
        println!("{line}");
    }
    ExitCode::SUCCESS
}
