//! `r8asm` — assemble R8 source to object text.
//!
//! ```text
//! r8asm <input.asm> [-o <output.obj>] [--listing] [--symbols]
//! ```
//!
//! Without `-o`, the object text (see [`r8::objfile`]) goes to stdout.
//! `--listing` prints an address/word/instruction listing to stderr,
//! `--symbols` the symbol table.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input = None;
    let mut output = None;
    let mut listing = false;
    let mut symbols = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-o" => match iter.next() {
                Some(path) => output = Some(path.clone()),
                None => return usage("-o needs a path"),
            },
            "--listing" => listing = true,
            "--symbols" => symbols = true,
            "-h" | "--help" => return usage(""),
            path if input.is_none() => input = Some(path.to_string()),
            extra => return usage(&format!("unexpected argument `{extra}`")),
        }
    }
    let Some(input) = input else {
        return usage("missing input file");
    };
    let source = match std::fs::read_to_string(&input) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("r8asm: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match r8::asm::assemble(&source) {
        Ok(program) => program,
        Err(e) => {
            eprintln!("r8asm: {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if listing {
        for line in r8::disasm::disassemble(0, program.words()) {
            eprintln!("{line}");
        }
    }
    if symbols {
        for (name, addr) in program.symbols() {
            eprintln!("{addr:04X}  {name}");
        }
    }
    let text = r8::objfile::program_to_text(&program);
    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("r8asm: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("r8asm: {} words -> {path}", program.len());
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    if !problem.is_empty() {
        eprintln!("r8asm: {problem}");
    }
    eprintln!("usage: r8asm <input.asm> [-o <output.obj>] [--listing] [--symbols]");
    if problem.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
