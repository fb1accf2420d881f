//! `r8cc` — compile R8C source to R8 assembly or object text.
//!
//! ```text
//! r8cc <input.r8c> [-o <output>] [--obj]
//! ```
//!
//! By default emits assembly; `--obj` assembles it and emits object
//! text (loadable by `r8sim` and the MultiNoC host).

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input = None;
    let mut output = None;
    let mut obj = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-o" => match iter.next() {
                Some(path) => output = Some(path.clone()),
                None => return usage("-o needs a path"),
            },
            "--obj" => obj = true,
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
            eprintln!("r8cc: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = if obj {
        match r8c::build(&source) {
            Ok(program) => r8::objfile::program_to_text(&program),
            Err(e) => {
                eprintln!("r8cc: {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match r8c::compile(&source) {
            Ok(assembly) => assembly,
            Err(e) => {
                eprintln!("r8cc: {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("r8cc: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    if !problem.is_empty() {
        eprintln!("r8cc: {problem}");
    }
    eprintln!("usage: r8cc <input.r8c> [-o <output>] [--obj]");
    if problem.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
