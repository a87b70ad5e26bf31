//! The `cqa-perf` binary: run suites and gate changes. All logic lives in
//! [`cqa_perf::cli`].

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::stdout();
    match cqa_perf::cli::dispatch(&args, &mut out) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("cqa-perf: {e}");
            std::process::exit(2);
        }
    }
}
