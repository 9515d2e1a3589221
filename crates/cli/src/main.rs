//! The `nbc` command-line entry point. The library (`nbc_cli`) reads the
//! command line, runs it and returns what to print, so all of that is
//! unit-tested; this file prints it and exits.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The exit status is part of the interface (CI gates on it): 0 = done,
    // 1 = `check` or `trace verify` found a violation, 2 = usage or
    // protocol error.
    let outcome = nbc_cli::run_argv(&args);
    print!("{}", outcome.stdout);
    eprint!("{}", outcome.stderr);
    std::process::exit(outcome.code);
}
