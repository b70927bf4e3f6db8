//! The `dtl` binary; see the `dtl_bench` crate docs for the command line.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(dtl_bench::dtl(&args))
}
