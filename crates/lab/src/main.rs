//! The `numa-lab` binary. All logic lives in the library; see
//! [`numa_lab::cli`].

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    numa_lab::cli::run(std::env::args().skip(1).collect())
}
