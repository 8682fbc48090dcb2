//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's report and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use perfbench::{environment, runner};
use std::process::ExitCode;

fn main() -> ExitCode {
    let options = match runner::parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", runner::USAGE);
            return ExitCode::from(2);
        }
    };
    let refused = environment::refused_vars_set();
    if !refused.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: they switch the program into a \
             different mode than the one measured",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }
    match runner::run(&options) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
