//! One-line-per-workload summary of a full harness run.

fn main() -> std::process::ExitCode {
    gcl_figures::driver::figure_main("summary")
}
