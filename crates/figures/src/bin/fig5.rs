//! Regenerates Figure 5: average turnaround-time breakdown per load class.

fn main() -> std::process::ExitCode {
    gcl_figures::driver::figure_main("fig5")
}
