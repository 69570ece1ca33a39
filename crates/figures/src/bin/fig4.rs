//! Regenerates Figure 4 of the paper.

fn main() -> std::process::ExitCode {
    gcl_figures::driver::figure_main("fig4")
}
