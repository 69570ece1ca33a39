//! Regenerates Figure 12: CTA-distance distribution of shared-block
//! accesses, one panel per category.

fn main() -> std::process::ExitCode {
    gcl_figures::driver::figure_main("fig12")
}
