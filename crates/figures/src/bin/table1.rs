//! Regenerates Table I of the paper (at our simulator input scales).

fn main() -> std::process::ExitCode {
    gcl_figures::driver::figure_main("table1")
}
