//! Regenerates Figure 6: turnaround vs generated requests for selected
//! loads of bfs, sssp and spmv.

fn main() -> std::process::ExitCode {
    gcl_figures::driver::figure_main("fig6")
}
