//! Regenerates Figure 7: per-request-count turnaround breakdown for the
//! busiest non-deterministic load of bfs.

fn main() -> std::process::ExitCode {
    gcl_figures::driver::figure_main("fig7")
}
