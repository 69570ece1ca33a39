//! Ablation A4: class-selective next-line prefetching (paper Section X-A).

use gcl_figures::ablation::prefetch;
use gcl_figures::harness::{save_json, BenchArgs};

fn main() -> std::process::ExitCode {
    let args = match BenchArgs::from_env(false) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let t = prefetch(args.scale, args.jobs);
    println!("{t}");
    save_json("ablation_prefetch", &t.to_json());
    std::process::ExitCode::SUCCESS
}
