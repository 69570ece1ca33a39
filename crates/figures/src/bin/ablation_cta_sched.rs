//! Ablation A1: clustered CTA scheduling (paper Section X-B).

use gcl_figures::ablation::cta_sched;
use gcl_figures::harness::{save_json, BenchArgs};

fn main() -> std::process::ExitCode {
    let args = match BenchArgs::from_env(false) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let t = cta_sched(args.scale, args.jobs);
    println!("{t}");
    save_json("ablation_cta_sched", &t.to_json());
    std::process::ExitCode::SUCCESS
}
