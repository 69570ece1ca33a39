//! Ablation A2: semi-global L2 topology (paper Section X-C).

use gcl_figures::ablation::semiglobal_l2;
use gcl_figures::harness::{save_json, BenchArgs};

fn main() -> std::process::ExitCode {
    let args = match BenchArgs::from_env(false) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let t = semiglobal_l2(args.scale, args.jobs);
    println!("{t}");
    save_json("ablation_semiglobal_l2", &t.to_json());
    std::process::ExitCode::SUCCESS
}
