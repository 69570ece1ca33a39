//! Ablation A3: warp splitting of non-deterministic loads (paper
//! Section X-A).

use gcl_figures::ablation::warp_split;
use gcl_figures::harness::{save_json, BenchArgs};

fn main() -> std::process::ExitCode {
    let args = match BenchArgs::from_env(false) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let t = warp_split(args.scale, 4, args.jobs);
    println!("{t}");
    save_json("ablation_warp_split", &t.to_json());
    std::process::ExitCode::SUCCESS
}
