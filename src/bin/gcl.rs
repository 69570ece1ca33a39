//! `gcl` — command-line front end for the toolkit.
//!
//! ```text
//! gcl classify <kernel.ptx> [--json]       classify loads, print witnesses
//! gcl analyze  <kernel.ptx|workload|all> [--csv] [--locality] [--critical]
//!              [--grid X[,Y[,Z]]] [--block X[,Y[,Z]]]
//!                                          static lints, divergence, coalescing,
//!                                          inter-CTA locality, critical loads
//! gcl disasm   <kernel.ptx>                parse and re-print (normalize)
//! gcl run      <kernel.ptx> --grid G --block B [--alloc BYTES | --param V]...
//!              [--memcheck] [--sanitize] [--max-cycles N] [--trace]
//!              [--trace-cap N]
//!              [--checkpoint-every N --checkpoint-file P] [--resume P]
//!                                          simulate one launch, print stats
//! gcl trace    <workload|all> [--tiny] [--sanitize] [--out DIR]
//!                                          capture execution traces
//! gcl replay   <workload|all> [--tiny] [--sanitize] [--in DIR] [--verify]
//!                                          replay captured traces
//! gcl suite    [--tiny] [--sanitize] [--analyze] [--force-fail NAME]
//!              [--resume] [--retries N] [--jobs N] [--no-cache]
//!              [--replay] [--traces DIR]
//!              [--fleet HOST:PORT]         run the 15-benchmark suite
//! gcl serve    [--addr HOST:PORT] [--jobs N] [--queue-cap N] [--no-cache]
//!              [--join HOST:PORT --name NAME --inject SPEC]
//!                                          simulation daemon (NDJSON over TCP)
//!                                          or fleet worker (--join)
//! gcl coordinate [--addr HOST:PORT] [--queue-cap N] [--lease-ms N]
//!              [--heartbeat-ms N] [--heartbeat-timeout-ms N]
//!              [--replicas N] [--session-inflight-cap N]
//!              [--journal PATH] [--recover] [--rebalance-ms N]
//!              [--chaos-verbs]              fleet coordinator
//! gcl loadgen  [--addr HOST:PORT] [--submitters N] [--duration-ms N]
//!              [--think-ms N] [--distinct N] [--out PATH]
//!                                          closed-loop load generator
//! gcl soak     [--duration-ms N] [--chaos] [--workers N] [--seed N]
//!                                          fleet soak + chaos harness
//! ```

use gcl::prelude::*;
use gcl_core::{Classification, LoadClass};
use gcl_stats::Json;
use std::path::Path;
use std::process::ExitCode;

/// Exit code for an address that cannot be bound (or dialed): the
/// operator should fix the address or free the port.
const EXIT_BIND: u8 = 2;
/// Exit code for a protocol or transport failure after startup.
const EXIT_NET: u8 = 3;
/// Exit code for a trace container that cannot be read at all: absent,
/// truncated, corrupt, or not a trace file. The file itself is the problem
/// — recapture it. Shares the numeric slot with [`EXIT_BIND`]: both mean
/// "the named resource is unusable".
const EXIT_TRACE_UNREADABLE: u8 = 2;
/// Exit code for a structurally sound trace that this build cannot replay:
/// format version skew, configuration fingerprint drift, or a captured
/// kernel the workload no longer has. The *pairing* of file and build is
/// the problem. Shares the slot with [`EXIT_NET`]: both mean "the protocol
/// between two healthy parties broke".
const EXIT_TRACE_MISMATCH: u8 = 3;

/// A CLI failure: exit code plus message. Code 1 is the generic failure
/// every legacy path maps to; `serve`/`coordinate` distinguish bind
/// failures ([`EXIT_BIND`]) from protocol errors ([`EXIT_NET`]).
type CliError = (u8, String);

fn fail(e: String) -> CliError {
    (1, e)
}

fn serve_exit(e: ServeError) -> CliError {
    match e {
        ServeError::Config(m) => (1, m),
        ServeError::Bind(m) => (EXIT_BIND, m),
        ServeError::Net(m) => (EXIT_NET, m),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), CliError> = match args.first().map(String::as_str) {
        Some("classify") => cmd_classify(&args[1..]).map_err(fail),
        Some("analyze") => cmd_analyze(&args[1..]).map_err(fail),
        Some("disasm") => cmd_disasm(&args[1..]).map_err(fail),
        Some("run") => cmd_run(&args[1..]).map_err(fail),
        Some("suite") => cmd_suite(&args[1..]).map_err(fail),
        Some("trace") => cmd_trace(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("coordinate") => cmd_coordinate(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]).map_err(fail),
        Some("soak") => cmd_soak(&args[1..]).map_err(fail),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(fail(format!("unknown command `{other}`\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, e)) => {
            eprintln!("error: {e}");
            ExitCode::from(code)
        }
    }
}

const USAGE: &str = "\
gcl — GPU critical-load classification and simulation

USAGE:
  gcl classify <kernel.ptx> [--json]
  gcl analyze  <kernel.ptx|workload|all> [--csv] [--locality] [--critical]
               [--grid X[,Y[,Z]]] [--block X[,Y[,Z]]]
  gcl disasm   <kernel.ptx>
  gcl run      <kernel.ptx> --grid G --block B [--alloc BYTES | --param VALUE]...
               [--memcheck] [--sanitize] [--max-cycles N]
               [--trace] [--trace-cap N]
               [--checkpoint-every N --checkpoint-file PATH] [--resume PATH]
  gcl trace    <workload|all> [--tiny] [--sanitize] [--out DIR]
  gcl replay   <workload|all> [--tiny] [--sanitize] [--in DIR] [--verify]
  gcl suite    [--tiny] [--sanitize] [--analyze] [--force-fail NAME]
               [--resume] [--retries N] [--jobs N] [--no-cache]
               [--replay] [--traces DIR]
               [--fleet HOST:PORT]
  gcl serve    [--addr HOST:PORT] [--jobs N] [--queue-cap N] [--no-cache]
               [--join HOST:PORT] [--name NAME] [--inject SPEC]
               [--connect-retries N] [--rejoin]
  gcl coordinate [--addr HOST:PORT] [--queue-cap N] [--lease-ms N]
               [--heartbeat-ms N] [--heartbeat-timeout-ms N]
               [--replicas N] [--probe-timeout-ms N]
               [--session-inflight-cap N]
               [--journal PATH] [--recover] [--rebalance-ms N]
               [--journal-compact-bytes N] [--chaos-verbs]
  gcl loadgen  [--addr HOST:PORT] [--submitters N] [--duration-ms N]
               [--think-ms N] [--distinct N] [--sample-ms N] [--seed N]
               [--workloads A,B,...] [--full] [--out PATH]
  gcl soak     [--addr HOST:PORT] [--workers N] [--slots N]
               [--duration-ms N] [--chaos] [--kill-coordinator-ms N]
               [--kill-worker-ms N] [--submitters N] [--think-ms N]
               [--distinct N] [--workloads A,B,...] [--seed N]
               [--replicas N] [--rebalance-ms N] [--journal PATH]
               [--out PATH]

`classify` runs the paper's backward-dataflow analysis and prints each
global load's class and (for non-deterministic loads) the def-chain back to
the tainting load. `analyze` runs the static-analysis suite — verifier
lints, divergence analysis (flagging `bar.sync` under divergent control
flow), and per-load coalescing/bank-conflict prediction from the tid-affine
address form — over a PTX file, one named workload's kernels, or `all`;
--csv emits one row per load behind a `#schema` version line, and the exit
code is nonzero if any kernel has diagnostics. --locality adds the
loop-aware footprint analysis: per load, the set of 128-byte blocks each
CTA touches (using recovered loop trip counts) and the inter-CTA sharing
class — broadcast / shared / private / unbounded — plus a CTA-pair sharing
matrix and its cluster map under the launch geometry given by --grid and
--block (default 4x1x1 CTAs of 64x1x1 threads). --critical ranks each
kernel's loads by static criticality (dependent-load chain depth, slice
height, consumer count, divergence, predicted requests) so the top of the
list is where optimization and validation effort should go. `run` simulates one launch on the Fermi configuration;
each --alloc allocates a zeroed device buffer and passes its address as the
next kernel parameter, each --param passes a raw integer. With --memcheck,
out-of-bounds device accesses abort the launch with a fault report naming
the load's class and address def-chain. With --sanitize, the simsan runtime
sanitizer checks request conservation through the memory hierarchy and
shared-memory races between warps, and prints the launch's event digest.
With --checkpoint-every N, the complete simulator state is written to
--checkpoint-file every N cycles (and on a hang, the watchdog's mid-flight
snapshot is dumped there); --resume PATH restores such a checkpoint and
continues the interrupted launch — same kernel, same flags — finishing with
the identical event digest as an uninterrupted run. With --trace, a bounded
debug trace of issued warp instructions is armed (capacity --trace-cap,
default 65536 events); when the launch issues more events than the buffer
holds, a one-line warning reports how many were dropped.
`trace` executes workloads with a capture sink attached and writes each
one's complete instruction streams — per warp, delta-compressed, section-
checksummed — to a GCLTRACE1 container under results/traces (or --out DIR),
content-addressed by the same configuration + kernel + parameter
fingerprint that keys the result cache. `replay` feeds those containers
back through the timing model instead of functionally executing the
workload: same per-launch event digests, cycle counts and statistics, at a
fraction of the capture wall-clock; --verify re-runs each workload
execution-driven and fails if replay and execution disagree anywhere.
`replay` exits 2 when a container is missing or unreadable (truncated,
corrupt, bad magic — recapture it) and 3 when a readable container does not
match this build or spec (format version skew, configuration fingerprint
drift, kernel mismatch — re-pair trace and binary).
`suite` keeps going when a benchmark fails, prints a per-benchmark outcome
table, and exits nonzero only if something failed; --analyze runs the
static pre-flight over every benchmark's kernels first (fail-soft: findings
are printed but never stop the run); --force-fail caps the
named benchmark's cycle budget to exercise that path; --sanitize runs each
benchmark twice and fails it if the two event digests diverge. Progress is
persisted to results/run.json after every benchmark: `suite --resume` skips
the benchmarks already recorded as ok, and --retries N re-runs each failure
up to N extra times with capped, seeded-jitter exponential backoff.
--jobs N fans the benchmarks out over N worker threads; results (and event
digests) are identical to a serial run, in the same order. Completed
results are stored in a content-addressed cache under results/cache keyed
by configuration, kernels, and workload parameters — a warm rerun replays
the whole suite without simulating anything; --no-cache bypasses it.
`suite --replay` sources every result by replaying the captured trace
containers under results/traces (or --traces DIR) instead of functionally
executing the workloads; a benchmark whose container is absent or
mismatched fails structurally — replay never silently falls back to
execution.
`serve` runs the same job engine as a daemon — a coordinator (below) with
one in-process worker of --jobs slots: clients connect over TCP and speak
newline-delimited JSON — {\"op\":\"submit\",\"workload\":\"bfs\",
\"tiny\":true} to enqueue (rejected with an error when the bounded queue is
full; a resubmit of the same spec joins the first job and answers
\"deduped\":true), {\"op\":\"status\"}, {\"op\":\"result\",\"id\":N}, and
{\"op\":\"shutdown\"} to drain gracefully and exit. Every connection
carries read/write deadlines and a frame-size cap, and a client silent for
five minutes is dropped, so a stalled or misbehaving client cannot wedge
the daemon.
`coordinate` runs the daemon as a fleet: `gcl serve --join COORD:PORT` on any
number of machines registers workers (named with --name, --jobs slots
each), and clients speak the same submit/status/result/shutdown verbs to
the coordinator, which shards jobs across workers by content-addressed
cache key, supervises them with heartbeats and per-job leases, and
reassigns work from dead, partitioned or stalled workers — results are
deduplicated by cache key, so a fleet sweep is digest-identical to a
serial run. Finished results are fanned out to an R-member replica set of
workers (--replicas, default 2) chosen by rendezvous hashing; a resubmit
of a warm key probes the primary, reads through from a surviving replica,
and write-repairs back to full strength — so losing a node costs only the
keys whose entire replica set died. `suite --fleet COORD:PORT` runs the
whole suite through a coordinator instead of local threads (incompatible
with --jobs, --retries, --force-fail and --no-cache: parallelism, retry
policy and caching belong to the fleet); it opens a streaming session and
follows the coordinator's NDJSON event feed (queued / leased / reassigned
/ done, plus queue-depth heartbeats) instead of polling, and `suite
--fleet --resume` re-attaches to the manifest's recorded session, replaying
any events missed while disconnected. `serve --inject SPEC` arms the
worker-side chaos layer (drop-heartbeat, stall=MS, kill-after=N,
corrupt=N, partition-after=MS) used by the fault-tolerance tests and CI
game days.
`loadgen` drives a serve daemon or coordinator with N concurrent
closed-loop submitters (seeded think-time jitter) and writes a periodic
JSON time series — p50/p99 submit latency, queue depth, cache-hit rate,
shed and error counts — under results/load/. Sheds are data, not
failures: an overloaded coordinator answers structured
{\"ok\":false,\"shed\":true} responses (per-session inflight cap, queue
cap) instead of stalling.
`coordinate --journal PATH` appends every job-table transition, session
attach/detach and replica-directory change to a checksummed write-ahead
journal (fsync-batched, compacted into a snapshot record once it outgrows
--journal-compact-bytes); `--recover` replays the journal on startup —
tolerating a torn tail by truncating to the last valid record — then
reconciles with re-joining workers, which re-announce held leases and
replica inventories so in-flight work resumes instead of re-running.
`serve --join --rejoin` makes a worker redial and re-join after losing
its coordinator instead of exiting. `--rebalance-ms N` arms a background
rebalancer that proactively re-fans under-replicated keys back to R
replicas on any membership change, instead of waiting for a read miss.
The destructive chaos verbs (decommission, reset) are refused unless the
coordinator runs with --chaos-verbs.
`soak` is the long-haul proof: it spawns a journaled coordinator and N
rejoin-capable workers as child processes, drives them with submitter
threads, and with --chaos runs a seeded schedule that kill -9s workers
and the coordinator itself (respawned with --recover) mid-sweep; it then
audits that every acknowledged job reached `done`, that every result is
byte-identical to a serial run, and that the replica directory converged
back to full strength, writing a JSON report under results/soak/.
`serve` and `coordinate` exit 2 when the address cannot be bound (or the
worker cannot reach its coordinator) and 3 on a protocol failure after
startup, so supervisors can tell configuration from runtime faults; an
unrecoverable journal (bad magic or a format version from a different
build) is a configuration error, exit 1.
";

fn load_kernel(path: &str) -> Result<Kernel, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    parse_kernel(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_module(path: &str) -> Result<Vec<Kernel>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    gcl::ptx::parse_module(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("classify: missing <kernel.ptx>")?;
    let json = args.iter().any(|a| a == "--json");
    let kernels = load_module(path)?;
    for (i, kernel) in kernels.iter().enumerate() {
        let classes = classify(kernel);
        if json {
            println!("{}", classification_to_json(&classes).render_pretty());
            continue;
        }
        if i > 0 {
            println!();
        }
        let (d, n) = classes.global_load_counts();
        println!(
            "kernel `{}`: {} global loads ({d} deterministic, {n} non-deterministic)\n",
            kernel.name(),
            d + n
        );
        for load in classes.global_loads() {
            let inst = &kernel.insts()[load.pc];
            println!("pc {:>3}  {:<40} {}", load.pc, inst.to_string(), load.class);
            if !load.witness.is_empty() {
                for (j, &pc) in load.witness.iter().enumerate().skip(1) {
                    println!(
                        "        {:indent$}<- {}",
                        "",
                        kernel.insts()[pc].op,
                        indent = j * 2
                    );
                }
            }
        }
    }
    Ok(())
}

/// Encode a [`Classification`] for `gcl classify --json`: one object per
/// kernel with every load's pc, space, class letter, terminal sources and
/// (for N loads) the def-chain witness.
fn classification_to_json(classes: &Classification) -> Json {
    let loads = classes
        .loads()
        .map(|l| {
            Json::obj(vec![
                ("pc", Json::UInt(l.pc as u64)),
                ("space", Json::Str(l.space.to_string())),
                ("class", Json::Str(l.class.letter().to_string())),
                (
                    "sources",
                    Json::Arr(l.sources.iter().map(|s| Json::Str(s.to_string())).collect()),
                ),
                (
                    "witness",
                    Json::Arr(l.witness.iter().map(|&pc| Json::UInt(pc as u64)).collect()),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("kernel", Json::Str(classes.kernel_name().to_string())),
        ("loads", Json::Arr(loads)),
    ])
}

/// Resolve the `gcl analyze` target: a PTX file path, a workload name, or
/// `all` for every benchmark's kernels.
fn analyze_targets(target: &str) -> Result<Vec<Kernel>, String> {
    if target == "all" {
        return Ok(gcl::workloads::all_workloads()
            .iter()
            .flat_map(|w| w.kernels())
            .collect());
    }
    if target.ends_with(".ptx") || Path::new(target).is_file() {
        return load_module(target);
    }
    let workloads = gcl::workloads::all_workloads();
    match workloads.iter().find(|w| w.name() == target) {
        Some(w) => Ok(w.kernels()),
        None => {
            let names: Vec<&str> = workloads.iter().map(|w| w.name()).collect();
            Err(format!(
                "analyze: `{target}` is neither a PTX file nor a workload \
                 (expected a .ptx path, `all`, or one of: {})",
                names.join(", ")
            ))
        }
    }
}

/// Parse a `--grid`/`--block` dimension spec: `X`, `X,Y` or `X,Y,Z`.
fn parse_dim3(s: &str) -> Result<[u32; 3], String> {
    let mut out = [1u32; 3];
    let parts: Vec<&str> = s.split(',').collect();
    if parts.is_empty() || parts.len() > 3 {
        return Err(format!("bad dimension `{s}` (expected X[,Y[,Z]])"));
    }
    for (i, p) in parts.iter().enumerate() {
        out[i] = parse_u64(p)? as u32;
        if out[i] == 0 {
            return Err(format!("bad dimension `{s}` (components must be >= 1)"));
        }
    }
    Ok(out)
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let target = args
        .first()
        .ok_or("analyze: missing <kernel.ptx|workload|all>")?;
    let mut csv = false;
    let mut locality = false;
    let mut critical = false;
    // The locality analysis needs a launch geometry; default to a small
    // multi-CTA launch so inter-CTA sharing is observable.
    let mut block = [64u32, 1, 1];
    let mut grid = [4u32, 1, 1];
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => csv = true,
            "--locality" => locality = true,
            "--critical" => critical = true,
            "--block" => {
                i += 1;
                block = parse_dim3(args.get(i).ok_or("--block needs X[,Y[,Z]]")?)?;
            }
            "--grid" => {
                i += 1;
                grid = parse_dim3(args.get(i).ok_or("--grid needs X[,Y[,Z]]")?)?;
            }
            other => return Err(format!("analyze: unknown option `{other}`")),
        }
        i += 1;
    }
    let opts = AnalyzeOptions {
        locality: locality.then(|| LaunchCtx::new(block, grid)),
        critical,
    };
    let kernels = analyze_targets(target)?;
    let mut errors = 0usize;
    let mut warnings = 0usize;
    if csv {
        println!("{CSV_SCHEMA}");
        println!("{}", Report::csv_header());
    }
    for (i, kernel) in kernels.iter().enumerate() {
        let report = analyze_with(kernel, &opts);
        errors += report.error_count();
        warnings += report.warning_count();
        if csv {
            for row in report.csv_rows() {
                println!("{row}");
            }
            // CSV carries only the loads; keep findings visible on stderr.
            for d in &report.diagnostics {
                eprintln!("{}: {d}", report.kernel);
            }
        } else {
            if i > 0 {
                println!();
            }
            print!("{report}");
        }
    }
    if errors + warnings > 0 {
        Err(format!(
            "analyze: {errors} error(s), {warnings} warning(s) across {} kernel(s)",
            kernels.len()
        ))
    } else {
        Ok(())
    }
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("disasm: missing <kernel.ptx>")?;
    for kernel in load_module(path)? {
        print!("{kernel}");
    }
    Ok(())
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let v = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    v.map_err(|e| format!("bad integer `{s}`: {e}"))
}

enum ParamSpec {
    Alloc(u64),
    Value(u64),
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("run: missing <kernel.ptx>")?;
    let kernel = load_kernel(path)?;
    let mut grid = 1u32;
    let mut block = 32u32;
    let mut cfg = GpuConfig::fermi();
    let mut specs: Vec<ParamSpec> = Vec::new();
    let mut launch_flags = false;
    let mut ckpt_every = 0u64;
    let mut ckpt_file: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut trace = false;
    let mut trace_cap = 65_536usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--grid" => {
                i += 1;
                grid = parse_u64(args.get(i).ok_or("--grid needs a value")?)? as u32;
                launch_flags = true;
            }
            "--block" => {
                i += 1;
                block = parse_u64(args.get(i).ok_or("--block needs a value")?)? as u32;
                launch_flags = true;
            }
            "--alloc" => {
                i += 1;
                let bytes = parse_u64(args.get(i).ok_or("--alloc needs a value")?)?;
                specs.push(ParamSpec::Alloc(bytes));
                launch_flags = true;
            }
            "--param" => {
                i += 1;
                specs.push(ParamSpec::Value(parse_u64(
                    args.get(i).ok_or("--param needs a value")?,
                )?));
                launch_flags = true;
            }
            "--memcheck" => cfg.memcheck = true,
            "--sanitize" => cfg.sanitize = true,
            "--trace" => trace = true,
            "--trace-cap" => {
                i += 1;
                trace_cap = parse_u64(args.get(i).ok_or("--trace-cap needs a value")?)? as usize;
                if trace_cap == 0 {
                    return Err("--trace-cap must be at least 1".to_string());
                }
                trace = true;
            }
            "--max-cycles" => {
                i += 1;
                cfg.max_cycles = parse_u64(args.get(i).ok_or("--max-cycles needs a value")?)?;
            }
            "--checkpoint-every" => {
                i += 1;
                ckpt_every = parse_u64(args.get(i).ok_or("--checkpoint-every needs a value")?)?;
                if ckpt_every == 0 {
                    return Err("--checkpoint-every must be at least 1".to_string());
                }
            }
            "--checkpoint-file" => {
                i += 1;
                ckpt_file = Some(
                    args.get(i)
                        .ok_or("--checkpoint-file needs a path")?
                        .to_string(),
                );
            }
            "--resume" => {
                i += 1;
                resume = Some(args.get(i).ok_or("--resume needs a path")?.to_string());
            }
            other => return Err(format!("run: unknown option `{other}`")),
        }
        i += 1;
    }
    if ckpt_every > 0 && ckpt_file.is_none() {
        return Err("--checkpoint-every requires --checkpoint-file".to_string());
    }
    if resume.is_some() && launch_flags {
        return Err(
            "--resume restores the checkpoint's own grid, block, memory and parameters; \
             it cannot be combined with --grid/--block/--alloc/--param"
                .to_string(),
        );
    }
    let mut gpu = Gpu::new(cfg).map_err(|e| e.to_string())?;
    if trace {
        gpu.arm_trace(trace_cap);
    }
    match resume.as_deref() {
        Some(ckpt) => {
            let snap = Snapshot::read_file(ckpt).map_err(|e| e.to_string())?;
            gpu.restore(&snap).map_err(|e| e.to_string())?;
            if !gpu.launch_active() {
                return Err(format!(
                    "`{ckpt}` is an idle snapshot: there is no interrupted launch to resume"
                ));
            }
            eprintln!(
                "(resuming `{}` at cycle {} from {ckpt})",
                gpu.launch_kernel_name().unwrap_or("?"),
                gpu.launch_cycle().unwrap_or(0),
            );
        }
        None => {
            let mut params: Vec<u64> = Vec::new();
            for spec in specs {
                match spec {
                    ParamSpec::Alloc(bytes) => {
                        params.push(gpu.mem().alloc(bytes, 128).map_err(|e| e.to_string())?);
                    }
                    ParamSpec::Value(v) => params.push(v),
                }
            }
            if params.len() != kernel.params().len() {
                return Err(format!(
                    "kernel `{}` takes {} parameters; {} provided (use --alloc/--param)",
                    kernel.name(),
                    kernel.params().len(),
                    params.len()
                ));
            }
            let packed = pack_params(&kernel, &params);
            gpu.launch_begin(&kernel, Dim3::x(grid), Dim3::x(block), &packed)
                .map_err(|e| e.to_string())?;
        }
    }
    let resumed = resume.is_some();
    let stats = drive_launch(&mut gpu, &kernel, ckpt_every, ckpt_file.as_deref())?;
    if resumed {
        println!("kernel `{}` (resumed)", kernel.name());
    } else {
        println!(
            "kernel `{}`: {} CTAs x {} threads",
            kernel.name(),
            grid,
            block
        );
    }
    println!("cycles             {}", stats.cycles);
    println!("warp instructions  {}", stats.sm.warp_insts);
    println!(
        "IPC                {:.3}",
        stats.sm.warp_insts as f64 / stats.cycles as f64
    );
    let p = stats.profiler();
    println!(
        "global load warps  {} (N fraction {:.1}%)",
        p.gld_request,
        stats.nondet_load_fraction() * 100.0
    );
    println!("L1 miss ratio      {:.1}%", p.l1_miss_ratio() * 100.0);
    for class in [LoadClass::Deterministic, LoadClass::NonDeterministic] {
        let a = stats.class(class);
        if a.warp_loads == 0 {
            continue;
        }
        println!(
            "{class:<18} {:.2} req/warp, turnaround {:.1} cycles",
            a.requests_per_warp(),
            a.turnaround.mean()
        );
    }
    if let Some(d) = stats.digest {
        println!("event digest       0x{d:016x}");
    }
    if trace {
        let events = gpu.take_debug_trace().map_or(0, |t| t.events().len());
        println!("trace events       {events}");
        if stats.trace_dropped > 0 {
            eprintln!(
                "warning: debug trace dropped {} event(s) past the {trace_cap}-event buffer \
                 (raise --trace-cap)",
                stats.trace_dropped
            );
        }
    }
    Ok(())
}

/// Step the active launch to completion, writing a checkpoint to `file`
/// every `every` cycles (when `every > 0`), and dumping the hang watchdog's
/// mid-flight snapshot to `file` if the launch wedges.
fn drive_launch(
    gpu: &mut Gpu,
    kernel: &Kernel,
    every: u64,
    file: Option<&str>,
) -> Result<LaunchStats, String> {
    let mut written = 0u64;
    loop {
        match gpu.launch_step(kernel) {
            Ok(Some(stats)) => {
                if written > 0 {
                    let f = file.unwrap_or("?");
                    eprintln!("(wrote {written} checkpoints to {f})");
                }
                return Ok(stats);
            }
            Ok(None) => {
                if every > 0 {
                    if let (Some(f), Some(c)) = (file, gpu.launch_cycle()) {
                        if c > 0 && c % every == 0 {
                            gpu.snapshot().write_file(f).map_err(|e| e.to_string())?;
                            written += 1;
                        }
                    }
                }
            }
            Err(e) => {
                if matches!(e, SimError::Hang(_)) {
                    if let (Some(f), Some(snap)) = (file, gpu.take_hang_snapshot()) {
                        match snap.write_file(f) {
                            Ok(()) => eprintln!("(hang: dumped mid-flight snapshot to {f})"),
                            Err(w) => eprintln!("(hang: snapshot dump failed: {w})"),
                        }
                    }
                }
                return Err(e.to_string());
            }
        }
    }
}

/// Where `gcl suite` persists its run manifest.
const MANIFEST_PATH: &str = "results/run.json";
const MANIFEST_VERSION: u64 = 1;

/// Per-workload progress record in the suite manifest.
struct ManifestEntry {
    name: String,
    /// `pending` | `running` | `retried` | `ok` | `failed`.
    status: String,
    attempts: u64,
    wall_ms: f64,
    /// Wall time the executing fleet worker held the lease (stall
    /// included); 0 for local runs, where `wall_ms` is the same clock.
    worker_wall_ms: f64,
    /// Which fleet worker produced the result (local runs: none).
    worker: Option<String>,
    digest: Option<u64>,
    error: Option<String>,
}

/// The persisted state of one suite run: rewritten after every status
/// change, atomically, so a killed suite leaves a manifest `--resume` can
/// pick up.
struct Manifest {
    scale: String,
    sanitize: bool,
    /// Worker threads of the run that wrote this manifest. Informational:
    /// `--resume` deliberately ignores it — parallelism never changes
    /// results, so resuming `-j1` progress with `-j4` is fine.
    jobs: u64,
    /// Streaming session id of a `--fleet` run; `--fleet --resume`
    /// re-attaches to it and replays missed events.
    session: Option<String>,
    entries: Vec<ManifestEntry>,
}

impl Manifest {
    fn to_json(&self) -> Json {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("name", Json::Str(e.name.clone())),
                    ("status", Json::Str(e.status.clone())),
                    ("attempts", Json::UInt(e.attempts)),
                    ("wall_ms", Json::Float(e.wall_ms)),
                    ("worker_wall_ms", Json::Float(e.worker_wall_ms)),
                    (
                        "worker",
                        match &e.worker {
                            Some(w) => Json::Str(w.clone()),
                            None => Json::Null,
                        },
                    ),
                    (
                        "digest",
                        match e.digest {
                            Some(d) => Json::Str(format!("0x{d:016x}")),
                            None => Json::Null,
                        },
                    ),
                    (
                        "error",
                        match &e.error {
                            Some(m) => Json::Str(m.clone()),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("version", Json::UInt(MANIFEST_VERSION)),
            ("scale", Json::Str(self.scale.clone())),
            ("sanitize", Json::Bool(self.sanitize)),
            ("jobs", Json::UInt(self.jobs)),
            (
                "session",
                match &self.session {
                    Some(s) => Json::Str(s.clone()),
                    None => Json::Null,
                },
            ),
            ("workloads", Json::Arr(entries)),
        ])
    }

    fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        // Write-then-rename: a suite killed mid-save never leaves a torn
        // manifest under the final name.
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json().render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename {}: {e}", tmp.display()))
    }

    fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            format!(
                "cannot read {}: {e} (run without --resume first)",
                path.display()
            )
        })?;
        let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let bad = || format!("{}: not a suite manifest", path.display());
        if j.get("version").and_then(Json::as_u64) != Some(MANIFEST_VERSION) {
            return Err(format!(
                "{}: unsupported manifest version (this build reads {MANIFEST_VERSION})",
                path.display()
            ));
        }
        let scale = j
            .get("scale")
            .and_then(Json::as_str)
            .ok_or_else(bad)?
            .to_string();
        let sanitize = match j.get("sanitize") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(bad()),
        };
        let jobs = j.get("jobs").and_then(Json::as_u64).unwrap_or(1);
        let mut entries = Vec::new();
        for w in j.get("workloads").and_then(Json::as_arr).ok_or_else(bad)? {
            let digest = match w.get("digest").and_then(Json::as_str) {
                Some(s) => Some(
                    u64::from_str_radix(s.trim_start_matches("0x"), 16)
                        .map_err(|_| format!("{}: bad digest `{s}`", path.display()))?,
                ),
                None => None,
            };
            entries.push(ManifestEntry {
                name: w
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(bad)?
                    .to_string(),
                status: w
                    .get("status")
                    .and_then(Json::as_str)
                    .ok_or_else(bad)?
                    .to_string(),
                attempts: w.get("attempts").and_then(Json::as_u64).unwrap_or(0),
                wall_ms: w.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
                worker_wall_ms: w
                    .get("worker_wall_ms")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                worker: w.get("worker").and_then(Json::as_str).map(str::to_string),
                digest,
                error: w.get("error").and_then(Json::as_str).map(str::to_string),
            });
        }
        Ok(Manifest {
            scale,
            sanitize,
            jobs,
            session: j.get("session").and_then(Json::as_str).map(str::to_string),
            entries,
        })
    }
}

fn cmd_suite(args: &[String]) -> Result<(), String> {
    let mut tiny = false;
    let mut sanitize = false;
    let mut analyze_first = false;
    let mut force_fail: Option<String> = None;
    let mut resume = false;
    let mut retries = 0u64;
    let mut retries_given = false;
    let mut jobs = 1usize;
    let mut jobs_given = false;
    let mut no_cache = false;
    let mut fleet: Option<String> = None;
    let mut replay = false;
    let mut traces_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tiny" => tiny = true,
            "--sanitize" => sanitize = true,
            "--analyze" => analyze_first = true,
            "--resume" => resume = true,
            "--no-cache" => no_cache = true,
            "--replay" => replay = true,
            "--traces" => {
                i += 1;
                traces_dir = Some(args.get(i).ok_or("--traces needs a directory")?.to_string());
            }
            "--force-fail" => {
                i += 1;
                force_fail = Some(
                    args.get(i)
                        .ok_or("--force-fail needs a benchmark name")?
                        .to_string(),
                );
            }
            "--retries" => {
                i += 1;
                retries = parse_u64(args.get(i).ok_or("--retries needs a value")?)?;
                retries_given = true;
            }
            "--jobs" => {
                i += 1;
                jobs = parse_u64(args.get(i).ok_or("--jobs needs a value")?)? as usize;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                jobs_given = true;
            }
            "--fleet" => {
                i += 1;
                fleet = Some(args.get(i).ok_or("--fleet needs HOST:PORT")?.to_string());
            }
            other => return Err(format!("suite: unknown option `{other}`")),
        }
        i += 1;
    }
    if fleet.is_some() && (jobs_given || retries_given || force_fail.is_some() || no_cache) {
        return Err(
            "--fleet sends the suite to a coordinator; --jobs, --retries, --force-fail and \
             --no-cache configure local execution and cannot be combined with it"
                .to_string(),
        );
    }
    if traces_dir.is_some() && !replay {
        return Err("--traces only applies with --replay".to_string());
    }
    if replay && fleet.is_some() {
        return Err(
            "--replay sources results from local trace containers; a fleet worker's trace \
             store is its own configuration (cannot be combined with --fleet)"
                .to_string(),
        );
    }
    if replay && force_fail.is_some() {
        return Err(
            "--force-fail starves a benchmark's cycle budget, which changes its configuration \
             fingerprint — no captured trace can match it (cannot be combined with --replay)"
                .to_string(),
        );
    }
    let workloads = if tiny {
        gcl::workloads::tiny_workloads()
    } else {
        gcl::workloads::all_workloads()
    };
    if let Some(name) = force_fail.as_deref() {
        if !workloads.iter().any(|w| w.name() == name) {
            return Err(format!("--force-fail: no benchmark named `{name}`"));
        }
    }
    if analyze_first {
        // Fail-soft static pre-flight: surface lint/divergence findings for
        // every kernel the suite is about to launch, then run regardless.
        println!("static pre-flight (gcl-analyze):");
        let mut findings = 0usize;
        for w in &workloads {
            for kernel in w.kernels() {
                let report = analyze(&kernel);
                if report.is_clean() {
                    println!("  {:6} `{}`: clean", w.name(), kernel.name());
                } else {
                    findings += report.diagnostics.len();
                    println!(
                        "  {:6} `{}`: {} error(s), {} warning(s)",
                        w.name(),
                        kernel.name(),
                        report.error_count(),
                        report.warning_count()
                    );
                    for d in &report.diagnostics {
                        println!("    {d}");
                    }
                }
            }
        }
        if findings > 0 {
            println!("  ({findings} finding(s) — continuing, pre-flight is advisory)");
        }
        println!();
    }
    let scale = if tiny { "tiny" } else { "full" };
    let manifest_path = Path::new(MANIFEST_PATH);

    // Start from the persisted manifest when resuming; everything not
    // recorded `ok` there (pending, running, retried, failed — and any
    // workload the old manifest never saw) runs again.
    let (prior, prior_session) = if resume {
        let m = Manifest::load(manifest_path)?;
        if m.scale != scale || m.sanitize != sanitize {
            return Err(format!(
                "{}: manifest was written by `suite{}{}` — resume with the same flags \
                 or start over without --resume",
                manifest_path.display(),
                if m.scale == "tiny" { " --tiny" } else { "" },
                if m.sanitize { " --sanitize" } else { "" },
            ));
        }
        (m.entries, m.session)
    } else {
        (Vec::new(), None)
    };
    let mut manifest = Manifest {
        scale: scale.to_string(),
        sanitize,
        jobs: jobs as u64,
        session: None,
        entries: workloads
            .iter()
            .map(|w| {
                prior
                    .iter()
                    .find(|e| e.name == w.name() && e.status == "ok")
                    .map(|e| ManifestEntry {
                        name: e.name.clone(),
                        status: "ok".to_string(),
                        attempts: e.attempts,
                        wall_ms: e.wall_ms,
                        worker_wall_ms: e.worker_wall_ms,
                        worker: e.worker.clone(),
                        digest: e.digest,
                        error: None,
                    })
                    .unwrap_or_else(|| ManifestEntry {
                        name: w.name().to_string(),
                        status: "pending".to_string(),
                        attempts: 0,
                        wall_ms: 0.0,
                        worker_wall_ms: 0.0,
                        worker: None,
                        digest: None,
                        error: None,
                    })
            })
            .collect(),
    };
    manifest.save(manifest_path)?;

    // Build one JobSpec per workload still to run; `spec_wi[i]` maps spec
    // index back to workload index (ascending, so the result walk below can
    // merge skipped and executed rows in workload order).
    let mut spec_wi: Vec<usize> = Vec::new();
    let mut specs: Vec<JobSpec> = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        if manifest.entries[wi].status == "ok" {
            continue;
        }
        let mut cfg = if tiny {
            GpuConfig::small()
        } else {
            GpuConfig::fermi()
        };
        if force_fail.as_deref() == Some(w.name()) {
            // Starve the cycle budget so this benchmark times out: exercises
            // the fail-soft path without corrupting any input.
            cfg.max_cycles = 50;
        }
        cfg.sanitize = sanitize;
        spec_wi.push(wi);
        specs.push(JobSpec::new(w.name(), tiny, cfg));
    }

    let results = if let Some(addr) = fleet.as_deref() {
        run_fleet_suite(
            addr,
            &specs,
            &spec_wi,
            &mut manifest,
            manifest_path,
            prior_session.as_deref(),
        )?
    } else {
        let pool_cfg = PoolConfig {
            jobs,
            retries,
            cache: if no_cache {
                None
            } else {
                Some(ResultCache::default_dir())
            },
            traces: replay.then(|| match traces_dir.as_deref() {
                Some(dir) => TraceStore::new(dir),
                None => TraceStore::default_dir(),
            }),
            ..PoolConfig::default()
        };
        // The pool delivers every event on this thread, so this closure is
        // the manifest's single writer — workers never touch
        // results/run.json.
        let mut save_err: Option<String> = None;
        let results = run_pool(&specs, &pool_cfg, |event| {
            match event {
                JobEvent::Started { index } => {
                    manifest.entries[spec_wi[*index]].status = "running".to_string();
                }
                JobEvent::Retried {
                    index,
                    attempt,
                    error,
                    ..
                } => {
                    let e = &mut manifest.entries[spec_wi[*index]];
                    e.status = "retried".to_string();
                    e.attempts = *attempt;
                    e.error = Some(error.clone());
                }
                JobEvent::Finished { index, result } => {
                    let e = &mut manifest.entries[spec_wi[*index]];
                    e.attempts = result.attempts;
                    match &result.outcome {
                        Ok(out) => {
                            e.status = "ok".to_string();
                            e.wall_ms = out.wall_ms;
                            e.digest = out.stats.digest;
                            e.error = None;
                        }
                        Err(err) => {
                            e.status = "failed".to_string();
                            e.error = Some(err.to_string());
                        }
                    }
                }
            }
            if let Err(e) = manifest.save(manifest_path) {
                save_err.get_or_insert(e);
            }
        });
        if let Some(e) = save_err {
            return Err(e);
        }
        results
    };

    // Results come back ordered by submission index regardless of which
    // worker finished first, so this table is identical for any --jobs.
    let total = workloads.len();
    let mut failures: Vec<(&'static str, String)> = Vec::new();
    let mut skipped = 0usize;
    let mut cached = 0usize;
    println!(
        "{:6} {:7} {:>9} {:>11} {:>9} {:>6} {:>9}  outcome",
        "name", "cat", "cycles", "warp insts", "gld", "N%", "L1 miss%"
    );
    let mut ri = 0usize;
    for (wi, w) in workloads.iter().enumerate() {
        if spec_wi.get(ri) != Some(&wi) {
            let digest = match manifest.entries[wi].digest {
                Some(d) => format!("  0x{d:016x}"),
                None => String::new(),
            };
            println!(
                "{:6} {:7} {:>9} {:>11} {:>9} {:>6} {:>9}  skipped (ok in manifest){digest}",
                w.name(),
                w.category().to_string(),
                "-",
                "-",
                "-",
                "-",
                "-",
            );
            skipped += 1;
            continue;
        }
        let result = &results[ri];
        ri += 1;
        match &result.outcome {
            Ok(out) => {
                let p = out.stats.profiler();
                let digest = match out.stats.digest {
                    Some(d) => format!("  0x{d:016x}"),
                    None => String::new(),
                };
                let retried = if result.attempts > 1 {
                    format!(" (attempt {})", result.attempts)
                } else {
                    String::new()
                };
                let from_cache = if out.cached {
                    cached += 1;
                    " (cached)"
                } else {
                    ""
                };
                println!(
                    "{:6} {:7} {:>9} {:>11} {:>9} {:>5.1} {:>9.1}  ok{digest}{retried}{from_cache}",
                    w.name(),
                    w.category().to_string(),
                    out.stats.cycles,
                    out.stats.sm.warp_insts,
                    p.gld_request,
                    out.stats.nondet_load_fraction() * 100.0,
                    p.l1_miss_ratio() * 100.0,
                );
            }
            Err(e) => {
                let msg = e.to_string();
                let first = msg.lines().next().unwrap_or("failed").to_string();
                println!(
                    "{:6} {:7} {:>9} {:>11} {:>9} {:>6} {:>9}  FAILED: {first}",
                    w.name(),
                    w.category().to_string(),
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                );
                failures.push((w.name(), msg));
            }
        }
    }
    if failures.is_empty() {
        let mut notes: Vec<String> = Vec::new();
        if skipped > 0 {
            notes.push(format!("{skipped} from manifest"));
        }
        if cached > 0 {
            notes.push(format!("{cached} from cache"));
        }
        if notes.is_empty() {
            println!("\n{total} of {total} benchmarks completed");
        } else {
            println!(
                "\n{total} of {total} benchmarks completed ({})",
                notes.join(", ")
            );
        }
        Ok(())
    } else {
        for (name, msg) in &failures {
            eprintln!("\n`{name}` failed:\n{msg}");
        }
        Err(format!(
            "{} of {total} benchmarks failed (re-run with `gcl suite{}{} --resume --retries N` \
             to retry just the failures)",
            failures.len(),
            if tiny { " --tiny" } else { "" },
            if sanitize { " --sanitize" } else { "" },
        ))
    }
}

/// Run the suite's remaining specs through a fleet coordinator over a
/// streaming session: submit everything tagged with the session id, then
/// follow the coordinator's event feed (queued / leased / reassigned /
/// done / failed, plus depth heartbeats) instead of polling `result`. On a
/// terminal event the full checksummed payload is fetched once. The
/// session id is persisted in the manifest, so `--fleet --resume`
/// re-attaches and replays whatever the client missed while away. The
/// manifest is updated exactly as the local pool path does.
fn run_fleet_suite(
    addr: &str,
    specs: &[JobSpec],
    spec_wi: &[usize],
    manifest: &mut Manifest,
    manifest_path: &Path,
    prior_session: Option<&str>,
) -> Result<Vec<JobResult>, String> {
    let mut session = SessionClient::open(
        ClientOptions {
            addr: addr.to_string(),
            // Result frames carry the full hex-encoded LaunchStats.
            max_frame: 1024 * 1024,
            ..ClientOptions::default()
        },
        prior_session,
    )?;
    if prior_session.is_some() {
        eprintln!(
            "gcl suite: re-attached to session {}{}",
            session.id(),
            if session.truncated() {
                " (some events were already evicted from the log)"
            } else {
                ""
            }
        );
    }
    manifest.session = Some(session.id().to_string());
    // Submit everything up front; lifecycle events flow back on the
    // session stream. `id_spec` routes a terminal event back to the spec
    // that owns the job.
    let mut id_spec: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (i, spec) in specs.iter().enumerate() {
        let submit = session.submit(&spec.workload, spec.tiny, spec.cfg.sanitize)?;
        id_spec.insert(submit.id, i);
        manifest.entries[spec_wi[i]].status = "running".to_string();
    }
    manifest.save(manifest_path)?;
    let mut results: Vec<Option<JobResult>> = (0..specs.len()).map(|_| None).collect();
    let mut pending = results.iter().filter(|r| r.is_none()).count();
    // The stream replaces polling, but not deadlines: a fleet that goes
    // quiet for this long (no events, no heartbeats) has lost its
    // coordinator.
    let quiet_limit = std::time::Duration::from_secs(600);
    let mut last_event = std::time::Instant::now();
    while pending > 0 {
        let Some(event) = session.next_event(std::time::Duration::from_millis(500))? else {
            if last_event.elapsed() >= quiet_limit {
                return Err(format!(
                    "no events from {addr} for {}s — coordinator lost?",
                    quiet_limit.as_secs()
                ));
            }
            continue;
        };
        last_event = std::time::Instant::now();
        let kind = event.get("event").and_then(Json::as_str).unwrap_or("");
        let job = event.get("job").and_then(Json::as_u64);
        match kind {
            "leased" => {
                if let (Some(id), Some(worker)) = (job, event.get("worker").and_then(Json::as_str))
                {
                    if let Some(&i) = id_spec.get(&id) {
                        eprintln!("gcl suite: `{}` leased to {worker}", specs[i].workload);
                    }
                }
            }
            "reassigned" => {
                if let Some(&i) = job.as_ref().and_then(|id| id_spec.get(id)) {
                    eprintln!(
                        "gcl suite: `{}` reassigned ({})",
                        specs[i].workload,
                        event.get("reason").and_then(Json::as_str).unwrap_or("?"),
                    );
                }
            }
            "done" | "failed" => {
                let Some(id) = job else { continue };
                let Some(&i) = id_spec.get(&id) else { continue };
                if results[i].is_some() {
                    continue; // replayed event after a resume
                }
                let spec = &specs[i];
                // Events are notifications; the payload (full stats +
                // checksum) comes from one `result` call per job.
                let response = session.result(id)?;
                let attempts = response.get("assigns").and_then(Json::as_u64).unwrap_or(1);
                let outcome = match response.get("state").and_then(Json::as_str) {
                    Some("done") => {
                        let hex = response
                            .get("stats")
                            .and_then(Json::as_str)
                            .ok_or("fleet result missing stats payload")?;
                        let sum = response
                            .get("sum")
                            .and_then(Json::as_str)
                            .ok_or("fleet result missing checksum")?;
                        let stats =
                            gcl::exec::fleet::decode_stats_payload(hex, sum).map_err(|e| {
                                format!("fleet result for `{}` corrupt: {e}", spec.workload)
                            })?;
                        Ok(JobOutput {
                            stats,
                            wall_ms: response
                                .get("wall_ms")
                                .and_then(Json::as_f64)
                                .unwrap_or(0.0),
                            cached: response.get("cached").and_then(Json::as_bool) == Some(true),
                        })
                    }
                    _ => Err(ExecError::Remote(
                        response
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown fleet failure")
                            .to_string(),
                    )),
                };
                let e = &mut manifest.entries[spec_wi[i]];
                e.attempts = attempts;
                e.worker_wall_ms = response
                    .get("worker_wall_ms")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                e.worker = response
                    .get("worker")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                match &outcome {
                    Ok(out) => {
                        e.status = "ok".to_string();
                        e.wall_ms = out.wall_ms;
                        e.digest = out.stats.digest;
                        e.error = None;
                    }
                    Err(err) => {
                        e.status = "failed".to_string();
                        e.error = Some(err.to_string());
                    }
                }
                manifest.save(manifest_path)?;
                results[i] = Some(JobResult {
                    spec: spec.clone(),
                    outcome,
                    attempts,
                });
                pending -= 1;
            }
            _ => {} // queued acks, depth heartbeats
        }
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("all settled"))
        .collect())
}

/// Shared flag parse for `gcl trace` / `gcl replay`: target workload(s),
/// scale, sanitize, the store directory, and command-specific extras.
struct TraceCli {
    specs: Vec<JobSpec>,
    store: TraceStore,
    verify: bool,
}

fn parse_trace_args(
    cmd: &str,
    args: &[String],
    dir_flag: &str,
    default_dir: &str,
    allow_verify: bool,
) -> Result<TraceCli, String> {
    let target = args
        .first()
        .ok_or_else(|| format!("{cmd}: missing <workload|all>"))?;
    let mut tiny = false;
    let mut sanitize = false;
    let mut dir: Option<String> = None;
    let mut verify = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--tiny" => tiny = true,
            "--sanitize" => sanitize = true,
            "--verify" if allow_verify => verify = true,
            flag if flag == dir_flag => {
                i += 1;
                dir = Some(
                    args.get(i)
                        .ok_or_else(|| format!("{dir_flag} needs a directory"))?
                        .to_string(),
                );
            }
            other => return Err(format!("{cmd}: unknown option `{other}`")),
        }
        i += 1;
    }
    let workloads = if tiny {
        gcl::workloads::tiny_workloads()
    } else {
        gcl::workloads::all_workloads()
    };
    let selected: Vec<String> = if target == "all" {
        workloads.iter().map(|w| w.name().to_string()).collect()
    } else if workloads.iter().any(|w| w.name() == target.as_str()) {
        vec![target.to_string()]
    } else {
        let names: Vec<&str> = workloads.iter().map(|w| w.name()).collect();
        return Err(format!(
            "{cmd}: no workload named `{target}` (expected `all` or one of: {})",
            names.join(", ")
        ));
    };
    let specs = selected
        .into_iter()
        .map(|name| {
            let mut cfg = if tiny {
                GpuConfig::small()
            } else {
                GpuConfig::fermi()
            };
            cfg.sanitize = sanitize;
            JobSpec::new(name, tiny, cfg)
        })
        .collect();
    Ok(TraceCli {
        specs,
        store: TraceStore::new(dir.as_deref().unwrap_or(default_dir)),
        verify,
    })
}

/// Map a trace-layer job failure onto the exit-code contract: unreadable
/// container → 2, version/fingerprint mismatch → 3 (including a replay the
/// simulator itself rejects), anything else → 1.
fn trace_exit(e: ExecError) -> CliError {
    let msg = e.to_string();
    match e {
        ExecError::TraceUnreadable { .. } => (EXIT_TRACE_UNREADABLE, msg),
        ExecError::TraceMismatch { .. } | ExecError::Sim(SimError::Replay(_)) => {
            (EXIT_TRACE_MISMATCH, msg)
        }
        _ => (1, msg),
    }
}

fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let cli = parse_trace_args("trace", args, "--out", "results/traces", false).map_err(fail)?;
    println!(
        "{:6} {:>9} {:>9} {:>11} {:>9}  container",
        "name", "launches", "records", "bytes", "wall ms"
    );
    for spec in &cli.specs {
        let t0 = std::time::Instant::now();
        let (stats, summary) = cli.store.capture(spec).map_err(trace_exit)?;
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let digest = match stats.digest {
            Some(d) => format!("  digest 0x{d:016x}"),
            None => String::new(),
        };
        println!(
            "{:6} {:>9} {:>9} {:>11} {:>9.1}  {}{digest}",
            spec.workload,
            summary.launches,
            summary.records,
            summary.bytes,
            wall_ms,
            summary.path.display(),
        );
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), CliError> {
    let cli = parse_trace_args("replay", args, "--in", "results/traces", true).map_err(fail)?;
    println!(
        "{:6} {:>9} {:>11} {:>9}  outcome",
        "name", "cycles", "warp insts", "wall ms"
    );
    let mut mismatches: Vec<String> = Vec::new();
    for spec in &cli.specs {
        let t0 = std::time::Instant::now();
        let stats = cli.store.replay(spec).map_err(trace_exit)?;
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let digest = match stats.digest {
            Some(d) => format!("  digest 0x{d:016x}"),
            None => String::new(),
        };
        let verified = if cli.verify {
            // Execution-driven reference: the workload simulated afresh
            // under the identical configuration must agree with the replay
            // in full — digest, cycles, every counter.
            let w = spec.find_workload().map_err(trace_exit)?;
            let run = Gpu::new(spec.cfg.clone())
                .and_then(|mut gpu| w.run(&mut gpu))
                .map_err(|e| fail(e.to_string()))?;
            if run.stats == stats {
                "  verified"
            } else {
                mismatches.push(format!(
                    "`{}`: replay disagrees with execution (replay {} cycles, digest {:?}; \
                     execution {} cycles, digest {:?})",
                    spec.workload, stats.cycles, stats.digest, run.stats.cycles, run.stats.digest
                ));
                "  MISMATCH"
            }
        } else {
            ""
        };
        println!(
            "{:6} {:>9} {:>11} {:>9.1}  replayed{digest}{verified}",
            spec.workload, stats.cycles, stats.sm.warp_insts, wall_ms,
        );
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(fail(mismatches.join("\n")))
    }
}

/// Parsed `gcl serve` flags, before deciding daemon vs. fleet worker.
struct ServeCli {
    opts: ServeOptions,
    no_cache: bool,
    join: Option<String>,
    name: Option<String>,
    inject: FleetInject,
    connect_retries: Option<u64>,
    rejoin: bool,
    addr_given: bool,
    queue_cap_given: bool,
}

fn parse_serve_args(args: &[String]) -> Result<ServeCli, String> {
    let mut cli = ServeCli {
        opts: ServeOptions::default(),
        no_cache: false,
        join: None,
        name: None,
        inject: FleetInject::none(),
        connect_retries: None,
        rejoin: false,
        addr_given: false,
        queue_cap_given: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                cli.opts.addr = args.get(i).ok_or("--addr needs HOST:PORT")?.to_string();
                cli.addr_given = true;
            }
            "--jobs" => {
                i += 1;
                cli.opts.jobs = parse_u64(args.get(i).ok_or("--jobs needs a value")?)? as usize;
            }
            "--queue-cap" => {
                i += 1;
                cli.opts.queue_cap =
                    parse_u64(args.get(i).ok_or("--queue-cap needs a value")?)? as usize;
                cli.queue_cap_given = true;
            }
            "--no-cache" => cli.no_cache = true,
            "--join" => {
                i += 1;
                cli.join = Some(args.get(i).ok_or("--join needs HOST:PORT")?.to_string());
            }
            "--name" => {
                i += 1;
                cli.name = Some(args.get(i).ok_or("--name needs a value")?.to_string());
            }
            "--inject" => {
                i += 1;
                cli.inject = FleetInject::parse(args.get(i).ok_or("--inject needs a chaos spec")?)?;
            }
            "--connect-retries" => {
                i += 1;
                cli.connect_retries = Some(parse_u64(
                    args.get(i).ok_or("--connect-retries needs a value")?,
                )?);
            }
            "--rejoin" => cli.rejoin = true,
            other => return Err(format!("serve: unknown option `{other}`")),
        }
        i += 1;
    }
    Ok(cli)
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let cli = parse_serve_args(args).map_err(fail)?;
    if let Some(coord) = cli.join {
        // Fleet worker: dial the coordinator instead of binding a port.
        if cli.addr_given || cli.queue_cap_given {
            return Err(fail(
                "--join makes this a fleet worker; --addr and --queue-cap belong to the \
                 coordinator"
                    .to_string(),
            ));
        }
        let mut worker_opts = WorkerOptions {
            coord,
            name: cli
                .name
                .unwrap_or_else(|| format!("worker-{}", std::process::id())),
            slots: cli.opts.jobs.max(1),
            cache: if cli.no_cache {
                None
            } else {
                Some(ResultCache::default_dir())
            },
            inject: cli.inject,
            rejoin: cli.rejoin,
            ..WorkerOptions::default()
        };
        if let Some(retries) = cli.connect_retries {
            worker_opts.connect_retries = retries;
        }
        let label = worker_opts.name.clone();
        eprintln!(
            "gcl serve: joining fleet at {} as `{label}` ({} slot(s))",
            worker_opts.coord, worker_opts.slots
        );
        // A worker that cannot reach its coordinator is the dial-side
        // analogue of a bind failure; everything after the handshake is a
        // protocol error.
        let report = run_worker(worker_opts).map_err(|e| {
            if e.contains("cannot reach coordinator") {
                (EXIT_BIND, e)
            } else {
                (EXIT_NET, e)
            }
        })?;
        eprintln!(
            "gcl serve: `{label}` done ({} job(s) run{}{}{})",
            report.jobs_run,
            if report.killed { ", killed" } else { "" },
            if report.partitioned {
                ", partitioned"
            } else {
                ""
            },
            if report.rejoins > 0 {
                format!(", {} rejoin(s)", report.rejoins)
            } else {
                String::new()
            },
        );
        return Ok(());
    }
    if cli.name.is_some() || !cli.inject.is_clean() {
        return Err(fail(
            "--name and --inject only apply to fleet workers (--join)".to_string(),
        ));
    }
    if cli.connect_retries.is_some() {
        return Err(fail(
            "--connect-retries only applies to fleet workers (--join)".to_string(),
        ));
    }
    if cli.rejoin {
        return Err(fail(
            "--rejoin only applies to fleet workers (--join)".to_string(),
        ));
    }
    let mut opts = cli.opts;
    if !cli.no_cache {
        opts.cache = Some(ResultCache::default_dir());
    }
    let (jobs, queue_cap) = (opts.jobs, opts.queue_cap);
    let server = Server::bind(opts).map_err(serve_exit)?;
    eprintln!(
        "gcl serve: listening on {} ({jobs} worker(s), queue cap {queue_cap})",
        server.addr().map_err(serve_exit)?
    );
    server.run().map_err(serve_exit)
}

fn cmd_coordinate(args: &[String]) -> Result<(), CliError> {
    let opts = parse_coordinate_args(args).map_err(fail)?;
    let summary = format!(
        "queue cap {}, lease {} ms, heartbeat {} ms (timeout {} ms), replicas {}, \
         session inflight cap {}{}{}",
        opts.queue_cap,
        opts.lease_ms,
        opts.heartbeat_ms,
        opts.heartbeat_timeout_ms,
        opts.replicas,
        opts.session_inflight_cap,
        match &opts.journal {
            Some(p) => format!(
                ", journal {}{}",
                p.display(),
                if opts.recover { " (recover)" } else { "" }
            ),
            None => String::new(),
        },
        if opts.rebalance_ms > 0 {
            format!(", rebalance every {} ms", opts.rebalance_ms)
        } else {
            String::new()
        },
    );
    let coordinator = Coordinator::bind(opts).map_err(serve_exit)?;
    eprintln!(
        "gcl coordinate: listening on {} ({summary})",
        coordinator.addr().map_err(serve_exit)?
    );
    coordinator.run().map_err(serve_exit)
}

fn parse_coordinate_args(args: &[String]) -> Result<CoordinatorOptions, String> {
    let mut opts = CoordinatorOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                opts.addr = args.get(i).ok_or("--addr needs HOST:PORT")?.to_string();
            }
            "--queue-cap" => {
                i += 1;
                opts.queue_cap =
                    parse_u64(args.get(i).ok_or("--queue-cap needs a value")?)? as usize;
            }
            "--lease-ms" => {
                i += 1;
                opts.lease_ms = parse_u64(args.get(i).ok_or("--lease-ms needs a value")?)?;
            }
            "--heartbeat-ms" => {
                i += 1;
                opts.heartbeat_ms = parse_u64(args.get(i).ok_or("--heartbeat-ms needs a value")?)?;
            }
            "--heartbeat-timeout-ms" => {
                i += 1;
                opts.heartbeat_timeout_ms =
                    parse_u64(args.get(i).ok_or("--heartbeat-timeout-ms needs a value")?)?;
            }
            "--replicas" => {
                i += 1;
                opts.replicas = parse_u64(args.get(i).ok_or("--replicas needs a value")?)? as usize;
            }
            "--probe-timeout-ms" => {
                i += 1;
                opts.probe_timeout_ms =
                    parse_u64(args.get(i).ok_or("--probe-timeout-ms needs a value")?)?;
            }
            "--session-inflight-cap" => {
                i += 1;
                opts.session_inflight_cap =
                    parse_u64(args.get(i).ok_or("--session-inflight-cap needs a value")?)?;
            }
            "--journal" => {
                i += 1;
                opts.journal = Some(std::path::PathBuf::from(
                    args.get(i).ok_or("--journal needs a path")?,
                ));
            }
            "--recover" => opts.recover = true,
            "--rebalance-ms" => {
                i += 1;
                opts.rebalance_ms = parse_u64(args.get(i).ok_or("--rebalance-ms needs a value")?)?;
            }
            "--journal-compact-bytes" => {
                i += 1;
                opts.journal_compact_bytes =
                    parse_u64(args.get(i).ok_or("--journal-compact-bytes needs a value")?)?;
            }
            "--chaos-verbs" => opts.chaos_verbs = true,
            other => return Err(format!("coordinate: unknown option `{other}`")),
        }
        i += 1;
    }
    Ok(opts)
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let opts = parse_loadgen_args(args)?;
    eprintln!(
        "gcl loadgen: {} submitter(s) against {} for {} ms (think {} ms, {} key variant(s))",
        opts.submitters, opts.addr, opts.duration_ms, opts.think_ms, opts.distinct
    );
    let report = run_loadgen(&opts)?;
    println!(
        "loadgen: {} submits ({} accepted, {} shed, {} errors), {} finished",
        report.submits, report.accepted, report.sheds, report.errors, report.finished
    );
    println!(
        "loadgen: submit latency p50 <= {} us, p99 <= {} us over {} sample(s)",
        report.p50_us, report.p99_us, report.samples
    );
    println!("loadgen: time series written to {}", opts.out.display());
    Ok(())
}

fn parse_loadgen_args(args: &[String]) -> Result<LoadgenOptions, String> {
    let mut opts = LoadgenOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                opts.addr = args.get(i).ok_or("--addr needs HOST:PORT")?.to_string();
            }
            "--submitters" => {
                i += 1;
                opts.submitters =
                    parse_u64(args.get(i).ok_or("--submitters needs a value")?)? as usize;
            }
            "--duration-ms" => {
                i += 1;
                opts.duration_ms = parse_u64(args.get(i).ok_or("--duration-ms needs a value")?)?;
            }
            "--think-ms" => {
                i += 1;
                opts.think_ms = parse_u64(args.get(i).ok_or("--think-ms needs a value")?)?;
            }
            "--distinct" => {
                i += 1;
                opts.distinct = parse_u64(args.get(i).ok_or("--distinct needs a value")?)? as usize;
            }
            "--sample-ms" => {
                i += 1;
                opts.sample_ms = parse_u64(args.get(i).ok_or("--sample-ms needs a value")?)?;
            }
            "--seed" => {
                i += 1;
                opts.seed = parse_u64(args.get(i).ok_or("--seed needs a value")?)?;
            }
            "--workloads" => {
                i += 1;
                opts.workloads = args
                    .get(i)
                    .ok_or("--workloads needs a comma-separated list")?
                    .split(',')
                    .filter(|w| !w.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--full" => opts.tiny = false,
            "--out" => {
                i += 1;
                opts.out = std::path::PathBuf::from(args.get(i).ok_or("--out needs a path")?);
            }
            other => return Err(format!("loadgen: unknown option `{other}`")),
        }
        i += 1;
    }
    Ok(opts)
}

fn cmd_soak(args: &[String]) -> Result<(), String> {
    let opts = parse_soak_args(args)?;
    eprintln!(
        "gcl soak: {} worker(s) x {} slot(s) for {} ms{}",
        opts.workers,
        opts.slots.max(1),
        opts.duration_ms,
        if opts.chaos {
            format!(
                " under chaos (kill coordinator every {} ms, a worker every {} ms)",
                opts.kill_coordinator_ms, opts.kill_worker_ms
            )
        } else {
            String::new()
        },
    );
    let report = run_soak(&opts)?;
    println!(
        "soak: {} submit(s), {} acked, {} audited done, {} spec(s) serial-identical",
        report.submits, report.acked, report.audited, report.digest_matches
    );
    println!(
        "soak: {} coordinator kill(s), {} worker kill(s) survived; \
         {} lease(s) resumed, {} rebalance(s)",
        report.coordinator_kills, report.worker_kills, report.resumed, report.rebalances
    );
    println!(
        "soak: replica directory converged at {}/{} keys full; report written to {}",
        report.replica_full,
        report.replica_keys,
        opts.out.display()
    );
    Ok(())
}

fn parse_soak_args(args: &[String]) -> Result<SoakOptions, String> {
    let mut opts = SoakOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                opts.addr = args.get(i).ok_or("--addr needs HOST:PORT")?.to_string();
            }
            "--workers" => {
                i += 1;
                opts.workers = parse_u64(args.get(i).ok_or("--workers needs a value")?)? as usize;
            }
            "--slots" => {
                i += 1;
                opts.slots = parse_u64(args.get(i).ok_or("--slots needs a value")?)? as usize;
            }
            "--duration-ms" => {
                i += 1;
                opts.duration_ms = parse_u64(args.get(i).ok_or("--duration-ms needs a value")?)?;
            }
            "--chaos" => opts.chaos = true,
            "--kill-coordinator-ms" => {
                i += 1;
                opts.kill_coordinator_ms =
                    parse_u64(args.get(i).ok_or("--kill-coordinator-ms needs a value")?)?;
            }
            "--kill-worker-ms" => {
                i += 1;
                opts.kill_worker_ms =
                    parse_u64(args.get(i).ok_or("--kill-worker-ms needs a value")?)?;
            }
            "--submitters" => {
                i += 1;
                opts.submitters =
                    parse_u64(args.get(i).ok_or("--submitters needs a value")?)? as usize;
            }
            "--think-ms" => {
                i += 1;
                opts.think_ms = parse_u64(args.get(i).ok_or("--think-ms needs a value")?)?;
            }
            "--distinct" => {
                i += 1;
                opts.distinct = parse_u64(args.get(i).ok_or("--distinct needs a value")?)? as usize;
            }
            "--workloads" => {
                i += 1;
                opts.workloads = args
                    .get(i)
                    .ok_or("--workloads needs a comma-separated list")?
                    .split(',')
                    .filter(|w| !w.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--seed" => {
                i += 1;
                opts.seed = parse_u64(args.get(i).ok_or("--seed needs a value")?)?;
            }
            "--replicas" => {
                i += 1;
                opts.replicas = parse_u64(args.get(i).ok_or("--replicas needs a value")?)? as usize;
            }
            "--rebalance-ms" => {
                i += 1;
                opts.rebalance_ms = parse_u64(args.get(i).ok_or("--rebalance-ms needs a value")?)?;
            }
            "--journal" => {
                i += 1;
                opts.journal =
                    std::path::PathBuf::from(args.get(i).ok_or("--journal needs a path")?);
            }
            "--out" => {
                i += 1;
                opts.out = std::path::PathBuf::from(args.get(i).ok_or("--out needs a path")?);
            }
            other => return Err(format!("soak: unknown option `{other}`")),
        }
        i += 1;
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_parse_in_both_bases() {
        assert_eq!(parse_u64("42").unwrap(), 42);
        assert_eq!(parse_u64("0x2a").unwrap(), 42);
        assert!(parse_u64("nope").is_err());
    }

    fn argv(words: &str) -> Vec<String> {
        words.split_whitespace().map(str::to_string).collect()
    }

    /// Every `coordinate` flag set to a non-default value, then none: the
    /// option struct the flags fill, pinned field by field.
    #[test]
    fn coordinate_flags_fill_the_pinned_options() {
        let all = argv(
            "--addr 10.0.0.1:9 --queue-cap 7 --lease-ms 0x10 --heartbeat-ms 11 \
             --heartbeat-timeout-ms 12 --replicas 3 --probe-timeout-ms 13 \
             --session-inflight-cap 14 --journal j.bin --recover --rebalance-ms 15 \
             --journal-compact-bytes 16 --chaos-verbs",
        );
        assert_eq!(
            format!("{:?}", parse_coordinate_args(&all).unwrap()),
            r#"CoordinatorOptions { addr: "10.0.0.1:9", queue_cap: 7, lease_ms: 16, heartbeat_ms: 11, heartbeat_timeout_ms: 12, max_frame: 1048576, print_outcomes: true, replicas: 3, probe_timeout_ms: 13, session_inflight_cap: 14, journal: Some("j.bin"), recover: true, chaos_verbs: true, rebalance_ms: 15, journal_compact_bytes: 16 }"#
        );
        assert_eq!(
            format!("{:?}", parse_coordinate_args(&[]).unwrap()),
            r#"CoordinatorOptions { addr: "127.0.0.1:7177", queue_cap: 64, lease_ms: 60000, heartbeat_ms: 500, heartbeat_timeout_ms: 2000, max_frame: 1048576, print_outcomes: true, replicas: 2, probe_timeout_ms: 2000, session_inflight_cap: 1024, journal: None, recover: false, chaos_verbs: false, rebalance_ms: 0, journal_compact_bytes: 1048576 }"#
        );
    }

    #[test]
    fn loadgen_flags_fill_the_pinned_options() {
        let all = argv(
            "--addr 10.0.0.1:9 --submitters 7 --duration-ms 11 --think-ms 12 --distinct 3 \
             --sample-ms 13 --seed 0x2a --workloads mst,,mis --full --out o.json",
        );
        assert_eq!(
            format!("{:?}", parse_loadgen_args(&all).unwrap()),
            r#"LoadgenOptions { addr: "10.0.0.1:9", submitters: 7, duration_ms: 11, think_ms: 12, seed: 42, tiny: false, distinct: 3, sample_ms: 13, workloads: ["mst", "mis"], out: "o.json" }"#
        );
        assert_eq!(
            format!("{:?}", parse_loadgen_args(&[]).unwrap()),
            r#"LoadgenOptions { addr: "127.0.0.1:7177", submitters: 100, duration_ms: 5000, think_ms: 10, seed: 465725121536, tiny: true, distinct: 8, sample_ms: 500, workloads: ["bfs", "spmv", "2mm", "dwt"], out: "results/load/loadgen.json" }"#
        );
    }

    #[test]
    fn soak_flags_fill_the_pinned_options() {
        let all = argv(
            "--addr 10.0.0.1:9 --workers 5 --slots 2 --duration-ms 11 --chaos \
             --kill-coordinator-ms 12 --kill-worker-ms 13 --submitters 7 --think-ms 14 \
             --distinct 6 --workloads mst,,mis --seed 0x2a --replicas 3 --rebalance-ms 15 \
             --journal j.bin --out o.json",
        );
        assert_eq!(
            format!("{:?}", parse_soak_args(&all).unwrap()),
            r#"SoakOptions { addr: "10.0.0.1:9", gcl_bin: None, workers: 5, slots: 2, duration_ms: 11, chaos: true, kill_coordinator_ms: 12, kill_worker_ms: 13, submitters: 7, think_ms: 14, distinct: 6, workloads: ["mst", "mis"], seed: 42, replicas: 3, rebalance_ms: 15, journal: "j.bin", out: "o.json" }"#
        );
        assert_eq!(
            format!("{:?}", parse_soak_args(&[]).unwrap()),
            r#"SoakOptions { addr: "", gcl_bin: None, workers: 3, slots: 1, duration_ms: 20000, chaos: false, kill_coordinator_ms: 7000, kill_worker_ms: 3000, submitters: 4, think_ms: 25, distinct: 3, workloads: ["bfs", "spmv"], seed: 495789894400, replicas: 2, rebalance_ms: 250, journal: "results/soak/journal.bin", out: "results/soak/soak.json" }"#
        );
    }
}
