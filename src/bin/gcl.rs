//! `gcl` — command-line front end for the toolkit.
//!
//! Every subcommand's operand and flags are declared once, in [`COMMANDS`]:
//! parsing, the argument error messages and the synopsis are all generated
//! from that table by `gcl_exec::args`. `gcl --help` prints the command
//! reference; README's "Command reference" block is the same text.

use gcl::prelude::*;
use gcl::sim::Trace;
use gcl_core::{Classification, LoadClass};
use gcl_exec::args::{parse_u64, Args, Command, Flag};
use gcl_stats::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

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

/// A CLI failure: exit code plus message. A plain `String` error — every
/// usage error included — is code 1; `serve`/`coordinate` distinguish bind
/// failures ([`EXIT_BIND`]) from protocol errors ([`EXIT_NET`]).
struct CliError {
    code: u8,
    msg: String,
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError { code: 1, msg }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        msg.to_string().into()
    }
}

fn serve_exit(e: ServeError) -> CliError {
    let (code, msg) = match e {
        ServeError::Config(m) => (1, m),
        ServeError::Bind(m) => (EXIT_BIND, m),
        ServeError::Net(m) => (EXIT_NET, m),
    };
    CliError { code, msg }
}

static CLASSIFY: Command = Command {
    name: "classify",
    positional: Some("<kernel.ptx>"),
    flags: &[Flag::switch("--json")],
};
static ANALYZE: Command = Command {
    name: "analyze",
    positional: Some("<kernel.ptx|workload|all>"),
    flags: &[
        Flag::switch("--csv"),
        Flag::switch("--locality"),
        Flag::switch("--critical"),
        Flag::taking("--grid", "X[,Y[,Z]]"),
        Flag::taking("--block", "X[,Y[,Z]]"),
    ],
};
static DISASM: Command = Command {
    name: "disasm",
    positional: Some("<kernel.ptx>"),
    flags: &[],
};
static RUN: Command = Command {
    name: "run",
    positional: Some("<kernel.ptx>"),
    flags: &[
        Flag::taking("--grid", "G"),
        Flag::taking("--block", "B"),
        Flag::taking("--alloc", "BYTES"),
        Flag::taking("--param", "VALUE"),
        Flag::switch("--memcheck"),
        Flag::switch("--sanitize"),
        Flag::taking("--max-cycles", "N"),
        Flag::switch("--trace"),
        Flag::taking("--trace-cap", "N"),
        Flag::taking("--checkpoint-every", "N"),
        Flag::taking("--checkpoint-file", "PATH"),
        Flag::taking("--resume", "PATH"),
    ],
};
static TRACE: Command = Command {
    name: "trace",
    positional: Some("<workload|all>"),
    flags: &[
        Flag::switch("--tiny"),
        Flag::switch("--sanitize"),
        Flag::taking("--out", "DIR"),
    ],
};
static REPLAY: Command = Command {
    name: "replay",
    positional: Some("<workload|all>"),
    flags: &[
        Flag::switch("--tiny"),
        Flag::switch("--sanitize"),
        Flag::taking("--in", "DIR"),
        Flag::switch("--verify"),
    ],
};
static SUITE: Command = Command {
    name: "suite",
    positional: None,
    flags: &[
        Flag::switch("--tiny"),
        Flag::switch("--sanitize"),
        Flag::switch("--analyze"),
        Flag::taking("--force-fail", "NAME"),
        Flag::switch("--resume"),
        Flag::taking("--retries", "N"),
        Flag::taking("--jobs", "N"),
        Flag::switch("--no-cache"),
        Flag::switch("--replay"),
        Flag::taking("--traces", "DIR"),
        Flag::taking("--fleet", "HOST:PORT"),
    ],
};
static FIGURES: Command = Command {
    name: "figures",
    positional: Some("<id|all>"),
    flags: &[Flag::switch("--tiny"), Flag::taking("--jobs", "N")],
};
static SERVE: Command = Command {
    name: "serve",
    positional: None,
    flags: &[
        Flag::taking("--addr", "HOST:PORT"),
        Flag::taking("--jobs", "N"),
        Flag::taking("--queue-cap", "N"),
        Flag::switch("--no-cache"),
        Flag::taking("--join", "HOST:PORT"),
        Flag::taking("--name", "NAME"),
        Flag::taking("--inject", "SPEC"),
        Flag::taking("--connect-retries", "N"),
        Flag::switch("--rejoin"),
    ],
};
static COORDINATE: Command = Command {
    name: "coordinate",
    positional: None,
    flags: &[
        Flag::taking("--addr", "HOST:PORT"),
        Flag::taking("--queue-cap", "N"),
        Flag::taking("--lease-ms", "N"),
        Flag::taking("--heartbeat-ms", "N"),
        Flag::taking("--heartbeat-timeout-ms", "N"),
        Flag::taking("--session-inflight-cap", "N"),
        Flag::taking("--journal", "PATH"),
        Flag::switch("--recover"),
        Flag::taking("--journal-compact-bytes", "N"),
        Flag::switch("--chaos-verbs"),
    ],
};
static LOADGEN: Command = Command {
    name: "loadgen",
    positional: None,
    flags: &[
        Flag::taking("--addr", "HOST:PORT"),
        Flag::taking("--submitters", "N"),
        Flag::taking("--duration-ms", "N"),
        Flag::taking("--think-ms", "N"),
        Flag::taking("--distinct", "N"),
        Flag::taking("--sample-ms", "N"),
        Flag::taking("--seed", "N"),
        Flag::taking("--workloads", "A,B,..."),
        Flag::switch("--full"),
        Flag::taking("--out", "PATH"),
    ],
};
static SOAK: Command = Command {
    name: "soak",
    positional: None,
    flags: &[
        Flag::taking("--addr", "HOST:PORT"),
        Flag::taking("--workers", "N"),
        Flag::taking("--slots", "N"),
        Flag::taking("--duration-ms", "N"),
        Flag::switch("--chaos"),
        Flag::taking("--kill-coordinator-ms", "N"),
        Flag::taking("--kill-worker-ms", "N"),
        Flag::taking("--submitters", "N"),
        Flag::taking("--think-ms", "N"),
        Flag::taking("--distinct", "N"),
        Flag::taking("--workloads", "A,B,..."),
        Flag::taking("--seed", "N"),
        Flag::taking("--journal", "PATH"),
        Flag::taking("--out", "PATH"),
    ],
};

/// Runs one subcommand on the words after its name.
type Handler = fn(&[String]) -> Result<(), CliError>;

/// Every subcommand: its argument table and the function that runs it.
/// `main` dispatches through this list and [`usage`] prints it.
const COMMANDS: &[(&Command, Handler)] = &[
    (&CLASSIFY, cmd_classify),
    (&ANALYZE, cmd_analyze),
    (&DISASM, cmd_disasm),
    (&RUN, cmd_run),
    (&TRACE, cmd_trace),
    (&REPLAY, cmd_replay),
    (&SUITE, cmd_suite),
    (&FIGURES, cmd_figures),
    (&SERVE, cmd_serve),
    (&COORDINATE, cmd_coordinate),
    (&LOADGEN, cmd_loadgen),
    (&SOAK, cmd_soak),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--help" | "-h" | "help") | None => {
            eprint!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(name) => match COMMANDS.iter().find(|(cmd, _)| cmd.name == name) {
            Some((_, run)) => run(&argv[1..]),
            None => Err(format!("unknown command `{name}`\n{}", usage()).into()),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

/// The help text: one generated synopsis per [`COMMANDS`] entry, then
/// [`USAGE_PROSE`].
fn usage() -> String {
    let mut text = "gcl — GPU critical-load classification and simulation\n\nUSAGE:\n".to_string();
    for (cmd, _) in COMMANDS {
        for (i, line) in cmd.synopsis().lines().enumerate() {
            text += if i == 0 { "  gcl " } else { "      " };
            text += line;
            text.push('\n');
        }
    }
    text + USAGE_PROSE
}

const USAGE_PROSE: &str = "
Flags and the operand may come in any order; integers are decimal or 0x
hex; a repeated flag's last value wins, except `run`'s --alloc / --param,
which fill the kernel's parameters left to right.

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
--block (default 4x1x1 CTAs of 64x1x1 threads; a usage error without
--locality). --critical ranks each
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
workload: same per-launch event digests, cycle counts and statistics;
--verify re-runs each workload execution-driven and fails if replay and
execution disagree anywhere.
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
`figures` regenerates the paper's evaluation: `table1`, `fig1` … `fig12`,
`critical_loads` (of `bfs`, or `critical_loads:WORKLOAD`), `summary`, the
Section X ablations `ablation_cta_sched`, `ablation_semiglobal_l2`,
`ablation_warp_split`, `ablation_prefetch`, or `all` of them. It simulates
each workload once on each machine the requested artifacts read — the
Fermi baseline, plus one variant per ablation column; 7 machines for `all`
— prints every artifact and writes its JSON to results/<id>.json. --jobs N
fans the sweep out over N threads without changing a byte. A run that
fails is left out of the artifacts, which are still written, and the
command then exits nonzero naming it.
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
serial run. A finished result lives in the coordinator's job table (made
durable by --journal, below) and in the result cache of the worker that
ran it: a resubmit of its spec joins the finished job, whichever workers
have died since. `suite --fleet COORD:PORT` runs the
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
closed-loop submitters (each thinks with seeded jitter, cut short when
the run ends, submits once and waits for its job) and writes a periodic
JSON time series — p50/p99 submit latency, queue depth, cache-hit rate,
shed and error counts — under results/load/. Sheds are data, not
failures: an overloaded coordinator answers structured
{\"ok\":false,\"shed\":true} responses (per-session inflight cap, queue
cap) instead of stalling. Every failed dial, submit or poll is counted
as an error, never retried away. Both commands check --workloads names
before they send or spawn anything.
`coordinate --journal PATH` appends every job-table transition and session
attach/detach to a checksummed write-ahead journal (fsync-batched, compacted into a snapshot record once it outgrows
--journal-compact-bytes); `--recover` replays the journal on startup —
tolerating a torn tail by truncating to the last valid record — then
reconciles with re-joining workers, which re-announce held leases so
in-flight work resumes instead of re-running. Without a journal a
restarted coordinator has forgotten its finished jobs and dispatches their
resubmits again (a cache hit on the worker that ran them).
`serve --join --rejoin` makes a worker redial and re-join after losing
its coordinator instead of exiting.
The destructive chaos verb (decommission) is refused unless the
coordinator runs with --chaos-verbs.
`soak` is the long-haul proof: it spawns a journaled coordinator and N
rejoin-capable workers as child processes, drives them with loadgen's
closed loop, and with --chaos runs a seeded schedule that kill -9s workers
and the coordinator itself (respawned with --recover) mid-sweep; it then
audits that every acknowledged job reached `done` and that every result is
byte-identical to a serial run, and reports how many submits were served
by a simulation and how many by joining an existing job, writing a JSON
report under results/soak/. A window that acked nothing audited nothing
and exits 1.
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

fn cmd_classify(args: &[String]) -> Result<(), CliError> {
    let a = CLASSIFY.parse(args)?;
    let json = a.has("--json");
    let kernels = load_module(a.required()?)?;
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
        out[i] = u32::try_from(parse_u64(p)?)
            .ok()
            .filter(|&v| v >= 1)
            .ok_or_else(|| format!("bad dimension `{s}` (components must be 1..=4294967295)"))?;
    }
    Ok(out)
}

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let a = ANALYZE.parse(args)?;
    let csv = a.has("--csv");
    let locality = a.has("--locality");
    if !locality && (a.has("--grid") || a.has("--block")) {
        return Err("--grid and --block only apply with --locality".into());
    }
    // The locality analysis needs a launch geometry; default to a small
    // multi-CTA launch so inter-CTA sharing is observable.
    let block = a.value("--block").map_or(Ok([64, 1, 1]), parse_dim3)?;
    let grid = a.value("--grid").map_or(Ok([4, 1, 1]), parse_dim3)?;
    let opts = AnalyzeOptions {
        locality: locality.then(|| LaunchCtx::new(block, grid)),
        critical: a.has("--critical"),
    };
    let kernels = analyze_targets(a.required()?)?;
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
        )
        .into())
    } else {
        Ok(())
    }
}

fn cmd_disasm(args: &[String]) -> Result<(), CliError> {
    let a = DISASM.parse(args)?;
    for kernel in load_module(a.required()?)? {
        print!("{kernel}");
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let a = RUN.parse(args)?;
    let kernel = load_kernel(a.required()?)?;
    let grid = a.int("--grid")?.unwrap_or(1);
    let block = a.int("--block")?.unwrap_or(32);
    let mut cfg = GpuConfig::fermi();
    cfg.memcheck = a.has("--memcheck");
    cfg.sanitize = a.has("--sanitize");
    a.set("--max-cycles", &mut cfg.max_cycles)?;
    // --trace-cap implies --trace.
    let trace_cap = match a.int::<usize>("--trace-cap")? {
        Some(0) => return Err("--trace-cap must be at least 1".into()),
        Some(cap) => Some(cap),
        None => a.has("--trace").then_some(65_536),
    };
    let ckpt_every = a.int::<u64>("--checkpoint-every")?;
    if ckpt_every == Some(0) {
        return Err("--checkpoint-every must be at least 1".into());
    }
    let ckpt_file = a.value("--checkpoint-file");
    let resume = a.value("--resume");
    if ckpt_every.is_some() && ckpt_file.is_none() {
        return Err("--checkpoint-every requires --checkpoint-file".into());
    }
    let launch_flags = ["--grid", "--block", "--alloc", "--param"];
    if resume.is_some() && launch_flags.iter().any(|f| a.has(f)) {
        return Err(
            "--resume restores the checkpoint's own grid, block, memory and parameters; \
             it cannot be combined with --grid/--block/--alloc/--param"
                .into(),
        );
    }
    let mut gpu = Gpu::new(cfg).map_err(|e| e.to_string())?;
    let trace = trace_cap.map(|cap| (cap, Arc::new(Mutex::new(Trace::new(cap)))));
    if let Some((_, t)) = &trace {
        gpu.set_trace_sink(Some(Box::new(Arc::clone(t))));
    }
    match resume {
        Some(ckpt) => {
            let snap = Snapshot::read_file(ckpt).map_err(|e| e.to_string())?;
            gpu.restore(&snap).map_err(|e| e.to_string())?;
            if !gpu.launch_active() {
                return Err(format!(
                    "`{ckpt}` is an idle snapshot: there is no interrupted launch to resume"
                )
                .into());
            }
            eprintln!(
                "(resuming `{}` at cycle {} from {ckpt})",
                gpu.launch_kernel_name().unwrap_or("?"),
                gpu.launch_cycle().unwrap_or(0),
            );
        }
        None => {
            // Each --alloc is a zeroed device buffer whose address is the
            // next parameter, each --param a raw integer, left to right.
            let mut params: Vec<u64> = Vec::new();
            for (flag, value) in a.in_order(&["--alloc", "--param"]) {
                let value = parse_u64(value).map_err(|e| format!("{flag}: {e}"))?;
                params.push(match flag {
                    "--alloc" => gpu.mem().alloc(value, 128).map_err(|e| e.to_string())?,
                    _ => value,
                });
            }
            if params.len() != kernel.params().len() {
                return Err(format!(
                    "kernel `{}` takes {} parameters; {} provided (use --alloc/--param)",
                    kernel.name(),
                    kernel.params().len(),
                    params.len()
                )
                .into());
            }
            let packed = pack_params(&kernel, &params);
            gpu.launch_begin(&kernel, Dim3::x(grid), Dim3::x(block), &packed)
                .map_err(|e| e.to_string())?;
        }
    }
    let stats = drive_launch(&mut gpu, &kernel, ckpt_every.unwrap_or(0), ckpt_file)?;
    if resume.is_some() {
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
    if let Some((cap, t)) = &trace {
        let events = t.lock().expect("trace lock poisoned").events().len();
        println!("trace events       {events}");
        if stats.trace_dropped > 0 {
            eprintln!(
                "warning: debug trace dropped {} event(s) past the {cap}-event buffer \
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
        // Write-then-rename: a suite killed mid-save never leaves a torn
        // manifest under the final name.
        gcl::mem::publish(path, self.to_json().render_pretty().as_bytes(), false)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
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

fn cmd_suite(args: &[String]) -> Result<(), CliError> {
    let a = SUITE.parse(args)?;
    let (tiny, sanitize) = (a.has("--tiny"), a.has("--sanitize"));
    let (resume, replay) = (a.has("--resume"), a.has("--replay"));
    let no_cache = a.has("--no-cache");
    let force_fail = a.value("--force-fail");
    let retries = a.int("--retries")?.unwrap_or(0);
    let jobs = jobs_flag(&a)?;
    let fleet = a.value("--fleet");
    let traces_dir = a.value("--traces");
    if fleet.is_some()
        && (a.has("--jobs") || a.has("--retries") || force_fail.is_some() || no_cache)
    {
        return Err(
            "--fleet sends the suite to a coordinator; --jobs, --retries, --force-fail and \
             --no-cache configure local execution and cannot be combined with it"
                .into(),
        );
    }
    if traces_dir.is_some() && !replay {
        return Err("--traces only applies with --replay".into());
    }
    if replay && fleet.is_some() {
        return Err(
            "--replay sources results from local trace containers; a fleet worker's trace \
             store is its own configuration (cannot be combined with --fleet)"
                .into(),
        );
    }
    if replay && force_fail.is_some() {
        return Err(
            "--force-fail starves a benchmark's cycle budget, which changes its configuration \
             fingerprint — no captured trace can match it (cannot be combined with --replay)"
                .into(),
        );
    }
    let workloads = if tiny {
        gcl::workloads::tiny_workloads()
    } else {
        gcl::workloads::all_workloads()
    };
    if let Some(name) = force_fail {
        if !workloads.iter().any(|w| w.name() == name) {
            return Err(format!("--force-fail: no benchmark named `{name}`").into());
        }
    }
    if a.has("--analyze") {
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
            )
            .into());
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
        if force_fail == Some(w.name()) {
            // Starve the cycle budget so this benchmark times out: exercises
            // the fail-soft path without corrupting any input.
            cfg.max_cycles = 50;
        }
        cfg.sanitize = sanitize;
        spec_wi.push(wi);
        specs.push(JobSpec::new(w.name(), tiny, cfg));
    }

    let results = if let Some(addr) = fleet {
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
            traces: replay
                .then(|| traces_dir.map_or_else(TraceStore::default_dir, TraceStore::new)),
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
            return Err(e.into());
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
    let mut ran = spec_wi.iter().zip(&results).peekable();
    for (wi, w) in workloads.iter().enumerate() {
        let Some((_, result)) = ran.next_if(|(&i, _)| i == wi) else {
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
        };
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
        )
        .into())
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

/// `--jobs N` of `suite` and `figures`: worker threads, 1 unless given.
fn jobs_flag(a: &Args) -> Result<usize, String> {
    match a.int("--jobs")?.unwrap_or(1) {
        0 => Err("--jobs must be at least 1".into()),
        jobs => Ok(jobs),
    }
}

fn cmd_figures(args: &[String]) -> Result<(), CliError> {
    let a = FIGURES.parse(args)?;
    let jobs = jobs_flag(&a)?;
    Ok(gcl_figures::driver::run(
        a.required()?,
        a.has("--tiny"),
        jobs,
    )?)
}

/// Shared reads of `gcl trace` / `gcl replay`: the job specs of the target
/// workload(s) at the chosen scale, and the trace store under `dir_flag`'s
/// directory (default [`TraceStore::default_dir`]).
fn parse_trace_args(a: &Args, dir_flag: &str) -> Result<(Vec<JobSpec>, TraceStore), String> {
    let cmd = a.command();
    let target = a.required()?;
    let (tiny, sanitize) = (a.has("--tiny"), a.has("--sanitize"));
    let workloads = if tiny {
        gcl::workloads::tiny_workloads()
    } else {
        gcl::workloads::all_workloads()
    };
    let selected: Vec<String> = if target == "all" {
        workloads.iter().map(|w| w.name().to_string()).collect()
    } else if workloads.iter().any(|w| w.name() == target) {
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
    let dir = a.value(dir_flag);
    let store = dir.map_or_else(TraceStore::default_dir, TraceStore::new);
    Ok((specs, store))
}

/// Map a trace-layer job failure onto the exit-code contract: unreadable
/// container → 2, version/fingerprint mismatch → 3 (including a replay the
/// simulator itself rejects), anything else → 1.
fn trace_exit(e: ExecError) -> CliError {
    let code = match e {
        ExecError::TraceUnreadable { .. } => EXIT_TRACE_UNREADABLE,
        ExecError::TraceMismatch { .. } | ExecError::Sim(SimError::Replay(_)) => {
            EXIT_TRACE_MISMATCH
        }
        _ => 1,
    };
    CliError {
        code,
        msg: e.to_string(),
    }
}

fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let (specs, store) = parse_trace_args(&TRACE.parse(args)?, "--out")?;
    println!(
        "{:6} {:>9} {:>9} {:>11} {:>9}  container",
        "name", "launches", "records", "bytes", "wall ms"
    );
    for spec in &specs {
        let t0 = std::time::Instant::now();
        let (stats, summary) = store.capture(spec).map_err(trace_exit)?;
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
    let a = REPLAY.parse(args)?;
    let (specs, store) = parse_trace_args(&a, "--in")?;
    let verify = a.has("--verify");
    println!(
        "{:6} {:>9} {:>11} {:>9}  outcome",
        "name", "cycles", "warp insts", "wall ms"
    );
    let mut mismatches: Vec<String> = Vec::new();
    for spec in &specs {
        let t0 = std::time::Instant::now();
        let stats = store.replay(spec).map_err(trace_exit)?;
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let digest = match stats.digest {
            Some(d) => format!("  digest 0x{d:016x}"),
            None => String::new(),
        };
        let verified = if verify {
            // Execution-driven reference: the workload simulated afresh
            // under the identical configuration must agree with the replay
            // in full — digest, cycles, every counter.
            let w = spec.find_workload().map_err(trace_exit)?;
            let run = Gpu::new(spec.cfg.clone())
                .and_then(|mut gpu| w.run(&mut gpu))
                .map_err(|e| e.to_string())?;
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
        Err(mismatches.join("\n").into())
    }
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let a = SERVE.parse(args)?;
    let mut opts = ServeOptions::default();
    a.set_str("--addr", &mut opts.addr);
    a.set("--jobs", &mut opts.jobs)?;
    a.set("--queue-cap", &mut opts.queue_cap)?;
    let cache = (!a.has("--no-cache")).then(ResultCache::default_dir);
    let inject = FleetInject::parse(a.value("--inject").unwrap_or(""))?;
    if let Some(coord) = a.value("--join") {
        // Fleet worker: dial the coordinator instead of binding a port.
        if a.has("--addr") || a.has("--queue-cap") {
            return Err(
                "--join makes this a fleet worker; --addr and --queue-cap belong to the \
                 coordinator"
                    .into(),
            );
        }
        let mut worker_opts = WorkerOptions {
            coord: coord.to_string(),
            name: match a.value("--name") {
                Some(name) => name.to_string(),
                None => format!("worker-{}", std::process::id()),
            },
            slots: opts.jobs.max(1),
            cache,
            inject,
            rejoin: a.has("--rejoin"),
            ..WorkerOptions::default()
        };
        a.set("--connect-retries", &mut worker_opts.connect_retries)?;
        let label = worker_opts.name.clone();
        eprintln!(
            "gcl serve: joining fleet at {} as `{label}` ({} slot(s))",
            worker_opts.coord, worker_opts.slots
        );
        // A worker that cannot reach its coordinator is the dial-side
        // analogue of a bind failure; everything after the handshake is a
        // protocol error.
        let report = run_worker(worker_opts).map_err(|msg| {
            let unreachable = msg.contains("cannot reach coordinator");
            let code = if unreachable { EXIT_BIND } else { EXIT_NET };
            CliError { code, msg }
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
    if a.has("--name") || !inject.is_clean() {
        return Err("--name and --inject only apply to fleet workers (--join)".into());
    }
    if a.has("--connect-retries") {
        return Err("--connect-retries only applies to fleet workers (--join)".into());
    }
    if a.has("--rejoin") {
        return Err("--rejoin only applies to fleet workers (--join)".into());
    }
    opts.cache = cache;
    let (jobs, queue_cap) = (opts.jobs, opts.queue_cap);
    let server = Server::bind(opts).map_err(serve_exit)?;
    eprintln!(
        "gcl serve: listening on {} ({jobs} worker(s), queue cap {queue_cap})",
        server.addr().map_err(serve_exit)?
    );
    server.run().map_err(serve_exit)
}

fn cmd_coordinate(args: &[String]) -> Result<(), CliError> {
    let opts = parse_coordinate_args(args)?;
    let summary = format!(
        "queue cap {}, lease {} ms, heartbeat {} ms (timeout {} ms), \
         session inflight cap {}{}",
        opts.queue_cap,
        opts.lease_ms,
        opts.heartbeat_ms,
        opts.heartbeat_timeout_ms,
        opts.session_inflight_cap,
        match &opts.journal {
            Some(p) => format!(
                ", journal {}{}",
                p.display(),
                if opts.recover { " (recover)" } else { "" }
            ),
            None => String::new(),
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
    let a = COORDINATE.parse(args)?;
    let mut opts = CoordinatorOptions::default();
    a.set_str("--addr", &mut opts.addr);
    a.set("--queue-cap", &mut opts.queue_cap)?;
    a.set("--lease-ms", &mut opts.lease_ms)?;
    a.set("--heartbeat-ms", &mut opts.heartbeat_ms)?;
    a.set("--heartbeat-timeout-ms", &mut opts.heartbeat_timeout_ms)?;
    a.set("--session-inflight-cap", &mut opts.session_inflight_cap)?;
    opts.journal = a.value("--journal").map(PathBuf::from);
    opts.recover = a.has("--recover");
    a.set("--journal-compact-bytes", &mut opts.journal_compact_bytes)?;
    opts.chaos_verbs = a.has("--chaos-verbs");
    Ok(opts)
}

fn cmd_loadgen(args: &[String]) -> Result<(), CliError> {
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

/// A `--workloads A,B,...` value as names; empty items are skipped.
fn comma_list(list: &str) -> Vec<String> {
    let items = list.split(',').filter(|w| !w.is_empty());
    items.map(str::to_string).collect()
}

fn parse_loadgen_args(args: &[String]) -> Result<LoadgenOptions, String> {
    let a = LOADGEN.parse(args)?;
    let mut opts = LoadgenOptions::default();
    a.set_str("--addr", &mut opts.addr);
    a.set("--submitters", &mut opts.submitters)?;
    a.set("--duration-ms", &mut opts.duration_ms)?;
    a.set("--think-ms", &mut opts.think_ms)?;
    a.set("--distinct", &mut opts.distinct)?;
    a.set("--sample-ms", &mut opts.sample_ms)?;
    a.set("--seed", &mut opts.seed)?;
    if let Some(list) = a.value("--workloads") {
        opts.workloads = comma_list(list);
    }
    opts.tiny = !a.has("--full");
    a.set_str("--out", &mut opts.out);
    Ok(opts)
}

fn cmd_soak(args: &[String]) -> Result<(), CliError> {
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
        "soak: {} coordinator kill(s), {} worker kill(s) survived; {} lease(s) resumed",
        report.coordinator_kills, report.worker_kills, report.resumed
    );
    println!(
        "soak: served by {} sim(s) + {} dedup hit(s); report written to {}",
        report.sims,
        report.dedup_hits,
        opts.out.display()
    );
    Ok(())
}

fn parse_soak_args(args: &[String]) -> Result<SoakOptions, String> {
    let a = SOAK.parse(args)?;
    let mut opts = SoakOptions::default();
    a.set_str("--addr", &mut opts.addr);
    a.set("--workers", &mut opts.workers)?;
    a.set("--slots", &mut opts.slots)?;
    a.set("--duration-ms", &mut opts.duration_ms)?;
    opts.chaos = a.has("--chaos");
    a.set("--kill-coordinator-ms", &mut opts.kill_coordinator_ms)?;
    a.set("--kill-worker-ms", &mut opts.kill_worker_ms)?;
    a.set("--submitters", &mut opts.submitters)?;
    a.set("--think-ms", &mut opts.think_ms)?;
    a.set("--distinct", &mut opts.distinct)?;
    if let Some(list) = a.value("--workloads") {
        opts.workloads = comma_list(list);
    }
    a.set("--seed", &mut opts.seed)?;
    a.set_str("--journal", &mut opts.journal);
    a.set_str("--out", &mut opts.out);
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
             --heartbeat-timeout-ms 12 \
             --session-inflight-cap 14 --journal j.bin --recover \
             --journal-compact-bytes 16 --chaos-verbs",
        );
        assert_eq!(
            format!("{:?}", parse_coordinate_args(&all).unwrap()),
            r#"CoordinatorOptions { addr: "10.0.0.1:9", queue_cap: 7, lease_ms: 16, heartbeat_ms: 11, heartbeat_timeout_ms: 12, max_frame: 1048576, print_outcomes: true, session_inflight_cap: 14, journal: Some("j.bin"), recover: true, chaos_verbs: true, journal_compact_bytes: 16 }"#
        );
        assert_eq!(
            format!("{:?}", parse_coordinate_args(&[]).unwrap()),
            r#"CoordinatorOptions { addr: "127.0.0.1:7177", queue_cap: 64, lease_ms: 60000, heartbeat_ms: 500, heartbeat_timeout_ms: 2000, max_frame: 1048576, print_outcomes: true, session_inflight_cap: 1024, journal: None, recover: false, chaos_verbs: false, journal_compact_bytes: 1048576 }"#
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
             --distinct 6 --workloads mst,,mis --seed 0x2a \
             --journal j.bin --out o.json",
        );
        assert_eq!(
            format!("{:?}", parse_soak_args(&all).unwrap()),
            r#"SoakOptions { addr: "10.0.0.1:9", gcl_bin: None, workers: 5, slots: 2, duration_ms: 11, chaos: true, kill_coordinator_ms: 12, kill_worker_ms: 13, submitters: 7, think_ms: 14, distinct: 6, workloads: ["mst", "mis"], seed: 42, journal: "j.bin", out: "o.json" }"#
        );
        assert_eq!(
            format!("{:?}", parse_soak_args(&[]).unwrap()),
            r#"SoakOptions { addr: "", gcl_bin: None, workers: 3, slots: 1, duration_ms: 20000, chaos: false, kill_coordinator_ms: 7000, kill_worker_ms: 3000, submitters: 4, think_ms: 25, distinct: 3, workloads: ["bfs", "spmv"], seed: 495789894400, journal: "results/soak/journal.bin", out: "results/soak/soak.json" }"#
        );
    }
}
