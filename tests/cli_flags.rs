//! The flag surface of `gcl`, pinned from `gcl --help`: every command's set
//! of `--flag` tokens and which of them take a value. The synopsis may be
//! re-wrapped or re-ordered freely; it may not lose, invent or re-type a
//! flag. Metavar spellings are not pinned, only their presence.

use std::collections::BTreeMap;
use std::process::Command;

/// `gcl --help`, as printed (usage goes to stderr, exit 0).
fn help() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gcl"))
        .arg("--help")
        .output()
        .expect("run gcl binary");
    assert!(out.status.success(), "--help exits 0");
    String::from_utf8(out.stderr).expect("utf8 usage")
}

/// The lines between `USAGE:` and the first blank line after it.
fn usage_block(help: &str) -> Vec<&str> {
    help.lines()
        .skip_while(|l| l.trim() != "USAGE:")
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .collect()
}

/// Every `--flag` token of `text` with whether a metavar follows it: the
/// name is the run of lowercase letters and dashes after `--`; it takes a
/// value when a space and then anything but another flag, `|` or `[`
/// follows (`[--json]` is a switch, `[--grid X[,Y[,Z]]]` and `--grid G
/// --block B` take values).
fn flags_of(text: &str) -> Vec<(String, bool)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < bytes.len() {
        if &bytes[i..i + 2] != b"--" || !bytes[i + 2].is_ascii_lowercase() {
            i += 1;
            continue;
        }
        let end = (i + 2..bytes.len())
            .find(|&j| !(bytes[j].is_ascii_lowercase() || bytes[j] == b'-'))
            .unwrap_or(bytes.len());
        let valued = bytes.get(end) == Some(&b' ')
            && bytes
                .get(end + 1)
                .is_some_and(|c| !matches!(c, b'-' | b'|' | b'[' | b' '));
        out.push((text[i..end].to_string(), valued));
        i = end;
    }
    out
}

/// Split the usage block by command (`  gcl NAME ...` starts one, deeper
/// indented lines continue it) into `NAME -> {flag -> takes a value}`.
fn surface(help: &str) -> BTreeMap<String, BTreeMap<String, bool>> {
    let mut out: BTreeMap<String, BTreeMap<String, bool>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in usage_block(help) {
        if let Some(rest) = line.strip_prefix("  gcl ") {
            let name = rest.split_whitespace().next().expect("command name");
            assert!(
                out.insert(name.to_string(), BTreeMap::new()).is_none(),
                "`{name}` listed twice"
            );
            current = Some(name.to_string());
        }
        let cmd = current.as_ref().expect("usage block starts with a command");
        for (flag, valued) in flags_of(line) {
            let seen = out.get_mut(cmd).expect("current command");
            if let Some(before) = seen.insert(flag.clone(), valued) {
                assert_eq!(
                    before, valued,
                    "{cmd} {flag}: listed as switch and as value"
                );
            }
        }
    }
    out
}

/// Written from `gcl --help` at the commit before the flag table existed:
/// `+` marks a flag that takes a value.
const SURFACE: &[(&str, &[&str])] = &[
    ("classify", &["--json"]),
    (
        "analyze",
        &["--csv", "--locality", "--critical", "--grid+", "--block+"],
    ),
    ("disasm", &[]),
    (
        "run",
        &[
            "--grid+",
            "--block+",
            "--alloc+",
            "--param+",
            "--memcheck",
            "--sanitize",
            "--max-cycles+",
            "--trace",
            "--trace-cap+",
            "--checkpoint-every+",
            "--checkpoint-file+",
            "--resume+",
        ],
    ),
    ("trace", &["--tiny", "--sanitize", "--out+"]),
    ("replay", &["--tiny", "--sanitize", "--in+", "--verify"]),
    (
        "suite",
        &[
            "--tiny",
            "--sanitize",
            "--analyze",
            "--force-fail+",
            "--resume",
            "--retries+",
            "--jobs+",
            "--no-cache",
            "--replay",
            "--traces+",
            "--fleet+",
        ],
    ),
    ("figures", &["--tiny", "--jobs+"]),
    (
        "serve",
        &[
            "--addr+",
            "--jobs+",
            "--queue-cap+",
            "--no-cache",
            "--join+",
            "--name+",
            "--inject+",
            "--connect-retries+",
            "--rejoin",
        ],
    ),
    (
        "coordinate",
        &[
            "--addr+",
            "--queue-cap+",
            "--lease-ms+",
            "--heartbeat-ms+",
            "--heartbeat-timeout-ms+",
            "--session-inflight-cap+",
            "--journal+",
            "--recover",
            "--journal-compact-bytes+",
            "--chaos-verbs",
        ],
    ),
    (
        "loadgen",
        &[
            "--addr+",
            "--submitters+",
            "--duration-ms+",
            "--think-ms+",
            "--distinct+",
            "--sample-ms+",
            "--seed+",
            "--workloads+",
            "--full",
            "--out+",
        ],
    ),
    (
        "soak",
        &[
            "--addr+",
            "--workers+",
            "--slots+",
            "--duration-ms+",
            "--chaos",
            "--kill-coordinator-ms+",
            "--kill-worker-ms+",
            "--submitters+",
            "--think-ms+",
            "--distinct+",
            "--workloads+",
            "--seed+",
            "--journal+",
            "--out+",
        ],
    ),
];

#[test]
fn help_lists_exactly_the_pinned_flags() {
    let expected: BTreeMap<String, BTreeMap<String, bool>> = SURFACE
        .iter()
        .map(|(cmd, flags)| {
            let flags = flags
                .iter()
                .map(|f| match f.strip_suffix('+') {
                    Some(name) => (name.to_string(), true),
                    None => (f.to_string(), false),
                })
                .collect();
            (cmd.to_string(), flags)
        })
        .collect();
    let pairs: usize = expected.values().map(BTreeMap::len).sum();
    assert_eq!(
        pairs, 81,
        "the pin itself covers every (command, flag) pair"
    );
    let actual = surface(&help());
    for (cmd, flags) in &expected {
        assert_eq!(
            actual.get(cmd),
            Some(flags),
            "`gcl {cmd}` flags moved (true = takes a value)"
        );
    }
    assert_eq!(
        actual.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>(),
        "the set of commands moved"
    );
}

#[test]
fn the_tokenizer_tells_switches_from_values() {
    assert_eq!(
        flags_of("[--json] [--grid X[,Y[,Z]]] --block B [--alloc BYTES | --param VALUE]..."),
        vec![
            ("--json".to_string(), false),
            ("--grid".to_string(), true),
            ("--block".to_string(), true),
            ("--alloc".to_string(), true),
            ("--param".to_string(), true),
        ]
    );
    assert_eq!(
        flags_of("[--checkpoint-every N --checkpoint-file PATH] [--rejoin]"),
        vec![
            ("--checkpoint-every".to_string(), true),
            ("--checkpoint-file".to_string(), true),
            ("--rejoin".to_string(), false),
        ]
    );
}

/// README's "Command reference" block is the generated synopsis, verbatim:
/// regenerate it with `gcl --help` when a flag is added.
#[test]
fn readme_command_reference_is_the_generated_synopsis() {
    let readme = include_str!("../README.md");
    let block: Vec<&str> = readme
        .lines()
        .skip_while(|l| l.trim() != "## Command reference")
        .skip_while(|l| !l.starts_with("```"))
        .skip(1)
        .take_while(|l| !l.starts_with("```"))
        .collect();
    assert!(!block.is_empty(), "README has a fenced command reference");
    assert_eq!(block, usage_block(&help()), "README drifted from --help");
}
