//! The one command-line parser. A [`Command`] declares its flags as data,
//! [`Command::parse`] checks an argv against that table and [`Args`] hands
//! the values back typed, so every `unknown option`, `needs a value` and
//! `bad integer` message is built here, and the usage synopsis is generated
//! from the table the parser reads. Every `gcl` subcommand parses through
//! it.
//!
//! The accepted shape is deliberately small — `--flag`, `--flag VALUE`, at
//! most one positional anywhere among them; no `--flag=value`, no short
//! flags, no abbreviations — because no script, test or CI step uses more.

/// One `--flag` of a [`Command`].
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed, dashes included.
    pub name: &'static str,
    /// `None` for a switch; `Some(METAVAR)` when exactly one value follows.
    pub value: Option<&'static str>,
}

impl Flag {
    /// A flag that is present or absent.
    pub const fn switch(name: &'static str) -> Flag {
        Flag { name, value: None }
    }

    /// A flag followed by one value, shown as `metavar` in the synopsis.
    pub const fn taking(name: &'static str, metavar: &'static str) -> Flag {
        let value = Some(metavar);
        Flag { name, value }
    }
}

/// A command's whole argument surface.
#[derive(Debug)]
pub struct Command {
    /// What the messages and the synopsis call the command.
    pub name: &'static str,
    /// The positional operand as the synopsis shows it (`<kernel.ptx>`),
    /// or `None` when the command takes none.
    pub positional: Option<&'static str>,
    /// Every flag the command accepts.
    pub flags: &'static [Flag],
}

/// Column at which [`Command::synopsis`] wraps.
const SYNOPSIS_WIDTH: usize = 72;

impl Command {
    /// Check `argv` (the words after the command name) against the table.
    /// The positional may stand anywhere among the flags, and a repeated
    /// flag keeps every occurrence. Fails on the first unknown flag, second
    /// or unaccepted positional, or flag whose value is missing — absent,
    /// or itself a `--flag`.
    pub fn parse<'a>(&'a self, argv: &'a [String]) -> Result<Args<'a>, String> {
        let mut args = Args {
            cmd: self,
            positional: None,
            given: Vec::new(),
        };
        let mut words = argv.iter().map(String::as_str);
        while let Some(word) = words.next() {
            if !word.starts_with('-') {
                if self.positional.is_none() || args.positional.is_some() {
                    return Err(format!("{}: unexpected argument `{word}`", self.name));
                }
                args.positional = Some(word);
                continue;
            }
            let known = self.flags.iter().find(|f| f.name == word);
            let flag = known.ok_or_else(|| format!("{}: unknown option `{word}`", self.name))?;
            let value = match flag.value {
                None => "",
                Some(metavar) => words
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{} needs a value ({metavar})", flag.name))?,
            };
            args.given.push((flag.name, value));
        }
        Ok(args)
    }

    /// `name <positional> [--switch] [--flag METAVAR] ...`, wrapped with
    /// continuation lines aligned under the first operand.
    pub fn synopsis(&self) -> String {
        let operand = self.positional.iter().map(|p| p.to_string());
        let flags = self.flags.iter().map(|f| match f.value {
            None => format!("[{}]", f.name),
            Some(metavar) => format!("[{} {metavar}]", f.name),
        });
        let indent = self.name.len() + 1;
        let mut out = self.name.to_string();
        let mut col = out.len();
        for item in operand.chain(flags) {
            if col + 1 + item.len() > SYNOPSIS_WIDTH && col > indent {
                out.push('\n');
                out.push_str(&" ".repeat(indent));
                col = indent;
            } else {
                out.push(' ');
                col += 1;
            }
            out.push_str(&item);
            col += item.len();
        }
        out
    }
}

/// What one argv said, read back by flag name. Reading a flag the command's
/// table does not declare is a bug in the caller and fails a
/// `debug_assert!`, so a typo in a read is caught by the first test that
/// runs the command.
#[derive(Debug)]
pub struct Args<'a> {
    cmd: &'a Command,
    positional: Option<&'a str>,
    /// Every flag given, in argv order, with its value (`""` for a switch).
    given: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Name of the command that parsed these arguments.
    pub fn command(&self) -> &'static str {
        self.cmd.name
    }

    /// The positional operand, if one was given.
    pub fn positional(&self) -> Option<&'a str> {
        self.positional
    }

    /// The positional operand, or `{cmd}: missing {positional}`.
    pub fn required(&self) -> Result<&'a str, String> {
        let what = self.cmd.positional.unwrap_or("argument");
        self.positional
            .ok_or_else(|| format!("{}: missing {what}", self.cmd.name))
    }

    /// Whether `flag` (a switch or a valued flag) was given at all.
    pub fn has(&self, flag: &str) -> bool {
        self.check_declared(flag, false);
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// The value of `flag`; the last occurrence wins.
    pub fn value(&self, flag: &str) -> Option<&'a str> {
        self.check_declared(flag, true);
        let last = self.given.iter().rev().find(|(name, _)| *name == flag);
        last.map(|(_, value)| *value)
    }

    /// The value of `flag` as an integer of the width the caller asks for
    /// ([`parse_u64`], then range-checked — never cast): `{flag}: bad
    /// integer ...` or `{flag}: ... out of range` when it is not one.
    pub fn int<T: TryFrom<u64>>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some(text) = self.value(flag) else {
            return Ok(None);
        };
        let wide = parse_u64(text).map_err(|e| format!("{flag}: {e}"))?;
        let narrow = T::try_from(wide).map_err(|_| format!("{flag}: `{wide}` out of range"))?;
        Ok(Some(narrow))
    }

    /// Overwrite `slot` — typically an option struct's default — with the
    /// integer value of `flag`, when it was given. Fails as [`Args::int`].
    pub fn set<T: TryFrom<u64>>(&self, flag: &str, slot: &mut T) -> Result<(), String> {
        if let Some(v) = self.int(flag)? {
            *slot = v;
        }
        Ok(())
    }

    /// Overwrite `slot` (a `String`, a `PathBuf`) with the value of
    /// `flag`, when it was given.
    pub fn set_str<T: From<&'a str>>(&self, flag: &str, slot: &mut T) {
        if let Some(v) = self.value(flag) {
            *slot = T::from(v);
        }
    }

    /// Every occurrence of any of `flags`, in argv order, as `(flag,
    /// value)` — for flags whose interleaving matters (`gcl run`'s
    /// `--alloc` / `--param` fill the kernel's parameters left to right).
    pub fn in_order<'s>(
        &'s self,
        flags: &'s [&str],
    ) -> impl Iterator<Item = (&'static str, &'a str)> + 's {
        flags.iter().for_each(|f| self.check_declared(f, true));
        let wanted = self.given.iter().filter(|(name, _)| flags.contains(name));
        wanted.copied()
    }

    fn check_declared(&self, flag: &str, valued: bool) {
        let declares = |f: &Flag| f.name == flag && (!valued || f.value.is_some());
        debug_assert!(
            self.cmd.flags.iter().any(declares),
            "`{}` reads `{flag}`, which its flag table does not declare (valued: {valued})",
            self.cmd.name,
        );
    }
}

/// Parse a decimal or `0x`-prefixed hexadecimal integer; ``bad integer
/// `{s}`: ...`` with the standard library's reason otherwise.
pub fn parse_u64(s: &str) -> Result<u64, String> {
    let v = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    v.map_err(|e| format!("bad integer `{s}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: Command = Command {
        name: "run",
        positional: Some("<kernel.ptx>"),
        flags: &[
            Flag::taking("--grid", "G"),
            Flag::taking("--alloc", "BYTES"),
            Flag::taking("--param", "VALUE"),
            Flag::taking("--journal", "PATH"),
            Flag::switch("--recover"),
        ],
    };
    const BARE: Command = Command {
        name: "suite",
        positional: None,
        flags: &[Flag::switch("--tiny")],
    };

    fn argv(words: &str) -> Vec<String> {
        words.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn integers_parse_in_both_bases() {
        assert_eq!(parse_u64("42").unwrap(), 42);
        assert_eq!(parse_u64("0x2a").unwrap(), 42);
        assert!(parse_u64("nope").is_err());
        assert!(parse_u64("-1").is_err());
        assert!(parse_u64("").is_err());
    }

    #[test]
    fn rejections_name_the_command_and_the_word() {
        for (cmd, words, says) in [
            (&RUN, "k.ptx --jsno", "run: unknown option `--jsno`"),
            (&RUN, "k.ptx -g", "run: unknown option `-g`"),
            (&RUN, "k.ptx extra", "run: unexpected argument `extra`"),
            (&BARE, "bfs", "suite: unexpected argument `bfs`"),
            (&RUN, "k.ptx --grid", "--grid needs a value (G)"),
            (
                &RUN,
                "--journal --recover k.ptx",
                "--journal needs a value (PATH)",
            ),
        ] {
            let argv = argv(words);
            assert_eq!(cmd.parse(&argv).unwrap_err(), says, "{words}");
        }
        // One dash is a value, not a flag: only `--x` cannot follow `--flag`.
        let argv = argv("k.ptx --journal -");
        assert_eq!(RUN.parse(&argv).unwrap().value("--journal"), Some("-"));
    }

    #[test]
    fn the_positional_may_stand_anywhere() {
        for words in [
            "k.ptx --grid 2 --recover",
            "--grid 2 k.ptx --recover",
            "--grid 2 --recover k.ptx",
        ] {
            let argv = argv(words);
            let a = RUN.parse(&argv).unwrap();
            assert_eq!(a.positional(), Some("k.ptx"), "{words}");
            assert_eq!(a.required().unwrap(), "k.ptx");
            assert_eq!(a.int::<u32>("--grid").unwrap(), Some(2));
            assert!(a.has("--recover"));
        }
        let argv = argv("--recover");
        let a = RUN.parse(&argv).unwrap();
        assert_eq!(a.positional(), None);
        assert_eq!(a.required().unwrap_err(), "run: missing <kernel.ptx>");
        assert_eq!(a.command(), "run");
    }

    #[test]
    fn the_last_occurrence_wins_and_in_order_keeps_them_all() {
        let argv = argv("k.ptx --alloc 64 --param 0x10 --grid 2 --alloc 128 --grid 3");
        let a = RUN.parse(&argv).unwrap();
        assert_eq!(a.value("--grid"), Some("3"));
        assert_eq!(a.int::<u64>("--alloc").unwrap(), Some(128));
        assert_eq!(a.value("--journal"), None);
        assert!(a.has("--grid") && !a.has("--journal") && !a.has("--recover"));
        assert_eq!(
            a.in_order(&["--alloc", "--param"]).collect::<Vec<_>>(),
            vec![("--alloc", "64"), ("--param", "0x10"), ("--alloc", "128")]
        );
    }

    #[test]
    fn integers_are_range_checked_not_cast() {
        let argv = argv("k.ptx --grid 4294967297 --alloc 0x100000020 --param x");
        let a = RUN.parse(&argv).unwrap();
        assert_eq!(
            a.int::<u32>("--grid").unwrap_err(),
            "--grid: `4294967297` out of range"
        );
        assert_eq!(a.int::<u64>("--grid").unwrap(), Some(4_294_967_297));
        assert_eq!(a.int::<u64>("--alloc").unwrap(), Some(0x1_0000_0020));
        assert_eq!(a.int::<usize>("--alloc").unwrap(), Some(0x1_0000_0020));
        let err = a.int::<u64>("--param").unwrap_err();
        assert!(err.starts_with("--param: bad integer `x`"), "{err}");
        assert_eq!(a.int::<u64>("--journal").unwrap(), None);

        // `set` and `set_str` overwrite a default only when the flag is given.
        let (mut grid, mut alloc, mut journal) = (1u32, 7u64, String::from("j"));
        assert!(a.set("--grid", &mut grid).is_err());
        a.set("--alloc", &mut alloc).unwrap();
        a.set_str("--journal", &mut journal);
        assert_eq!((grid, alloc, journal.as_str()), (1, 0x1_0000_0020, "j"));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn reading_an_undeclared_flag_panics_in_debug() {
        let argv = argv("k.ptx");
        let reads: [fn(&Args) -> bool; 3] = [
            |a| a.has("--gird"),
            |a| a.value("--recover").is_some(),
            |a| a.in_order(&["--alloc", "--parm"]).count() > 0,
        ];
        for read in reads {
            let caught = std::panic::catch_unwind(|| read(&RUN.parse(&argv).unwrap()));
            assert!(caught.is_err());
        }
    }

    #[test]
    fn the_synopsis_lists_the_table_and_wraps() {
        assert_eq!(BARE.synopsis(), "suite [--tiny]");
        assert_eq!(
            RUN.synopsis(),
            "run <kernel.ptx> [--grid G] [--alloc BYTES] [--param VALUE]\n    \
             [--journal PATH] [--recover]"
        );
    }
}
