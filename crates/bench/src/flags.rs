//! The one command-line flag parser of the bench binaries. Every flag
//! takes `--flag v` or `--flag=v`; each query claims the arguments it
//! reads, and [`Flags::finish`] rejects the rest. A value is the next
//! argument, whatever it looks like, unless an earlier query claimed it. A
//! repeated single value must parse each time, and the last one wins.
//! Errors name the flag and any bad value; range checks stay in the
//! binaries.

use std::fmt::Display;

/// Command-line arguments, each claimed at most once by a query.
#[derive(Debug)]
pub struct Flags {
    args: Vec<String>,
    claimed: Vec<bool>,
}

impl Flags {
    /// The process's arguments, without the program name.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// Wraps an argument list (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let claimed = vec![false; args.len()];
        Flags { args, claimed }
    }

    /// Whether the switch `name` (e.g. `"--quick"`) is present.
    pub fn switch(&mut self, name: &str) -> bool {
        let mut seen = false;
        for (arg, claimed) in self.args.iter().zip(&mut self.claimed) {
            if !*claimed && arg == name {
                *claimed = true;
                seen = true;
            }
        }
        seen
    }

    /// Every value of the repeatable flag `name`, in command-line order; an
    /// error if one is missing.
    pub fn values(&mut self, name: &str) -> Result<Vec<String>, String> {
        let mut values = Vec::new();
        let mut i = 0;
        while i < self.args.len() {
            let arg = &self.args[i];
            if self.claimed[i] {
                // Claimed by an earlier query.
            } else if arg == name {
                if self.claimed.get(i + 1) != Some(&false) {
                    return Err(format!("{name} requires a value"));
                }
                values.push(self.args[i + 1].clone());
                self.claimed[i..=i + 1].fill(true);
                i += 1;
            } else if let Some(v) = arg.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
                values.push(v.to_string());
                self.claimed[i] = true;
            }
            i += 1;
        }
        Ok(values)
    }

    /// The value of `name` parsed by `parse` (e.g. `str::parse`), if the
    /// flag is given; an error for a missing value or one `parse` rejects.
    pub fn value<T, E: Display>(
        &mut self,
        name: &str,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for v in self.values(name)? {
            last = Some(parse(&v).map_err(|e| format!("{name}: invalid value {v:?}: {e}"))?);
        }
        Ok(last)
    }

    /// The comma-separated list value of `name`, each item trimmed and
    /// parsed by `parse`, if the flag is given; an error for a missing
    /// value or an item `parse` rejects.
    pub fn list<T, E: Display>(
        &mut self,
        name: &str,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Option<Vec<T>>, String> {
        let mut last = None;
        for v in self.values(name)? {
            let items = v.split(',').map(|item| {
                let item = item.trim();
                parse(item).map_err(|e| format!("{name}: invalid value {item:?}: {e}"))
            });
            last = Some(items.collect::<Result<_, _>>()?);
        }
        Ok(last)
    }

    /// The unclaimed arguments, in order: the binary's positionals. An
    /// unclaimed argument starting with `--` is an unknown flag: an error.
    pub fn positionals(self) -> Result<Vec<String>, String> {
        let rest = self.args.into_iter().zip(self.claimed).filter(|(_, c)| !c);
        let rest: Vec<String> = rest.map(|(arg, _)| arg).collect();
        match rest.iter().find(|arg| arg.starts_with("--")) {
            Some(flag) => Err(format!("unknown flag {flag}")),
            None => Ok(rest),
        }
    }

    /// Checks that every argument was claimed; an error names the first
    /// unknown flag or unexpected argument.
    pub fn finish(self) -> Result<(), String> {
        match self.positionals()?.first() {
            Some(arg) => Err(format!("unexpected argument {arg:?}")),
            None => Ok(()),
        }
    }
}

/// Prints the usage error `err` after the binary's name and exits with
/// status 2.
pub fn exit_usage(binary: &str, err: impl Display) -> ! {
    eprintln!("{binary}: {err}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|a| a.to_string()))
    }

    fn text(f: &mut Flags, name: &str) -> Result<Option<String>, String> {
        f.value(name, str::parse)
    }

    fn number(f: &mut Flags, name: &str) -> Result<Option<f64>, String> {
        f.value(name, str::parse)
    }

    #[test]
    fn both_value_forms_parse_and_the_last_wins() {
        let mut f = flags(&["--rate", "0.1", "--seed=7", "--rate=0.2"]);
        assert_eq!(number(&mut f, "--rate"), Ok(Some(0.2)));
        assert_eq!(number(&mut f, "--seed"), Ok(Some(7.0)));
        assert_eq!(number(&mut f, "--level"), Ok(None));
        assert_eq!(f.finish(), Ok(()));
        // `--flag=` is an empty value, not a missing one.
        assert_eq!(
            text(&mut flags(&["--out="]), "--out"),
            Ok(Some(String::new()))
        );
    }

    #[test]
    fn every_occurrence_must_parse() {
        let mut f = flags(&["--rate", "abc", "--rate", "0.1"]);
        let err = "--rate: invalid value \"abc\": invalid float literal";
        assert_eq!(number(&mut f, "--rate"), Err(err.into()));
    }

    #[test]
    fn missing_values_name_the_flag() {
        let err = Err("--rate requires a value".into());
        assert_eq!(number(&mut flags(&["--rate"]), "--rate"), err);
        // A value already claimed by an earlier query is missing too.
        let mut f = flags(&["--out", "--quick"]);
        assert!(f.switch("--quick"));
        assert_eq!(text(&mut f, "--out"), Err("--out requires a value".into()));
    }

    #[test]
    fn a_value_may_look_like_a_flag() {
        let mut f = flags(&["--out", "--quick"]);
        assert_eq!(text(&mut f, "--out"), Ok(Some("--quick".into())));
        assert!(!f.switch("--quick"));
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn repeatable_values_keep_command_line_order() {
        let mut f = flags(&["--shard", "a", "--quick", "--shard=b", "--shard", "c"]);
        assert_eq!(
            f.values("--shard"),
            Ok(vec!["a".into(), "b".into(), "c".into()])
        );
        assert!(f.switch("--quick"));
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn lists_split_on_commas_and_name_the_bad_item() {
        let mut f = flags(&["--loads", "0.05, 0.15", "--levels=4,x"]);
        assert_eq!(
            f.list("--loads", str::parse::<f64>),
            Ok(Some(vec![0.05, 0.15]))
        );
        let err = "--levels: invalid value \"x\": invalid digit found in string";
        assert_eq!(f.list("--levels", str::parse::<usize>), Err(err.into()));
        let mut f = flags(&["--topologies", "mesh4x4,ring"]);
        let parse = |s: &str| {
            if s.starts_with("mesh") {
                Ok(s.len())
            } else {
                Err("unknown")
            }
        };
        let err = "--topologies: invalid value \"ring\": unknown";
        assert_eq!(f.list("--topologies", parse), Err(err.into()));
    }

    #[test]
    fn positionals_are_the_unclaimed_non_flags() {
        let mut f = flags(&["a.sock", "--interval", "5", "b.sock", "--once"]);
        assert_eq!(number(&mut f, "--interval"), Ok(Some(5.0)));
        assert!(f.switch("--once"));
        assert_eq!(f.positionals(), Ok(vec!["a.sock".into(), "b.sock".into()]));
    }

    #[test]
    fn leftovers_are_rejected() {
        let mut f = flags(&["--quick", "--bogus=1"]);
        assert!(f.switch("--quick"));
        assert_eq!(f.finish(), Err("unknown flag --bogus=1".into()));
        assert_eq!(
            flags(&["-h"]).finish(),
            Err("unexpected argument \"-h\"".into())
        );
        // A switch given a value is not that switch.
        let mut f = flags(&["--quick=1"]);
        assert!(!f.switch("--quick"));
        assert_eq!(f.positionals(), Err("unknown flag --quick=1".into()));
        // A flag name is matched whole, never as a prefix.
        let mut f = flags(&["--telemetryx=d"]);
        assert_eq!(text(&mut f, "--telemetry"), Ok(None));
        assert!(f.finish().is_err());
    }
}
