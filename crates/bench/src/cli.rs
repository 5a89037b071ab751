//! The one command-line parser of the experiment binaries: each lists
//! the [`Flag`]s it accepts, and [`args`] refuses anything else with a
//! typed usage error and a usage line, exiting with status 2.

use std::fmt;
use std::path::PathBuf;

/// An argument a binary may accept.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Flag {
    /// `--quick`: shorter runs.
    Quick,
    /// `--trace-out <path>` or `--trace-out=<path>`: export a traced run
    /// as JSONL.
    TraceOut,
    /// A positional seed. With it, `--trace-out` traces that seed's run
    /// and needs the seed.
    Seed,
}

/// What a command line asked for.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    /// `--quick` was given.
    pub quick: bool,
    /// Where to export the traced run.
    pub trace_out: Option<PathBuf>,
    /// The positional seed.
    pub seed: Option<u64>,
}

/// Why a command line was refused.
#[derive(Debug, PartialEq)]
enum UsageError {
    /// An argument the binary does not accept.
    Unexpected(String),
    /// `--trace-out` without a path.
    MissingPath,
    /// A seed that is not an unsigned integer.
    BadSeed(String),
    /// `--trace-out` without the seed of the run to trace.
    TraceNeedsSeed,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::Unexpected(a) => write!(f, "unexpected argument {a:?}"),
            UsageError::MissingPath => f.write_str("--trace-out needs a path"),
            UsageError::BadSeed(a) => write!(f, "seed {a:?} is not an unsigned integer"),
            UsageError::TraceNeedsSeed => f.write_str("--trace-out needs a seed"),
        }
    }
}

/// The usage line of `bin`, which accepts `flags`.
fn usage(bin: &str, flags: &[Flag]) -> String {
    let names = flags.iter().map(|f| match f {
        Flag::Quick => " [--quick]",
        Flag::TraceOut => " [--trace-out <path>]",
        Flag::Seed => " [seed]",
    });
    format!("usage: {bin}{}", names.collect::<String>())
}

/// Parses `args` (without the program name) against `flags`.
fn parse(flags: &[Flag], args: impl IntoIterator<Item = String>) -> Result<Args, UsageError> {
    let mut out = Args::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let path = match a.strip_prefix("--trace-out=") {
            Some(p) => Some(p.to_string()),
            None if a == "--trace-out" => Some(args.next().unwrap_or_default()),
            None => None,
        };
        match path {
            Some(_) if !flags.contains(&Flag::TraceOut) => return Err(UsageError::Unexpected(a)),
            Some(p) if p.is_empty() || p.starts_with("--") => return Err(UsageError::MissingPath),
            Some(p) => out.trace_out = Some(PathBuf::from(p)),
            None if a == "--quick" && flags.contains(&Flag::Quick) => out.quick = true,
            None if flags.contains(&Flag::Seed) && out.seed.is_none() && !a.starts_with('-') => {
                out.seed = Some(a.parse().map_err(|_| UsageError::BadSeed(a))?);
            }
            None => return Err(UsageError::Unexpected(a)),
        }
    }
    if flags.contains(&Flag::Seed) && out.trace_out.is_some() && out.seed.is_none() {
        return Err(UsageError::TraceNeedsSeed);
    }
    Ok(out)
}

/// Parses the process's arguments against `flags`; on a usage error
/// prints it and `bin`'s usage line to stderr and exits with status 2.
pub fn args(bin: &str, flags: &[Flag]) -> Args {
    parse(flags, std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}\n{}", usage(bin, flags));
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::Flag::{Quick, Seed, TraceOut};
    use super::*;

    const FIGURE: &[Flag] = &[Quick, TraceOut];
    const SCAN: &[Flag] = &[Seed, TraceOut];

    fn run(flags: &[Flag], line: &str) -> Result<Args, UsageError> {
        parse(flags, line.split_whitespace().map(String::from))
    }

    #[test]
    fn accepts_the_documented_flags() {
        assert_eq!(run(FIGURE, ""), Ok(Args::default()));
        let want = Args {
            quick: true,
            trace_out: Some("t.jsonl".into()),
            seed: None,
        };
        assert_eq!(run(FIGURE, "--quick --trace-out t.jsonl"), Ok(want));
        let want = || Args {
            quick: false,
            trace_out: Some("t.jsonl".into()),
            seed: Some(42),
        };
        assert_eq!(run(SCAN, "--trace-out t.jsonl 42"), Ok(want()));
        assert_eq!(run(SCAN, "42 --trace-out=t.jsonl"), Ok(want()));
    }

    #[test]
    fn refuses_everything_else() {
        let unexpected = |a: &str| Err(UsageError::Unexpected(a.to_string()));
        assert_eq!(run(FIGURE, "--quik"), unexpected("--quik"));
        assert_eq!(run(FIGURE, "7"), unexpected("7"));
        assert_eq!(run(SCAN, "--quick"), unexpected("--quick"));
        assert_eq!(run(SCAN, "1 2"), unexpected("2"));
        assert_eq!(run(&[Quick], "--trace-out t"), unexpected("--trace-out"));
        assert_eq!(run(FIGURE, "--trace-out"), Err(UsageError::MissingPath));
        assert_eq!(run(FIGURE, "--trace-out="), Err(UsageError::MissingPath));
        let missing = run(FIGURE, "--trace-out --quick");
        assert_eq!(missing, Err(UsageError::MissingPath));
        assert_eq!(run(SCAN, "x1"), Err(UsageError::BadSeed("x1".into())));
        assert_eq!(run(SCAN, "--trace-out t"), Err(UsageError::TraceNeedsSeed));
    }

    #[test]
    fn usage_lists_the_accepted_arguments() {
        let line = "usage: fig [--quick] [--trace-out <path>]";
        assert_eq!(usage("fig", FIGURE), line);
        let line = "usage: scan [seed] [--trace-out <path>]";
        assert_eq!(usage("scan", SCAN), line);
    }
}
