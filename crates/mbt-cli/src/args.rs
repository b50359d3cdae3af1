//! A small, dependency-free, *strict* argument parser: positional
//! arguments plus `--key value` and `--flag` options, checked against the
//! [`Command`] row they are parsed for. Anything the row does not declare
//! is an [`ArgError`], never a silent default.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::ops::RangeInclusive;

use crate::Command;

/// Parsed arguments: positionals in order, options by name.
#[derive(Debug, Clone)]
pub struct Args {
    command: &'static Command,
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Error produced when an argument is missing, malformed or not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A required positional argument was not supplied.
    MissingPositional(&'static str),
    /// A required option was not supplied.
    MissingOption(&'static str),
    /// An option's value failed to parse.
    BadValue {
        /// Option name.
        option: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// `--option` appeared with no following value.
    DanglingOption(String),
    /// `--option` is not one the command accepts.
    UnknownOption(String),
    /// `--option` appeared more than once.
    RepeatedOption(String),
    /// A positional argument beyond those the command accepts.
    SurplusPositional(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingPositional(name) => write!(f, "missing <{name}> argument"),
            ArgError::MissingOption(name) => write!(f, "missing required --{name} option"),
            ArgError::BadValue {
                option,
                value,
                expected,
            } => write!(f, "--{option} expects {expected}, got `{value}`"),
            ArgError::DanglingOption(name) => write!(f, "--{name} needs a value"),
            ArgError::UnknownOption(name) => write!(f, "unknown option `--{name}`"),
            ArgError::RepeatedOption(name) => write!(f, "`--{name}` given more than once"),
            ArgError::SurplusPositional(tok) => write!(f, "unexpected argument `{tok}`"),
        }
    }
}

impl Error for ArgError {}

/// Parses `token`, given for `--option`, as a `T`.
///
/// # Errors
///
/// Returns [`ArgError::BadValue`] naming the option, the token and what was
/// `expected` if the token does not parse.
pub fn value<T: std::str::FromStr>(
    option: &str,
    token: &str,
    expected: &'static str,
) -> Result<T, ArgError> {
    token.parse().map_err(|_| ArgError::BadValue {
        option: option.to_string(),
        value: token.to_string(),
        expected,
    })
}

/// Parses `token`, given for `--option`, as a rate.
///
/// # Errors
///
/// Returns [`ArgError::BadValue`] naming the option and the token unless the
/// token is a finite number in `[0, 1]` — never a clamped or NaN rate.
pub fn rate(option: &str, token: &str) -> Result<f64, ArgError> {
    match token.parse::<f64>() {
        Ok(rate) if (0.0..=1.0).contains(&rate) => Ok(rate),
        _ => Err(ArgError::BadValue {
            option: option.to_string(),
            value: token.to_string(),
            expected: "a number in [0,1]",
        }),
    }
}

impl Args {
    /// Parses raw arguments (without the program/subcommand names) against
    /// what `command` declares. `--help` is accepted by every command.
    ///
    /// # Errors
    ///
    /// An option or flag the command does not declare, one given twice, a
    /// value-taking option that ends the argument list, or more positionals
    /// than the command takes.
    pub fn parse<I: IntoIterator<Item = String>>(
        command: &'static Command,
        raw: I,
    ) -> Result<Self, ArgError> {
        let mut args = Args {
            command,
            positional: Vec::new(),
            options: BTreeMap::new(),
            flags: Vec::new(),
        };
        let mut iter = raw.into_iter();
        while let Some(tok) = iter.next() {
            let Some(name) = tok.strip_prefix("--") else {
                if args.positional.len() == command.positionals {
                    return Err(ArgError::SurplusPositional(tok));
                }
                args.positional.push(tok);
                continue;
            };
            if args.flags.iter().any(|f| f == name) || args.options.contains_key(name) {
                return Err(ArgError::RepeatedOption(name.to_string()));
            }
            if name == "help" || command.flags.contains(&name) {
                args.flags.push(name.to_string());
            } else if command.options.contains(&name) {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError::DanglingOption(name.to_string()))?;
                args.options.insert(name.to_string(), value);
            } else {
                return Err(ArgError::UnknownOption(name.to_string()));
            }
        }
        Ok(args)
    }

    /// Every positional argument, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positional
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize, name: &'static str) -> Result<&str, ArgError> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or(ArgError::MissingPositional(name))
    }

    /// An optional string option.
    pub fn opt_str(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.command.options.contains(&name),
            "`{}` reads --{name} but does not declare it",
            self.command.name
        );
        self.options.get(name).map(String::as_str)
    }

    /// A string option with a default.
    pub fn str_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.opt_str(name).unwrap_or(default)
    }

    /// A parsed option, `None` when it was not given.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] if the supplied value fails to parse.
    pub fn parse_opt<T: std::str::FromStr>(
        &self,
        name: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgError> {
        self.opt_str(name)
            .map(|token| value(name, token, expected))
            .transpose()
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] if the supplied value fails to parse.
    pub fn parse_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        Ok(self.parse_opt(name, expected)?.unwrap_or(default))
    }

    /// A parsed option with a default, held to `range`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] if the supplied value fails to parse or
    /// falls outside `range`: it is refused, never clamped into it.
    pub fn parse_in<T: std::str::FromStr + PartialOrd>(
        &self,
        name: &str,
        default: T,
        range: RangeInclusive<T>,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        let Some(token) = self.opt_str(name) else {
            return Ok(default);
        };
        value(name, token, expected)
            .ok()
            .filter(|v| range.contains(v))
            .ok_or_else(|| ArgError::BadValue {
                option: name.to_string(),
                value: token.to_string(),
                expected,
            })
    }

    /// A [`rate`] option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] if the supplied value is not a number
    /// in `[0, 1]`.
    pub fn rate_or(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        self.opt_str(name)
            .map_or(Ok(default), |token| rate(name, token))
    }

    /// True if `--name` was given, as an option or as a flag.
    pub fn given(&self, name: &str) -> bool {
        debug_assert!(
            self.command.options.contains(&name) || self.command.flags.contains(&name),
            "`{}` reads --{name} but does not declare it",
            self.command.name
        );
        self.options.contains_key(name) || self.flags.iter().any(|f| f == name)
    }

    /// True if the flag was given.
    pub fn flag(&self, name: &str) -> bool {
        debug_assert!(
            name == "help" || self.command.flags.contains(&name),
            "`{}` reads --{name} but does not declare it",
            self.command.name
        );
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CliError;

    fn unreachable_run(_: &Args) -> Result<String, CliError> {
        unreachable!("parser tests never dispatch")
    }

    static DEMO: Command = Command {
        name: "demo",
        usage: "mbt demo <trace> [--seed N] [--model M] [--days N] [--tft]",
        positionals: 1,
        options: &["seed", "model", "days"],
        flags: &["tft"],
        run: unreachable_run,
    };

    fn try_parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(&DEMO, s.split_whitespace().map(String::from))
    }

    fn parse(s: &str) -> Args {
        try_parse(s).unwrap()
    }

    #[test]
    fn positionals_and_options() {
        let a = parse("trace.txt --seed 42 --model nus");
        assert_eq!(a.positional(0, "trace").unwrap(), "trace.txt");
        assert_eq!(a.opt_str("model"), Some("nus"));
        assert_eq!(a.parse_or("seed", 0u64, "an integer").unwrap(), 42);
    }

    #[test]
    fn defaults_apply() {
        let a = parse("x");
        assert_eq!(a.parse_or("days", 15u64, "an integer").unwrap(), 15);
        assert_eq!(a.str_or("model", "dieselnet"), "dieselnet");
    }

    #[test]
    fn flags_take_no_value() {
        let a = parse("--tft trace.txt --seed 7");
        assert!(a.flag("tft"));
        assert!(!a.flag("help"));
        assert_eq!(a.positional(0, "trace").unwrap(), "trace.txt");
        assert_eq!(a.parse_or("seed", 0u64, "an integer").unwrap(), 7);
    }

    #[test]
    fn missing_positional_errors() {
        let a = parse("--seed 3");
        assert_eq!(
            a.positional(0, "trace").unwrap_err(),
            ArgError::MissingPositional("trace")
        );
    }

    #[test]
    fn bad_value_errors() {
        let a = parse("--seed banana");
        let err = a.parse_or("seed", 0u64, "an integer").unwrap_err();
        assert!(matches!(err, ArgError::BadValue { .. }));
        assert!(err.to_string().contains("banana"));
        // A negative count is a value (not an option) and a bad one.
        let err = parse("--days -1")
            .parse_or("days", 1u32, "an integer")
            .unwrap_err();
        assert!(err.to_string().contains("`-1`"), "{err}");
    }

    #[test]
    fn rates_outside_the_unit_interval_are_bad_values() {
        assert_eq!(parse("x").rate_or("seed", 0.25).unwrap(), 0.25);
        assert_eq!(parse("--seed 1").rate_or("seed", 0.0).unwrap(), 1.0);
        assert_eq!(parse("--seed -0").rate_or("seed", 0.5).unwrap(), 0.0);
        for bad in [
            "7", "1.0001", "-0.1", "nan", "NaN", "inf", "-inf", "half", "",
        ] {
            let err = rate("seed", bad).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("--seed expects a number in [0,1], got `{bad}`")
            );
        }
    }

    #[test]
    fn values_outside_their_range_are_bad_values() {
        let days =
            |line: &str| parse(line).parse_in("days", 3u32, 1..=64, "an integer from 1 to 64");
        assert_eq!(days("x").unwrap(), 3);
        assert_eq!(days("--days 64").unwrap(), 64);
        for bad in ["0", "65", "-1", "many"] {
            let err = days(&format!("--days {bad}")).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("--days expects an integer from 1 to 64, got `{bad}`")
            );
        }
    }

    #[test]
    fn dangling_option_errors() {
        assert_eq!(
            try_parse("--seed").unwrap_err(),
            ArgError::DanglingOption("seed".to_string())
        );
    }

    #[test]
    fn undeclared_repeated_and_surplus_arguments_are_errors() {
        assert_eq!(
            try_parse("x --bogus 7").unwrap_err(),
            ArgError::UnknownOption("bogus".to_string())
        );
        // A misspelt flag is as unknown as a misspelt option.
        assert_eq!(
            try_parse("x --tfft").unwrap_err(),
            ArgError::UnknownOption("tfft".to_string())
        );
        assert_eq!(
            try_parse("x --seed 1 --seed 2").unwrap_err(),
            ArgError::RepeatedOption("seed".to_string())
        );
        assert_eq!(
            try_parse("--tft x --tft").unwrap_err(),
            ArgError::RepeatedOption("tft".to_string())
        );
        assert_eq!(
            try_parse("x y").unwrap_err(),
            ArgError::SurplusPositional("y".to_string())
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not declare it")]
    fn reading_an_undeclared_option_is_a_bug() {
        let _ = parse("x").opt_str("nodes");
    }
}
