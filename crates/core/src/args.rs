//! Tiny flag parser: positional arguments plus `--key value` / `--switch`
//! options. Hand-rolled to keep the dependency budget at zero.

use std::collections::BTreeMap;
use std::time::Duration;

#[derive(Debug, Default)]
pub struct Parsed {
    pub positional: Vec<String>,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
    /// One entry per repeated value option (last occurrence wins, matching
    /// the switch dedupe behavior, but noisily: each is printed to stderr as
    /// it is found, so `--seed 5 ... --seed 1` in a long command line is
    /// never a silent surprise).
    warnings: Vec<String>,
}

/// Parses `argv` given the set of value-taking option names and boolean
/// switch names (both without the `--` prefix).
pub fn parse(argv: &[String], value_opts: &[&str], switch_opts: &[&str]) -> Result<Parsed, String> {
    let (mut out, rest) = split(argv, value_opts, switch_opts)?;
    for a in rest {
        match a.strip_prefix("--") {
            Some(name) => {
                return Err(match name.split_once('=') {
                    Some((key, _)) => equals_style(key),
                    None => format!("unknown option --{name}"),
                })
            }
            None => out.positional.push(a),
        }
    }
    Ok(out)
}

/// Parses the listed options out of `argv` wherever they stand and returns
/// every other argument untouched and in order — how a front end takes its
/// global flags off a command line before a subcommand parses the rest.
pub fn split(
    argv: &[String],
    value_opts: &[&str],
    switch_opts: &[&str],
) -> Result<(Parsed, Vec<String>), String> {
    let mut out = Parsed::default();
    let mut rest = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let name = a.strip_prefix("--").unwrap_or("");
        let key = name.split_once('=').map_or(name, |(key, _)| key);
        if switch_opts.contains(&name) {
            if !out.switches.iter().any(|s| s == name) {
                out.switches.push(name.to_string());
            }
        } else if value_opts.contains(&name) {
            let v = it.next().ok_or(format!("--{name} needs a value"))?;
            if let Some(prev) = out.options.insert(name.to_string(), v.clone()) {
                let w = format!("--{name} given more than once; using `{v}` (ignoring `{prev}`)");
                eprintln!("warning: {w}");
                out.warnings.push(w);
            }
        } else if key != name && (value_opts.contains(&key) || switch_opts.contains(&key)) {
            return Err(equals_style(key));
        } else {
            rest.push(a.clone());
        }
    }
    Ok((out, rest))
}

fn equals_style(key: &str) -> String {
    format!("`--{key}=VALUE` style is not supported; use `--{key} VALUE`")
}

impl Parsed {
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.opt(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|e| format!("--{name}: {e}")),
        }
    }

    /// A span of seconds: a positive, finite number that fits a
    /// [`Duration`]; anything else is an error naming the flag.
    pub fn opt_secs(&self, name: &str) -> Result<Option<Duration>, String> {
        let Some(secs) = self.opt_parse::<f64>(name)? else {
            return Ok(None);
        };
        match Duration::try_from_secs_f64(secs) {
            Ok(span) if secs > 0.0 => Ok(Some(span)),
            _ => Err(format!(
                "--{name} must be a positive number of seconds, got {secs}"
            )),
        }
    }

    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.opt(name).ok_or(format!("missing required --{name}"))
    }

    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    pub fn positional(&self, idx: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(idx)
            .map(String::as_str)
            .ok_or(format!("missing {what}"))
    }

    /// Warnings accumulated during parsing (e.g. repeated value options).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn mixed_args() {
        let p = parse(
            &sv(&["plot", "--field", "rho", "--skip", "more"]),
            &["field"],
            &["skip"],
        )
        .unwrap();
        assert_eq!(p.positional, vec!["plot", "more"]);
        assert_eq!(p.opt("field"), Some("rho"));
        assert!(p.switch("skip"));
        assert!(!p.switch("other"));
        assert_eq!(p.positional(0, "x").unwrap(), "plot");
        assert!(p.positional(5, "missing thing").is_err());
    }

    #[test]
    fn missing_value_and_unknown_option() {
        assert!(parse(&sv(&["--field"]), &["field"], &[]).is_err());
        assert!(parse(&sv(&["--nope", "v"]), &["field"], &[]).is_err());
    }

    #[test]
    fn seconds_must_be_positive_and_finite() {
        let secs = |v: &str| parse(&sv(&["--t", v]), &["t"], &[]).unwrap().opt_secs("t");
        assert_eq!(secs("1.5"), Ok(Some(Duration::from_millis(1500))));
        for bad in ["0", "-1", "nan", "inf", "1e300", "x"] {
            let err = secs(bad).unwrap_err();
            assert!(err.starts_with("--t"), "{bad}: {err}");
        }
        assert_eq!(parse(&[], &["t"], &[]).unwrap().opt_secs("t"), Ok(None));
    }

    #[test]
    fn repeated_switches_are_deduped() {
        let p = parse(&sv(&["--skip", "--skip", "--skip"]), &[], &["skip"]).unwrap();
        assert!(p.switch("skip"));
        assert_eq!(p.switches, vec!["skip"]);
    }

    #[test]
    fn repeated_value_option_keeps_last() {
        let p = parse(&sv(&["--n", "1", "--n", "2"]), &["n"], &[]).unwrap();
        assert_eq!(p.opt("n"), Some("2"));
    }

    #[test]
    fn repeated_value_option_warns() {
        let p = parse(
            &sv(&["--metrics-interval", "5", "--metrics-interval", "1"]),
            &["metrics-interval"],
            &[],
        )
        .unwrap();
        assert_eq!(p.opt("metrics-interval"), Some("1"), "last wins");
        assert_eq!(p.warnings().len(), 1);
        assert!(
            p.warnings()[0].contains("--metrics-interval given more than once"),
            "unexpected warning: {}",
            p.warnings()[0]
        );
        assert!(p.warnings()[0].contains("using `1`"));
        assert!(p.warnings()[0].contains("ignoring `5`"));
        // A single occurrence stays quiet.
        let q = parse(&sv(&["--n", "1"]), &["n"], &[]).unwrap();
        assert!(q.warnings().is_empty());
    }

    #[test]
    fn equals_style_is_rejected_with_guidance() {
        let err = parse(&sv(&["--field=rho"]), &["field"], &[]).unwrap_err();
        assert!(
            err.contains("`--field=VALUE` style is not supported"),
            "unexpected message: {err}"
        );
        assert!(
            err.contains("use `--field VALUE`"),
            "unexpected message: {err}"
        );
        // Even an unknown key gets the syntax hint, not "unknown option".
        let err = parse(&sv(&["--nope=1"]), &["field"], &[]).unwrap_err();
        assert!(err.contains("`--nope=VALUE`"), "unexpected message: {err}");
    }

    #[test]
    fn split_takes_listed_options_and_leaves_the_rest_in_order() {
        let argv = sv(&[
            "extract",
            "--threads",
            "2",
            "plot",
            "--field",
            "rho",
            "--timing",
            "--threads",
            "4",
        ]);
        let (p, rest) = split(&argv, &["threads"], &["timing"]).unwrap();
        assert_eq!(rest, sv(&["extract", "plot", "--field", "rho"]));
        assert_eq!(p.opt("threads"), Some("4"), "last wins");
        assert!(p.switch("timing"));
        assert_eq!(p.warnings().len(), 1);
        assert!(p.positional.is_empty(), "positionals stay with the rest");
        // A listed option still needs its value and still refuses `=`; an
        // unlisted `--key=value` is the next parser's to judge.
        assert!(split(&sv(&["--threads"]), &["threads"], &[]).is_err());
        assert!(split(&sv(&["--threads=2"]), &["threads"], &[]).is_err());
        let (_, rest) = split(&sv(&["--field=rho"]), &["threads"], &[]).unwrap();
        assert_eq!(rest, sv(&["--field=rho"]));
    }

    #[test]
    fn typed_parse() {
        let p = parse(&sv(&["--n", "42"]), &["n"], &[]).unwrap();
        assert_eq!(p.opt_parse::<u64>("n").unwrap(), Some(42));
        assert_eq!(p.opt_parse::<u64>("missing").unwrap(), None);
        let bad = parse(&sv(&["--n", "abc"]), &["n"], &[]).unwrap();
        assert!(bad.opt_parse::<u64>("n").is_err());
    }
}
